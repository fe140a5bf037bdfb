import dataclasses
import math

import numpy as np
import pytest

import desk
from vslcert import search, validation
from vslcert.certificate import certificate
from vslcert.network import load_scenario
from vslcert.sampling import (
    SampleSet,
    generate_samples,
    load_generator,
    propagate_batch,
)
from vslcert.search import TERM_ENUMERATED, TERM_TIME, run_search
from vslcert.validation import brute_force_optimum


def build_problem(seed, **kw):
    """A random desk scenario and two draws at seed."""
    rng = np.random.default_rng(seed)
    sc, gen = desk.random_scenario(rng, **kw)
    return sc, desk.desk_samples(sc, gen, 2, seed)


@pytest.fixture(scope="module")
def long_corridor():
    """The 8-cell corridor (234,375 profiles, past the enumeration cap) with
    three draws at seed 100, and its optimum by the exact evaluator with
    the cap lifted (about 0.6 s)."""
    cfg = desk.corridor_config(8)
    scenario = load_scenario(cfg)
    samples = generate_samples(load_generator(cfg, scenario.n), 3, scenario.T, 100)
    assert validation.profile_count(scenario) > validation.DEFAULT_ENUM_CAP
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(validation, "DEFAULT_ENUM_CAP", 300_000)
        best, result = brute_force_optimum(scenario, samples)
    return scenario, samples, best, result


def test_matches_brute_force_past_the_cap(long_corridor):
    scenario, samples, best, result = long_corridor
    report = run_search(scenario, samples, time_limit=60.0)
    assert report.termination == TERM_ENUMERATED
    assert report.best_u == best.u
    assert report.certificate == result
    assert report.best_value == report.upper_bound == result.value
    assert report.gap == 0.0
    assert 0 <= report.nodes_pruned <= report.nodes_expanded


def test_time_limit_stops_with_best_so_far(long_corridor):
    # The deadline has passed at the first chunk, so the search stops with
    # its seed, the top-of-band profile, as incumbent.
    scenario, samples, _, optimum = long_corridor
    report = run_search(scenario, samples, time_limit=1e-9)
    assert report.termination == TERM_TIME
    assert report.upper_bound >= optimum.value
    assert report.best_u == tuple(band[-1] for band in scenario.bands)
    assert report.best_value <= optimum.value
    profile = scenario.speed_profile(report.best_u)
    own = certificate(scenario, profile, propagate_batch(scenario, profile, samples))
    assert report.certificate == own
    assert report.best_value == own.value
    assert report.gap == (report.upper_bound - own.value) / abs(report.upper_bound)


def test_small_grid_matches_brute_force(monkeypatch):
    # With the cap at 0 every menu takes the budgeted path; a budget the
    # walk does not reach leaves the answer exact.
    monkeypatch.setattr(search, "DEFAULT_ENUM_CAP", 0)
    found = 0
    seed = 100
    while found < 3:
        seed += 1
        sc, samples = build_problem(seed, n=2, T=2, menu_size=2)
        if validation.profile_count(sc) < 2:
            continue
        found += 1
        report = run_search(sc, samples, time_limit=60.0)
        u_star, j_star = desk.reference_optimum(sc, samples)
        assert report.termination == TERM_ENUMERATED
        assert report.best_u == u_star.u
        assert report.best_value == report.certificate.value == j_star


def test_bound_monotonicity_and_sandwich(monkeypatch):
    # A search stopped at once and one that finishes bound the optimum
    # from both sides, and the finished one's bounds are the tighter.
    monkeypatch.setattr(search, "DEFAULT_ENUM_CAP", 0)
    for seed in (7, 9, 13):
        sc, samples = build_problem(seed, n=2, T=2, menu_size=2)
        _, j_star = desk.reference_optimum(sc, samples)
        stopped = run_search(sc, samples, time_limit=1e-9)
        done = run_search(sc, samples, time_limit=60.0)
        assert (stopped.termination, done.termination) == (TERM_TIME, TERM_ENUMERATED)
        assert stopped.best_value <= done.best_value == j_star
        assert j_star == done.upper_bound <= stopped.upper_bound
        assert stopped.gap >= done.gap == 0.0


def test_all_sentinel_search_is_infeasible(monkeypatch):
    rng = np.random.default_rng(23)
    sc, gen = desk.sentinel_scenario(rng, n=2, T=2)
    samples = desk.desk_samples(sc, gen, 2, 0)
    for cap in (validation.DEFAULT_ENUM_CAP, 0):
        monkeypatch.setattr(search, "DEFAULT_ENUM_CAP", cap)
        report = run_search(sc, samples, time_limit=60.0)
        assert report.termination == TERM_ENUMERATED
        assert not report.feasible
        assert report.best_u is None
        assert report.certificate is None
        assert report.best_value == report.upper_bound == -math.inf


def test_small_grid_is_enumerated_exactly():
    # The budget applies past the enumeration cap only: a menu under it is
    # solved exactly however short the budget.
    for seed in (101, 103, 107):
        sc, samples = build_problem(seed, n=2, T=2, menu_size=2)
        report = run_search(sc, samples, time_limit=1e-9)
        u_star, j_star = desk.reference_optimum(sc, samples)
        assert report.termination == TERM_ENUMERATED
        assert report.gap == 0.0
        assert report.iterations == ()
        assert report.best_u == u_star.u
        assert report.best_value == report.upper_bound == j_star


def test_single_candidate_exhausts_in_one_round(monkeypatch):
    # A one-profile menu is proved optimal by its single leaf, on both
    # sides of the enumeration cap.
    sc, samples = build_problem(1, n=1, T=2, menu_size=1)
    assert validation.profile_count(sc) == 1
    only = tuple(band[0] for band in sc.bands)
    profile = sc.speed_profile(only)
    own = certificate(sc, profile, propagate_batch(sc, profile, samples))
    for cap in (validation.DEFAULT_ENUM_CAP, 0):
        monkeypatch.setattr(search, "DEFAULT_ENUM_CAP", cap)
        report = run_search(sc, samples, time_limit=60.0)
        assert report.termination == TERM_ENUMERATED
        assert report.iterations == ()
        assert report.feasible
        assert report.best_u == only
        assert report.certificate == own
        assert report.best_value == report.upper_bound == own.value


def test_gap_termination_reports_closed_gap(monkeypatch):
    # A search that finishes reports its gap closed; one stopped by the
    # budget reports the distance to the root's bound.
    monkeypatch.setattr(search, "DEFAULT_ENUM_CAP", 0)
    problem = build_problem(29, n=1, T=2, menu_size=2)
    done = run_search(*problem, time_limit=60.0)
    assert done.termination == TERM_ENUMERATED
    assert done.gap == 0.0
    assert done.upper_bound == done.best_value
    stopped = run_search(*problem, time_limit=1e-9)
    assert stopped.termination == TERM_TIME
    assert stopped.gap == ((stopped.upper_bound - stopped.best_value)
                           / max(1.0, abs(stopped.upper_bound)))
    assert stopped.gap >= 0.0


def test_time_limit_validation():
    # checked before the menu is sized, so an enumerated menu rejects a
    # bad budget too
    problem = build_problem(37, n=1, T=1, menu_size=1)
    for budget in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="finite and positive"):
            run_search(*problem, time_limit=budget)


def test_report_certificate_matches_best():
    problem = build_problem(41, n=2, T=2, menu_size=2)
    report = run_search(*problem)
    assert report.feasible
    assert report.certificate is not None
    assert report.best_value == report.certificate.value
    assert report.wall >= 0.0


def test_search_problem_validates_shapes():
    # Moved from the LP-oracle tests with its scenario-and-samples check.
    sc, _ = build_problem(89, n=2, T=2)
    _, other = build_problem(97, n=1, T=2)
    with pytest.raises(ValueError):
        run_search(sc, other)
    # a longer draw is truncated to the scenario's T, a shorter one refused
    _, longer = build_problem(89, n=2, T=4)
    _, shorter = build_problem(89, n=2, T=1)
    report = run_search(sc, longer)
    truncated = run_search(sc, SampleSet(longer.rho0, longer.omega[..., :sc.T]))
    assert (report.best_u, report.certificate) == (truncated.best_u,
                                                   truncated.certificate)
    with pytest.raises(ValueError, match="shorter"):
        run_search(sc, shorter)
    with pytest.raises(ValueError, match="epsilon"):
        dataclasses.replace(sc, epsilon=-0.5)
