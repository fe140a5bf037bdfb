import itertools
import math
import warnings

import numpy as np
import pytest

import desk
from vslcert.errors import InfeasibleScenarioError, NumericalError
from vslcert.linearize import SearchProblem, assignment_of
from vslcert.search import (
    TERM_EXHAUSTED,
    TERM_GAP,
    TERM_TIME,
    run_search,
)
from vslcert.validation import brute_force_optimum


def build_problem(seed, **kw):
    rng = np.random.default_rng(seed)
    sc, gen = desk.random_scenario(rng, **kw)
    samples = desk.desk_samples(sc, gen, 2, seed)
    return SearchProblem(sc, samples)


def assignment_count(scenario):
    return int(np.prod([len(b) for b in scenario.bands]))


def test_single_candidate_exhausts_in_one_round():
    problem = build_problem(1, n=1, T=2, menu_size=1)
    report = run_search(problem)
    assert report.termination in (TERM_GAP, TERM_EXHAUSTED)
    assert len(report.iterations) == 1
    assert report.feasible
    rec = report.iterations[0]
    assert report.best_u == rec.u
    assert report.best_value == pytest.approx(rec.certificate_value, rel=1e-9)


def test_small_grid_matches_brute_force():
    found = 0
    seed = 100
    while found < 3:
        seed += 1
        problem = build_problem(seed, n=2, T=2, menu_size=2)
        if assignment_count(problem.scenario) < 2:
            continue
        found += 1
        report = run_search(problem)
        u_star, j_star = brute_force_optimum(problem.scenario, problem.samples)
        assert report.feasible
        assert report.best_value == pytest.approx(j_star, rel=1e-6)
        # near-ties may pick another profile; its exact value must still
        # match the enumerated optimum
        assert report.certificate.value == pytest.approx(j_star, rel=1e-6)
        assert len(report.iterations) <= assignment_count(problem.scenario)


def test_bound_monotonicity_and_sandwich():
    for seed in (7, 9):
        problem = build_problem(seed, n=2, T=2, menu_size=2)
        report = run_search(problem)
        ubs = [r.ub for r in report.iterations]
        lbs = [r.lb for r in report.iterations]
        assert all(a >= b - 1e-9 for a, b in zip(ubs, ubs[1:]))
        assert all(a <= b + 1e-9 for a, b in zip(lbs, lbs[1:]))
        for r in report.iterations:
            assert r.ub >= r.lb - 1e-9
            # upper solves dominate every exact candidate value
            assert r.ub >= r.certificate_value - 1e-9


def test_no_assignment_repeats():
    problem = build_problem(13, n=2, T=2, menu_size=2)
    report = run_search(problem)
    seen = [r.assignment for r in report.iterations]
    assert len(seen) == len(set(seen))


def test_repeated_candidate_raises(monkeypatch):
    """A solver answer already visited aborts the search with its report."""
    problem = build_problem(13, n=2, T=2, menu_size=2)
    if assignment_count(problem.scenario) < 2:
        pytest.skip("needs a second round")
    first = []

    def stuck(upper, solution):
        first.append(assignment_of(upper, solution))
        return first[0]

    monkeypatch.setattr("vslcert.search.assignment_of", stuck)
    with pytest.raises(NumericalError, match="already visited") as info:
        run_search(problem, gap_eps=1e-12)
    report = info.value.report
    assert report.termination == "aborted"
    assert [r.assignment for r in report.iterations] == [first[0]]


def test_all_sentinel_search_is_infeasible():
    rng = np.random.default_rng(23)
    sc, gen = desk.sentinel_scenario(rng, n=2, T=2)
    samples = desk.desk_samples(sc, gen, 2, 0)
    problem = SearchProblem(sc, samples)
    report = run_search(problem)
    assert report.termination == TERM_EXHAUSTED
    assert not report.feasible
    assert report.best_u is None
    assert report.best_value == -math.inf
    assert all(r.certificate_value == -math.inf for r in report.iterations)


def test_gap_termination_reports_closed_gap():
    problem = build_problem(29, n=1, T=2, menu_size=2)
    report = run_search(problem, gap_eps=1e9)
    # an absurdly loose tolerance stops at the first finite candidate
    assert report.termination == TERM_GAP
    assert len(report.iterations) == 1
    assert report.gap <= 1e9


def test_time_limit_stops_with_best_so_far():
    problem = build_problem(31, n=2, T=2, menu_size=2)
    if assignment_count(problem.scenario) < 3:
        pytest.skip("needs a few candidates")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = run_search(problem, time_limit=1e-9)
    # the budget expires immediately, yet a finite candidate must exist
    # before the loop is allowed to stop
    assert report.termination == TERM_TIME
    assert report.feasible
    assert len(report.iterations) >= 1


def test_gap_eps_validation():
    problem = build_problem(37, n=1, T=1, menu_size=1)
    with pytest.raises(ValueError):
        run_search(problem, gap_eps=0.0)


def test_report_certificate_matches_best():
    problem = build_problem(41, n=2, T=2, menu_size=2)
    report = run_search(problem)
    assert report.feasible
    assert report.certificate is not None
    assert report.best_value == report.certificate.value
    assert report.wall >= 0.0
