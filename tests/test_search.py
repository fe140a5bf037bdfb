import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import desk
from vslcert import search, validation
from vslcert.certificate import certificate
from vslcert.errors import DisturbanceOverflowError, InfeasibleScenarioError
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


def test_stopped_bound_shrinks_as_the_walk_goes_on(monkeypatch):
    # The ten-cell corridor (5,859,375 profiles) stopped after k chunks: the
    # clock reads the start for the first k deadline checks and an hour
    # later from then on, so no run depends on the machine's speed. The
    # upper bound lies between the optimum of a full walk and the root's
    # bound, and falls below the root's once the walk has left the root.
    cfg = desk.corridor_config(10)
    scenario = load_scenario(cfg)
    samples = generate_samples(load_generator(cfg, scenario.n), 3, scenario.T, 100)
    optimum = run_search(scenario, samples)
    assert optimum.termination == TERM_ENUMERATED
    root = search.PrefixTree(scenario, samples).tail[0].max()
    uppers = []
    for k in (0, 1, 2, 5, 50):
        calls = iter(range(k + 1))
        monkeypatch.setattr("vslcert.search.time.monotonic",
                            lambda: 0.0 if next(calls, None) is not None else 3600.0)
        report = run_search(scenario, samples, time_limit=60.0)
        monkeypatch.undo()
        assert report.termination == TERM_TIME
        assert report.best_value <= optimum.best_value <= report.upper_bound <= root
        uppers.append(report.upper_bound)
    assert uppers[0] == root
    assert uppers[-1] < uppers[1] < root


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
    # budget at once reports the distance to the root's bound.
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


def corridor_samples(cfg, count, seed):
    scenario = load_scenario(cfg)
    return scenario, generate_samples(load_generator(cfg, scenario.n), count,
                                      scenario.T, seed)


def expansion_sizes(scenario, samples, flat=True):
    """(ENUM_CHUNK_ELEMENTS, BLOCK_ELEMENTS) that force each expansion of
    the unpruned walk: one level at a time (chunks of one prefix, whose
    prefixes below never fit), every level below the root in one time
    loop, one level and then every level below each child in one loop
    (the root's prefixes below, each counted once, just do not fit), and,
    if flat, the whole tree flat, in one level."""
    nodes = sum(itertools.accumulate(map(len, scenario.bands), lambda a, b: a * b))
    below_root = nodes * samples.count * (scenario.T + 1)
    sizes = {"level": (1, 0), "root": (1 << 62, 0), "level-then-loop": (below_root - 1, 0)}
    if flat:
        sizes["flat"] = (1 << 62, 1 << 62)
    return sizes


def walk_with(scenario, samples, chunk, block):
    """brute_force_optimum under the sizes (chunk, block), the report of
    its walk, and the method and depth of each expansion the walk made."""
    calls, reports = [], []
    children, leaves = search.PrefixTree.children, search.PrefixTree.leaves

    def record(method, name):
        def wrapped(tree, parents, *args, **kwargs):
            calls.append((name, parents.length))
            return method(tree, parents, *args, **kwargs)
        return wrapped

    def walk(*args, **kwargs):
        reports.append(run_search(*args, **kwargs))
        return reports[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "ENUM_CHUNK_ELEMENTS", chunk)
        patch.setattr(search, "BLOCK_ELEMENTS", block)
        patch.setattr(search.PrefixTree, "children", record(children, "children"))
        patch.setattr(search.PrefixTree, "leaves", record(leaves, "leaves"))
        patch.setattr(validation, "run_search", walk)
        try:
            optimum = brute_force_optimum(scenario, samples)
        except InfeasibleScenarioError:
            optimum = None
    return optimum, reports[0], calls


def assert_walks_score_like_one_level(scenario, samples, flat=True):
    """Every leaf's value from one loop below the root, and under every
    expansion the winner, its value and the tree's scan table, are those
    of the per-leaf values of the one-level walk."""
    values = desk.leaf_values(scenario, samples)
    tree = search.PrefixTree(scenario, samples)
    leaves, _ = tree.leaves(tree.root())
    assert tree.values(leaves)[1].tobytes() == values.tobytes()
    k = int(values.argmax())
    paths = {}
    for case, (chunk, block) in expansion_sizes(scenario, samples, flat).items():
        optimum, report, paths[case] = walk_with(scenario, samples, chunk, block)
        if values[k] == -math.inf:
            assert optimum is None and report.best_u is None, case
            continue
        best = scenario.speed_profile(next(itertools.islice(
            itertools.product(*scenario.bands), k, None)))
        own = certificate(scenario, best, propagate_batch(scenario, best, samples))
        assert optimum == (best, own), case
        assert report.best_u == best.u, case
        assert report.best_value == values[k] == own.value, case
        assert report.certificate == own, case
    return paths


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
def test_every_expansion_scores_like_one_level_on_random_desks(seed, count, sentinel):
    rng = np.random.default_rng(seed)
    make = desk.sentinel_scenario if sentinel else desk.random_scenario
    scenario, gen = make(rng)
    assert_walks_score_like_one_level(
        scenario, desk.desk_samples(scenario, gen, count, seed))


@pytest.mark.parametrize("count", [3, 30])
def test_every_expansion_scores_like_one_level_on_corridor(count):
    # 9,375 profiles. The whole tree flat holds every leaf's six cells at
    # once, about 1 GB at 30 draws, so that case runs at 3 draws only.
    scenario, samples = corridor_samples(desk.corridor_config(6), count, 100)
    paths = assert_walks_score_like_one_level(scenario, samples, flat=count == 3)
    # Depth first, one prefix per chunk: one expansion per internal node.
    assert sorted(paths["level"]) == [
        ("children", e) for e in range(scenario.n)
        for _ in range(math.prod(map(len, scenario.bands[:e])))]
    assert paths["root"] == [("leaves", 0)]
    assert paths["level-then-loop"] == [("children", 0), ("leaves", 1)]
    assert paths.get("flat", [("children", 0)]) == [("children", 0)]


@pytest.mark.parametrize("T, count", [(7, 3), (8, 1), (9, 2), (129, 3), (200, 2)])
def test_every_expansion_scores_like_one_level_on_long_horizons(T, count):
    # One time loop adds each prefix's step sums in numpy's pairwise order
    # as it propagates: in order below 8 steps, in 8 lanes and a tail up
    # to 128, in two such blocks past that. The paper's corridor with the
    # speeds 80, 100 and 120 (81 profiles) over T steps.
    cfg = desk.corridor_config(5)
    cfg["T"], cfg["gamma"] = T, [80, 100, 120]
    scenario, samples = corridor_samples(cfg, count, 100)
    assert_walks_score_like_one_level(scenario, samples)


@pytest.mark.parametrize("omega", [1e306, 1e308])
def test_overflowing_one_loop_walk_raises(omega):
    # The one-loop walk keeps no trajectory, only each state's running
    # extremes: they must still find states whose flows leave the float
    # range (1e306) and states that overflow to inf and then nan (1e308).
    scenario, samples = corridor_samples(desk.corridor_config(5), 2, 0)
    blast = SampleSet(samples.rho0, np.full_like(samples.omega, omega))
    tree = search.PrefixTree(scenario, blast)
    with pytest.raises(DisturbanceOverflowError, match="overflow"):
        tree.leaves(tree.root())


def test_unpruned_corridor_walk_is_one_time_loop(monkeypatch):
    # The paper's corridor: every prefix below the root fits one chunk, so
    # the walk propagates its 2,405 prefixes in one loop and makes no
    # one-level expansion (which ran seven loops).
    scenario, samples = corridor_samples(desk.corridor_config(5), 3, 0)
    calls = {"leaves": 0, "propagate_cells": 0}

    def counted(name, function):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(search.PrefixTree, "leaves",
                        counted("leaves", search.PrefixTree.leaves))
    monkeypatch.setattr(search, "propagate_cells",
                        counted("propagate_cells", search.propagate_cells))
    for _ in range(2):
        report = run_search(scenario, samples, prune=False)
        assert report.nodes_expanded == 2405
    assert calls == {"leaves": 2, "propagate_cells": 0}


def traced_peak(function, *args):
    """The peak of memory traced while function runs, after one warm-up
    call."""
    function(*args)
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cells, seed, bound", [
    # The paper's corridor (corridor_config(5) is data/highway5.json): one
    # loop over its 2,405 prefixes, whose step sums take eight (2, 2,405, N)
    # lanes; 1.84 MiB at one level per loop.
    pytest.param(5, 0, 2.2 * 2**20, id="corridor"),
    # 46,875 profiles: 10% above the 2.37 MiB the one-level walk takes.
    pytest.param(7, 100, 1.1 * 2.37 * 2**20, id="seven-cells"),
])
def test_brute_force_memory_is_bounded(cells, seed, bound):
    scenario, samples = corridor_samples(desk.corridor_config(cells), 3, seed)
    assert traced_peak(brute_force_optimum, scenario, samples) <= bound
