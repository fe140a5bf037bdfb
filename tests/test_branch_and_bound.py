"""The branch-and-bound solver against the exact evaluator, and its bound
against the exact value of every completion."""

import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import desk
from oracles import box_distance
from vslcert.certificate import certificate
from vslcert.errors import InfeasibleScenarioError
from vslcert.network import load_scenario, read_config
from vslcert.sampling import (
    SampleSet,
    generate_samples,
    load_generator,
    propagate_batch,
)
from vslcert import search
from vslcert.search import BLOCK_ELEMENTS, TERM_ENUMERATED, PrefixTree, run_search
from vslcert.validation import brute_force_optimum

HIGHWAY = Path(__file__).parent / "data" / "highway5.json"


def corridor(seed, omega1=None):
    if omega1 is None:
        cfg = read_config(HIGHWAY)
        scenario = load_scenario(cfg)
        gen = load_generator(cfg, scenario.n)
    else:
        scenario, gen = desk.vi_scenario(omega1=omega1)
    return scenario, generate_samples(gen, 3, scenario.T, seed)


def all_values(scenario, samples):
    """Every profile's certified value, in product order, from the walk's
    per-leaf values."""
    return desk.leaf_values(scenario, samples)


def assert_matches_enumeration(scenario, samples, blocks=(BLOCK_ELEMENTS,)):
    """The branch-and-bound returns brute_force_optimum's profile and
    certificate under every block size in blocks, and none exactly when
    every profile is the sentinel."""
    try:
        expected = brute_force_optimum(scenario, samples)
    except InfeasibleScenarioError:
        expected = None, None
    best_u = None if expected[0] is None else expected[0].u
    for block in blocks:
        report = solve_with_block(scenario, samples, block)
        assert report.termination == TERM_ENUMERATED, block
        assert (report.best_u, report.certificate) == (best_u, expected[1]), block
        assert 0 <= report.nodes_pruned <= report.nodes_expanded
    if expected[0] is None:
        assert (all_values(scenario, samples) == -math.inf).all()
    else:
        assert math.isfinite(expected[1].value)
    return expected


def solve_with_block(scenario, samples, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "BLOCK_ELEMENTS", block)
        return run_search(scenario, samples)


def every_block(scenario, samples):
    """Block sizes for one cell per level (0), the default, the root's
    children expanded to their leaves in one level with the seed as
    incumbent (just under the whole tree's trajectory elements, steps
    0..T), and the whole tree in one level, unmeasured."""
    whole = (math.prod(map(len, scenario.bands)) * samples.count
             * scenario.n * (scenario.T + 1))
    return (0, BLOCK_ELEMENTS, whole - 1, whole)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
def test_matches_enumeration_on_random_desks(seed, count, sentinel):
    rng = np.random.default_rng(seed)
    make = desk.sentinel_scenario if sentinel else desk.random_scenario
    scenario, gen = make(rng)
    samples = desk.desk_samples(scenario, gen, count, seed)
    assert_matches_enumeration(scenario, samples, every_block(scenario, samples))


def test_matches_enumeration_on_corridor():
    for seed in range(100, 120):
        best, _ = assert_matches_enumeration(*corridor(seed))
        assert best is not None


def test_matches_enumeration_on_hot_corridor():
    # A heavy boundary inflow empties most ambiguity sets: seed 0 leaves no
    # finite profile, seeds 1 and 2 only a few.
    finite = []
    for seed in range(3):
        scenario, samples = corridor(seed, omega1=(2.8e4, 3.0e4))
        best, _ = assert_matches_enumeration(scenario, samples)
        finite.append(best is not None)
    assert finite == [False, True, True]


def test_exact_tie_goes_to_the_first_profile():
    # desk_9010 of the benchmark: its three profiles are all worth 0.0.
    rng = np.random.default_rng(9010)
    scenario, gen = desk.random_scenario(rng)
    count = int(rng.integers(1, 4))
    for seed in (0, 1):
        samples = desk.desk_samples(scenario, gen, count, seed)
        assert list(all_values(scenario, samples)) == [0.0, 0.0, 0.0]
        best, result = assert_matches_enumeration(scenario, samples,
                                                  every_block(scenario, samples))
        assert best.u == tuple(band[0] for band in scenario.bands)
        assert result.value == 0.0


def test_flat_dual_ties_to_the_smallest_scale():
    # Densities below zero put every anchor at 0 (no mass), and a radius
    # equal to the box distance makes the dual objective 0 at every scale.
    scenario, gen = desk.random_scenario(np.random.default_rng(11), menu_size=1)
    drawn = desk.desk_samples(scenario, gen, 2, 0)
    samples = SampleSet(-1.0 - np.abs(drawn.rho0), -1.0 - np.abs(drawn.omega))
    profile = scenario.speed_profile([band[0] for band in scenario.bands])
    batch = propagate_batch(scenario, profile, samples)
    scenario = dataclasses.replace(scenario,
                                   epsilon=box_distance(scenario, profile, batch))
    best, result = assert_matches_enumeration(scenario, samples,
                                              every_block(scenario, samples))
    assert len(result.table) > 1
    assert {value for _, value in result.table} == {0.0}
    assert result.lambda_star == 0.0


def test_all_sentinel_menu_gives_none():
    for seed in (3, 5):
        scenario, gen = desk.sentinel_scenario(np.random.default_rng(seed), n=2, T=2)
        samples = desk.desk_samples(scenario, gen, 2, seed)
        for block in every_block(scenario, samples):
            report = solve_with_block(scenario, samples, block)
            assert report.termination == TERM_ENUMERATED
            assert (report.best_u, report.certificate) == (None, None)


def test_prefix_bound_holds_on_every_completion():
    # The oracle is the value of every whole profile, each equal to its own
    # certificate's (test_leaf_values_equal_certificates), not the
    # solver's answer: no prefix's bound may fall below a completion's
    # value, and a prefix farther than the radius from its box has only
    # sentinel completions.
    beyond = 0
    for seed in range(3):
        scenario, samples = corridor(seed)
        values = all_values(scenario, samples)
        tree = PrefixTree(scenario, samples)
        prefixes = tree.root()
        for e in range(scenario.n):
            prefixes, propagated = tree.children(prefixes)
            assert propagated == prefixes.size == math.prod(map(len, scenario.bands[:e + 1]))
            completions = values.reshape(prefixes.size, -1)
            assert (tree.bound(prefixes) >= completions.max(axis=1)).all()
            far = prefixes.dist > scenario.epsilon
            assert (completions[far] == -math.inf).all()
            beyond += int(far.sum())
    assert beyond > 0


def test_leaf_values_equal_certificates():
    # Every corridor profile scored as a leaf of the prefix tree has the
    # value bits of its own certificate, and so does the sentinel.
    for seed in range(3):
        scenario, samples = corridor(seed)
        values = all_values(scenario, samples)
        for combo, value in zip(itertools.product(*scenario.bands), values):
            profile = scenario.speed_profile(combo)
            own = certificate(scenario, profile,
                              propagate_batch(scenario, profile, samples))
            assert value == own.value, combo
