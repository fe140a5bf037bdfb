import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import desk
from oracles import box_distance, component_min
from vslcert.certificate import (
    STATUS_EMPTY,
    STATUS_FINITE,
    PairwiseSum,
    add_cells,
    add_sums,
    average_flow,
    box_terms,
    certificate,
    flow_weights,
)
from vslcert.network import HighwayScenario, SegmentParams, critical_density
from vslcert.sampling import SampleSet, TrajectoryBatch, propagate_batch


def grid_certificate(scenario, profile, batch, epsilon, step=1e-4):
    """Slow reference: scan a dense lambda grid instead of breakpoints.

    Written against the defining formula only, as a check that the
    breakpoint scan is exact.
    """
    a = profile.as_array() / scenario.T
    caps = scenario.critical_densities(profile)
    r = np.asarray(batch.rho)
    N = r.shape[0]
    top = 2.0 * a.max()
    lams = np.arange(0.0, top + step, step)
    best_val, best_lam = -math.inf, math.inf
    for lam in lams:
        total = 0.0
        for l in range(N):
            for e in range(scenario.n):
                for t in range(scenario.T):
                    rv = r[l, e, t]
                    anchor = min(max(rv, 0.0), caps[e])
                    inner = min(lam * abs(rv - 0.0),
                                lam * abs(rv - anchor) + a[e] * anchor)
                    total += inner
        val = total / N - lam * epsilon
        if val > best_val + 1e-15:
            best_val, best_lam = val, lam
    return best_val, best_lam


def tiny_instance():
    """One edge, one step; the certificate is 1.5 attained at scale 2."""
    seg = SegmentParams(f_bar=10.0, rho_bar=10.0, u_bar=5.0, f_U=10.0, rho_U=10.0)
    sc = HighwayScenario(n=1, L=1.0, delta=0.1, T=1, segments=(seg,),
                         gamma=(2.0,), jam_margin=1.0, epsilon=0.25)
    prof = sc.speed_profile([2.0])
    samples = SampleSet(np.array([[1.0]]), np.array([[[2.0]]]))
    batch = propagate_batch(sc, prof, samples)
    return sc, prof, batch


def test_hand_worked_value():
    sc, prof, batch = tiny_instance()
    assert batch.rho[0, 0, 0] == pytest.approx(1.0)
    res = certificate(sc, prof, batch)
    assert res.status == STATUS_FINITE
    assert res.value == pytest.approx(1.5, rel=1e-12)
    assert res.lambda_star == pytest.approx(2.0)


def test_component_min_candidates():
    # inside the box the anchor is the sample itself
    assert component_min(a=2.0, cap=3.0, r=1.0, lam=5.0) == pytest.approx(2.0)
    # with a cheap scale, dropping to zero wins
    assert component_min(a=2.0, cap=3.0, r=1.0, lam=0.5) == pytest.approx(0.5)
    # outside the box the anchor clamps to the cap
    v = component_min(a=1.0, cap=2.0, r=5.0, lam=0.3)
    assert v == pytest.approx(min(0.3 * 5, 0.3 * 3 + 2.0))


def test_zero_radius_returns_mean_objective():
    rng = np.random.default_rng(2)
    for i in range(10):
        sc, gen = desk.random_scenario(rng)
        samples = desk.desk_samples(sc, gen, 3, i)
        prof = sc.speed_profile([b[-1] for b in sc.bands])
        batch = propagate_batch(sc, prof, samples)
        if box_distance(sc, prof, batch) > 0:
            continue
        res = certificate(dataclasses.replace(sc, epsilon=0.0), prof, batch)
        mean_h = np.mean([average_flow(prof, batch.rho[l])
                          for l in range(batch.count)])
        assert res.value == pytest.approx(float(mean_h), rel=1e-9)


def test_huge_radius_collapses_to_zero():
    sc, prof, batch = tiny_instance()
    res = certificate(dataclasses.replace(sc, epsilon=1e9), prof, batch)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.lambda_star == 0.0


def test_value_is_nonincreasing_in_the_radius():
    rng = np.random.default_rng(6)
    sc, gen = desk.random_scenario(rng, n=2, T=3)
    prof = sc.speed_profile([b[0] for b in sc.bands])
    batch = propagate_batch(sc, prof, desk.desk_samples(sc, gen, 3, 0))
    radii = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0]
    values = [certificate(dataclasses.replace(sc, epsilon=e), prof, batch).value
              for e in radii]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_breakpoint_scan_matches_dense_grid():
    # grid speeds snapped so the breakpoints u_e / T land on the grid
    rng = np.random.default_rng(14)
    for i in range(10):
        sc, gen = desk.random_scenario(rng, n=2, T=2, gamma_step=2e-2 * 2)
        prof = sc.speed_profile([b[0] for b in sc.bands])
        batch = propagate_batch(sc, prof, desk.desk_samples(sc, gen, 2, i))
        res = certificate(sc, prof, batch)
        ref, _ = grid_certificate(sc, prof, batch, sc.epsilon, step=1e-2)
        assert res.value >= ref - 1e-12
        assert res.value == pytest.approx(ref, abs=1e-6)


def test_empty_ambiguity_sentinel():
    rng = np.random.default_rng(21)
    sc, gen = desk.sentinel_scenario(rng)
    samples = desk.desk_samples(sc, gen, 2, 0)
    for combo in itertools.product(*sc.bands):
        prof = sc.speed_profile(combo)
        batch = propagate_batch(sc, prof, samples)
        res = certificate(sc, prof, batch)
        assert res.status == STATUS_EMPTY
        assert res.value == -math.inf
        assert res.lambda_star == math.inf
        assert not res.finite


def test_radius_exactly_at_distance_is_finite():
    sc, prof, batch = tiny_instance()
    d = box_distance(sc, prof, batch)
    res = certificate(dataclasses.replace(sc, epsilon=d), prof, batch)
    assert res.status == STATUS_FINITE


def test_tie_breaks_to_smallest_scale():
    # with radius equal to the sample value both breakpoints give zero
    sc, prof, batch = tiny_instance()
    res = certificate(dataclasses.replace(sc, epsilon=1.0), prof, batch)
    assert res.value == pytest.approx(0.0, abs=1e-15)
    assert res.lambda_star == 0.0


def test_flow_weights_shape():
    sc, prof, _ = tiny_instance()
    assert flow_weights(sc, prof) == pytest.approx([2.0])


def test_rejects_mismatched_batch():
    sc, prof, batch = tiny_instance()
    other = TrajectoryBatch(rho=batch.rho, u=(999.0,))
    with pytest.raises(ValueError):
        certificate(sc, prof, other)
    with pytest.raises(ValueError, match="epsilon"):
        dataclasses.replace(sc, epsilon=-1.0)


def test_scan_table_covers_breakpoints():
    sc, prof, batch = tiny_instance()
    res = certificate(sc, prof, batch)
    lams = [row[0] for row in res.table]
    assert lams == [0.0, 2.0]
    assert max(v for _, v in res.table) == res.value


@st.composite
def regime_menus(draw):
    """A desk scenario and N draws whose trajectories under the profile
    of each band's slowest speed lie below 0, inside [0, cap] or above cap,
    component by component (each step's inflow steers the recursion to a
    drawn target), with a radius that is zero, exactly one profile's box
    distance, or any value up to past the largest."""
    seed = draw(st.integers(0, 2**32 - 1))
    sc, _ = desk.random_scenario(np.random.default_rng(seed),
                                 T=draw(st.integers(1, 3)))
    N = draw(st.integers(1, 3))
    shape = (N, sc.n, sc.T + 1)
    size = math.prod(shape)
    regime = np.array(draw(st.lists(st.sampled_from((-1, 0, 1)),
                                    min_size=size, max_size=size))).reshape(shape)
    frac = np.array(draw(st.lists(st.floats(0.0, 1.0),
                                  min_size=size, max_size=size))).reshape(shape)
    slowest = sc.speed_profile([band[0] for band in sc.bands])
    caps = sc.critical_densities(slowest)[:, None]
    target = np.where(regime < 0, -frac * caps,
                      np.where(regime > 0, caps * (1.0 + frac), frac * caps))
    flow = slowest.as_array()[:, None] * target[..., :-1]
    inflow = np.zeros_like(flow)
    inflow[:, 1:] = flow[:, :-1]
    omega = (target[..., 1:] - target[..., :-1]) / sc.h - inflow + flow
    samples = SampleSet(target[..., 0], omega)
    dists = [box_distance(sc, p, propagate_batch(sc, p, samples))
             for p in map(sc.speed_profile, itertools.product(*sc.bands))]
    epsilon = draw(st.one_of(st.just(0.0), st.sampled_from(dists),
                             st.floats(0.0, 2.0 * max(dists) + 1.0)))
    return dataclasses.replace(sc, epsilon=epsilon), samples


@settings(deadline=None)
@given(regime_menus())
def test_menu_values_closed_form_matches_component_sums(menu):
    sc, samples = menu
    values = desk.leaf_values(sc, samples)
    for combo, value in zip(itertools.product(*sc.bands), values):
        # The walk's leaf gives each profile its own value bit for bit.
        profile = sc.speed_profile(combo)
        batch = propagate_batch(sc, profile, samples)
        cert = certificate(sc, profile, batch)
        if box_distance(sc, profile, batch) > sc.epsilon:
            assert cert.status == STATUS_EMPTY
            assert value == -math.inf
            continue
        assert value == cert.value
        r = batch.rho
        a = profile.as_array() / sc.T
        caps = sc.critical_densities(profile)
        ref = max(
            sum(component_min(a[e], caps[e], r[l, e, t], lam)
                for l, e, t in np.ndindex(r.shape)) / r.shape[0]
            - lam * sc.epsilon
            for lam in np.concatenate(([0.0], a))
        )
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))


def test_walk_step_sum_keeps_numpys_pairwise_order():
    # The unpruned walk adds each step's terms as it propagates
    # (PairwiseSum); add_cells sums whole rows with numpy. Both give every
    # value's bits, so both must add a row as numpy's float64 sum does:
    # in order below 8 steps, in 8 lanes, a fixed tree and the tail up to
    # 128, split in two past that. Rows hold exact and negative zeros and
    # magnitudes from 1e-3 to 1e5; the cap of 10 gives both anchors and
    # box distances.
    rng = np.random.default_rng(0)
    rows = 1000
    for T in range(1, 301):
        x = 10.0 ** rng.uniform(-3.0, 5.0, size=(rows, T))
        x[rng.random(x.shape) < 0.2] = 0.0
        x[0] = -0.0
        x[1, ::3] = -0.0
        terms = box_terms(x, 10.0, np.empty((2, rows, T)))
        walk = []
        for rowset in (x, terms):
            acc = PairwiseSum(T, rowset.shape[:-1])
            for t in range(T):
                acc.slot()[...] = rowset[..., t]
                acc.add()
            walk.append(acc.total())
        # At one draw and flow weight 1 the running sums are the step sums.
        partial, dist = add_cells(np.zeros((rows, 1)), np.zeros(rows), np.ones(1),
                                  np.ones(1), 10.0, x[:, None, None, :])
        order = f"{T} steps are not added in numpy {np.__version__}'s order"
        assert walk[0].tobytes() == x.sum(axis=-1).tobytes(), order
        assert walk[1].tobytes() == terms.sum(axis=-1).tobytes(), order
        assert walk[1].tobytes() == np.stack((partial[:, 0], dist)).tobytes(), order


def cumulative_add_sums(partial, dist, lams, a, sums):
    """add_sums as two cumulative sums over the cells, the first cell's
    terms plus the running sums first: the reference for its loop."""
    mass, cell_dist = sums.cumsum(axis=-2)[..., -1, :] / sums.shape[-2]
    terms = np.minimum(lams, a[..., None]) * mass[..., None]
    terms[..., 0, :] += partial
    cell_dist[..., 0] += dist
    return terms.cumsum(axis=-2)[..., -1, :], cell_dist.cumsum(axis=-1)[..., -1]


@pytest.mark.parametrize("cells", [1, 2, 3, 4])
def test_add_sums_adds_cells_in_cumulative_order(cells):
    # The running sums of 6 prefixes, each with 3 children of c cells at 2
    # draws, drawn from signed zeros, infinities, values near the float
    # maximum and ordinary magnitudes of both signs: the cell loop must give
    # the bits of the cumulative sums, nan and overflow included.
    rng = np.random.default_rng(cells)
    special = np.array([0.0, -0.0, math.inf, -math.inf, 1.7e308, -1.7e308,
                        np.finfo(float).max, 5e-324])

    def draw(shape):
        x = rng.uniform(-1e3, 1e3, size=shape)
        pick = rng.random(shape) < 0.4
        x[pick] = rng.choice(special, size=pick.sum())
        return x

    lams = np.array([0.0, 0.5, 1.0, 2.0])
    args = (draw((6, 1, 4)), draw((6, 1)), lams,
            rng.choice([0.5, 1.0, 2.0], size=(3, cells)), draw((2, 6, 3, 2, cells)))
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = add_sums(*args), cumulative_add_sums(*args)
    assert np.isnan(got[0]).any() and np.isinf(got[1]).any()
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()
