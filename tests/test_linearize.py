import itertools

import numpy as np
import pytest

import desk
from oracles import box_support, box_support_lp, build_lower
from vslcert.certificate import STATUS_EMPTY, certificate
from vslcert.lpsolve import OPTIMAL, UNBOUNDED, solve_lp
from vslcert.sampling import propagate_batch


def small_problem(seed, n=2, T=2, menu_size=2, count=2):
    rng = np.random.default_rng(seed)
    sc, gen = desk.random_scenario(rng, n=n, T=T, menu_size=menu_size)
    return sc, desk.desk_samples(sc, gen, count, seed)


def admissible_assignments(scenario):
    menu = scenario.gamma
    out = []
    for combo in itertools.product(*scenario.bands):
        out.append(tuple(menu.index(g) for g in combo))
    return out


def test_lower_model_block_counts():
    sc, samples = small_problem(7, n=2, T=3, menu_size=2, count=2)
    n, T, N = sc.n, sc.T, samples.count
    combo = admissible_assignments(sc)[0]
    profile = sc.speed_profile([sc.gamma[i] for i in combo])
    model = build_lower(sc, samples, profile, propagate_batch(sc, profile, samples))
    assert model.block_rows == {"dual_feas": N * n * T,
                                "norm_cap": 2 * N * n * T}
    assert model.nvars == 1 + 2 * N * n * T


def test_lower_model_matches_certificate():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 8:
        sc, gen = desk.random_scenario(rng)
        samples = desk.desk_samples(sc, gen, 2, checked)
        combo = admissible_assignments(sc)[0]
        profile = sc.speed_profile([sc.gamma[i] for i in combo])
        batch = propagate_batch(sc, profile, samples)
        ref = certificate(sc, profile, batch)
        sol = solve_lp(build_lower(sc, samples, profile, batch))
        if ref.finite:
            assert sol.status == OPTIMAL
            assert sol.objective == pytest.approx(ref.value, rel=1e-6, abs=1e-9)
        else:
            assert sol.status == UNBOUNDED
        checked += 1


def test_lower_model_unbounded_on_empty_ambiguity():
    rng = np.random.default_rng(41)
    sc, gen = desk.sentinel_scenario(rng)
    samples = desk.desk_samples(sc, gen, 2, 0)
    combo = admissible_assignments(sc)[0]
    profile = sc.speed_profile([sc.gamma[i] for i in combo])
    batch = propagate_batch(sc, profile, samples)
    assert certificate(sc, profile, batch).status == STATUS_EMPTY
    sol = solve_lp(build_lower(sc, samples, profile, batch))
    assert sol.status == UNBOUNDED


def test_lower_model_rejects_foreign_batch():
    sc, samples = small_problem(43, n=1, T=2, menu_size=2)
    assignments = admissible_assignments(sc)
    if len(assignments) < 2:
        pytest.skip("band collapsed to one assignment")
    p0 = sc.speed_profile([sc.gamma[i] for i in assignments[0]])
    p1 = sc.speed_profile([sc.gamma[i] for i in assignments[1]])
    batch = propagate_batch(sc, p0, samples)
    with pytest.raises(ValueError):
        build_lower(sc, samples, p1, batch)


def test_support_function_identity():
    rng = np.random.default_rng(61)
    for i in range(20):
        sc, gen = desk.random_scenario(rng)
        combo = admissible_assignments(sc)[-1]
        profile = sc.speed_profile([sc.gamma[i] for i in combo])
        scale = max(s.rho_bar for s in sc.segments)
        mu = rng.uniform(-2.0, 2.0, size=(sc.n, sc.T)) / scale
        closed = box_support(sc, profile, mu)
        via_lp = box_support_lp(sc, profile, mu)
        assert abs(closed - via_lp) <= 1e-8 * max(1.0, abs(closed))
