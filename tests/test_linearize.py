import dataclasses
import itertools
import math

import numpy as np
import pytest

import desk
from vslcert.certificate import STATUS_EMPTY, certificate
from vslcert.errors import NumericalError
from vslcert.linearize import (
    SearchProblem,
    assignment_of,
    box_support,
    box_support_lp,
    build_lower,
    build_upper,
    decode_profile,
    eta_saturation,
    exclude,
    glover_rows,
    price_bound,
)
from vslcert.lpsolve import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpSolution,
    ModelBuilder,
    solve_milp,
)
from vslcert.sampling import propagate, propagate_batch
from vslcert.validation import brute_force_optimum


def small_problem(seed, n=2, T=2, menu_size=2, count=2):
    rng = np.random.default_rng(seed)
    sc, gen = desk.random_scenario(rng, n=n, T=T, menu_size=menu_size)
    samples = desk.desk_samples(sc, gen, count, seed)
    return SearchProblem(sc, samples)


def fix_assignment(upper, assignment):
    """Pin the selection binaries of an upper model in place."""
    n, m = upper.x_index.shape
    for e in range(n):
        for i in range(m):
            j = upper.x_index[e, i]
            v = 1.0 if assignment[e] == i else 0.0
            upper.model.lb[j] = v
            upper.model.ub[j] = v


def admissible_assignments(scenario):
    menu = scenario.gamma
    out = []
    for combo in itertools.product(*scenario.bands):
        out.append(tuple(menu.index(g) for g in combo))
    return out


def test_glover_rows_enumerate_exact():
    """z must equal x * g for every corner of the small enumeration."""
    for x_val in (0.0, 1.0):
        for g_val in (0.0, 2.5, 5.0):
            for sense in (1.0, -1.0):
                mb = ModelBuilder()
                x = mb.add_var(0.0, 1.0, binary=True)
                g = mb.add_var(0.0, 5.0)
                z = mb.add_var(0.0, 5.0, obj=sense)
                mb.add_row([x], [1.0], "=", x_val)
                mb.add_row([g], [1.0], "=", g_val)
                glover_rows(mb, x, g, 5.0, z)
                sol = solve_milp(mb.build())
                assert sol.status == OPTIMAL
                assert sol.x[z] == pytest.approx(x_val * g_val, abs=1e-9)


def test_glover_block_is_three_rows():
    mb = ModelBuilder()
    x = mb.add_var(0.0, 1.0, binary=True)
    g = mb.add_var(0.0, 3.0)
    z = mb.add_var(0.0, 3.0)
    glover_rows(mb, x, g, 3.0, z, block="pair")
    model = mb.build()
    assert model.block_rows["pair"] == 3
    assert model.A.nnz == 7 and (model.A.data != 0).all()


def test_glover_rejects_bad_bounds():
    mb = ModelBuilder()
    x = mb.add_var(0.0, 1.0, binary=True)
    g = mb.add_var(0.0, 1.0)
    z = mb.add_var(0.0, 1.0)
    with pytest.raises(ValueError):
        glover_rows(mb, x, g, -1.0, z)
    with pytest.raises(ValueError):
        glover_rows(mb, x, g, math.inf, z)


def test_price_bound_formula():
    problem = small_problem(3)
    sc = problem.scenario
    for e, seg in enumerate(sc.segments):
        expected = seg.u_bar * (1.0 / sc.T + seg.rho_bar * sc.eta_bar)
        assert price_bound(sc, e) == pytest.approx(expected, rel=1e-12)


def test_upper_model_block_counts():
    problem = small_problem(7, n=2, T=3, menu_size=2, count=2)
    sc = problem.scenario
    n, T, m, N = sc.n, sc.T, len(sc.gamma), problem.samples.count
    upper = build_upper(problem)
    exclude(upper, (0, 0))
    rows = upper.model.block_rows
    assert rows == {
        "encoding": n,
        "y0": N * n * m,
        "glover_y": 3 * N * n * m * (T - 1),
        "sum_y": N * n * (T - 1),
        "dynamics": N * n * T,
        "glover_z": 3 * N * n * m * T,
        "dual_feas": N * n * T,
        "norm_cap": N * n * T,
        "mccormick": 3 * N * n * T,
        "cut": 1,
    }
    # no defined variable and no stored zero: the price nu and the
    # McCormick product s carry their sign as bounds
    assert upper.model.nvars == n * m + 1 + N * n * T * (4 + 2 * m)
    assert (upper.model.A.data != 0).all()
    assert (upper.model.lb[upper.nu_index] == 0).all()
    assert (upper.model.lb[upper.s_index] == 0).all()


def test_lower_model_block_counts():
    problem = small_problem(7, n=2, T=3, menu_size=2, count=2)
    sc = problem.scenario
    n, T, N = sc.n, sc.T, problem.samples.count
    combo = admissible_assignments(sc)[0]
    profile = sc.speed_profile([sc.gamma[i] for i in combo])
    lower = build_lower(problem, profile)
    assert lower.model.block_rows == {"dual_feas": N * n * T,
                                      "norm_cap": 2 * N * n * T}
    assert lower.model.nvars == 1 + 2 * N * n * T


def test_cut_excludes_exactly_its_assignment():
    """Each exclusion cuts off its own assignment and no other one; once
    every assignment is excluded, the model is infeasible."""
    problem = small_problem(11, n=2, T=2, menu_size=2)
    assignments = admissible_assignments(problem.scenario)
    if len(assignments) < 2:
        pytest.skip("band collapsed to one assignment")
    upper = build_upper(problem)
    free_lb, free_ub = upper.model.lb.copy(), upper.model.ub.copy()
    for k, banned in enumerate(assignments):
        exclude(upper, banned)
        assert upper.model.block_rows["cut"] == k + 1
        for j, fixed in enumerate(assignments):
            fix_assignment(upper, fixed)
            expect = INFEASIBLE if j <= k else OPTIMAL
            assert solve_milp(upper.model).status == expect
        upper.model.lb[:] = free_lb
        upper.model.ub[:] = free_ub
    assert solve_milp(upper.model).status == INFEASIBLE


def test_fixed_assignment_reproduces_trajectories():
    """With the binaries pinned, the relaxation's densities are exact."""
    for seed in (0, 1, 2):
        problem = small_problem(seed, n=2, T=3)
        sc = problem.scenario
        assignment = admissible_assignments(sc)[0]
        upper = build_upper(problem)
        fix_assignment(upper, assignment)
        sol = solve_milp(upper.model)
        assert sol.status == OPTIMAL
        profile = sc.speed_profile([sc.gamma[i] for i in assignment])
        for l, sample in enumerate(problem.samples.samples):
            expect = propagate(sc, profile, sample)
            got = sol.x[upper.rho_index[l]]
            scale = max(1.0, np.abs(expect).max())
            assert np.abs(got - expect).max() / scale < 1e-9


def test_glover_products_exact_at_milp_optimum():
    problem = small_problem(13, n=2, T=2, menu_size=2)
    upper = build_upper(problem)
    sol = solve_milp(upper.model)
    assert sol.status == OPTIMAL
    xsol = sol.x
    x = xsol[upper.x_index]
    N, n, T = upper.rho_index.shape
    m = upper.x_index.shape[1]
    for l in range(N):
        for e in range(n):
            for t in range(T):
                eta = xsol[upper.eta_index[l, e, t]]
                for i in range(m):
                    z = xsol[upper.z_index[l, e, i, t]]
                    assert abs(z - x[e, i] * eta) < 1e-6
                    if t >= 1:
                        rho_prev = xsol[upper.rho_index[l, e, t - 1]]
                        y = xsol[upper.y_index[l, e, i, t]]
                        assert abs(y - x[e, i] * rho_prev) < 1e-6


def test_upper_relaxation_dominates_brute_force():
    for seed in (17, 23):
        problem = small_problem(seed, n=2, T=2, menu_size=2)
        upper = build_upper(problem)
        sol = solve_milp(upper.model)
        assert sol.status == OPTIMAL
        try:
            _, j_star = brute_force_optimum(problem.scenario, problem.samples)
        except Exception:
            continue
        assert sol.objective >= j_star - 1e-9 * max(1.0, abs(j_star))


def test_lower_model_matches_certificate():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 8:
        sc, gen = desk.random_scenario(rng)
        samples = desk.desk_samples(sc, gen, 2, checked)
        problem = SearchProblem(sc, samples)
        combo = admissible_assignments(sc)[0]
        profile = sc.speed_profile([sc.gamma[i] for i in combo])
        batch = propagate_batch(sc, profile, samples)
        ref = certificate(sc, profile, batch)
        lower = build_lower(problem, profile, batch)
        sol = solve_milp(lower.model)
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
    problem = SearchProblem(sc, samples)
    combo = admissible_assignments(sc)[0]
    profile = sc.speed_profile([sc.gamma[i] for i in combo])
    batch = propagate_batch(sc, profile, samples)
    assert certificate(sc, profile, batch).status == STATUS_EMPTY
    sol = solve_milp(build_lower(problem, profile, batch).model)
    assert sol.status == UNBOUNDED


def test_lower_model_rejects_foreign_batch():
    problem = small_problem(43, n=1, T=2, menu_size=2)
    sc = problem.scenario
    assignments = admissible_assignments(sc)
    if len(assignments) < 2:
        pytest.skip("band collapsed to one assignment")
    p0 = sc.speed_profile([sc.gamma[i] for i in assignments[0]])
    p1 = sc.speed_profile([sc.gamma[i] for i in assignments[1]])
    batch = propagate_batch(sc, p0, problem.samples)
    with pytest.raises(ValueError):
        build_lower(problem, p1, batch)


def test_mccormick_envelope_contains_product():
    rng = np.random.default_rng(51)
    problem = small_problem(51)
    sc = problem.scenario
    for e, seg in enumerate(sc.segments):
        nu_cap = price_bound(sc, e)
        for _ in range(200):
            nu = rng.uniform(0.0, nu_cap)
            rho = rng.uniform(0.0, seg.rho_bar)
            lower = max(0.0, seg.rho_bar * nu + nu_cap * rho - nu_cap * seg.rho_bar)
            upper = min(seg.rho_bar * nu, nu_cap * rho)
            assert lower <= nu * rho + 1e-12
            assert nu * rho <= upper + 1e-12


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


def test_decode_profile_reads_assignment():
    problem = small_problem(71, n=2, T=2, menu_size=2)
    upper = build_upper(problem)
    sol = solve_milp(upper.model)
    assert sol.status == OPTIMAL
    profile = decode_profile(upper, sol)
    assignment = assignment_of(upper, sol)
    assert profile.u == tuple(problem.scenario.gamma[i] for i in assignment)


def test_decode_profile_needs_an_incumbent():
    problem = small_problem(73, n=1, T=1, menu_size=1)
    upper = build_upper(problem)
    empty = LpSolution(status="time_limit", objective=-math.inf, x=None)
    with pytest.raises(NumericalError):
        decode_profile(upper, empty)


def test_single_candidate_exhausts_after_one_cut():
    problem = small_problem(79, n=1, T=1, menu_size=1)
    upper = build_upper(problem)
    sol = solve_milp(upper.model)
    assert sol.status == OPTIMAL
    assignment = assignment_of(upper, sol)
    exclude(upper, assignment)
    assert solve_milp(upper.model).status == INFEASIBLE


def test_eta_saturation_reports_capped_entries():
    problem = small_problem(83, n=1, T=1, menu_size=1)
    upper = build_upper(problem)
    x = np.zeros(upper.model.nvars)
    x[upper.eta_index[0, 0, 0]] = problem.scenario.eta_bar
    fake = LpSolution(status=OPTIMAL, objective=0.0, x=x)
    assert eta_saturation(upper, fake) == [(0, 0, 0)]
    x[upper.eta_index[0, 0, 0]] = 0.0
    assert eta_saturation(upper, fake) == []


def test_search_problem_validates_shapes():
    problem = small_problem(89, n=2, T=2)
    other = small_problem(97, n=1, T=2)
    with pytest.raises(ValueError):
        SearchProblem(problem.scenario, other.samples)
    # a longer draw is truncated to the scenario's T, a shorter one refused
    longer = small_problem(89, n=2, T=4).samples
    shorter = small_problem(89, n=2, T=1).samples
    assert SearchProblem(problem.scenario, longer).samples is longer
    with pytest.raises(ValueError, match="shorter"):
        SearchProblem(problem.scenario, shorter)
    with pytest.raises(ValueError, match="epsilon"):
        dataclasses.replace(problem.scenario, epsilon=-0.5)
