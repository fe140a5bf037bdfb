"""Acceptance gate: one test per shipped guarantee, pinned tolerances.

Each test ends with a single PASS/FAIL line naming the check and the
measured quantity, so the transcript of a full run reads as a checklist.
Every check takes seconds.
"""

import math

import numpy as np

import desk
from vslcert.certificate import certificate
from vslcert.errors import InfeasibleScenarioError
from vslcert.linearize import box_support, box_support_lp, build_lower
from vslcert.lpsolve import OPTIMAL, UNBOUNDED, solve_lp
from vslcert.network import SegmentParams, admissible_speeds, critical_density
from vslcert.sampling import generate_samples, propagate_batch
from vslcert.search import TERM_ENUMERATED, PrefixTree, run_search
from vslcert.validation import simulate_ctm, validate

FIVE_LANE = dict(f_bar=3.1e4, rho_bar=1050.0, u_bar=140.0)
GRID = (40.0, 60.0, 80.0, 100.0, 120.0)


def check(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def random_profile(rng, scenario):
    combo = tuple(band[int(rng.integers(len(band)))]
                  for band in scenario.bands)
    return scenario.speed_profile(combo)


def dense_grid_value(scenario, profile, batch, epsilon, step=1e-4):
    """Vectorized scan of the scale variable on a uniform grid."""
    a = profile.as_array() / scenario.T
    caps = scenario.critical_densities(profile)
    r = np.asarray(batch.rho)
    anchor = np.clip(r, 0.0, caps[None, :, None])
    stay = np.abs(r).reshape(-1)
    move = np.abs(r - anchor).reshape(-1)
    base = (a[None, :, None] * anchor).reshape(-1)
    lams = np.arange(0.0, 2.0 * a.max() + step, step)
    inner = np.minimum(
        lams[:, None] * stay[None, :],
        lams[:, None] * move[None, :] + base[None, :],
    ).sum(axis=1)
    vals = inner / r.shape[0] - lams * epsilon
    k = int(np.argmax(vals))
    return float(vals[k]), float(lams[k])


def test_reference_critical_density():
    seg = SegmentParams(**FIVE_LANE, f_U=3.1e4, rho_U=1050.0)
    value = critical_density(seg, 80.0)
    check("critical-density reference", abs(value - 335.0) <= 1.0,
          f"critical_density(80)={value:.3f}, pinned 335 +/- 1")


def test_incident_cap_bounds_menu():
    seg = SegmentParams(**FIVE_LANE, f_U=2.7e4, rho_U=1050.0)
    band = admissible_speeds(seg, GRID, jam_margin=1.0)
    check("incident speed cap", max(band) == 80.0 and band == (40.0, 60.0, 80.0),
          f"flow cap 2.7e4 keeps {band} from {GRID}, top speed {max(band)}")


def test_lower_lp_matches_certificate():
    finite = unbounded = 0
    worst = 0.0
    k = 0
    while finite < 50 or unbounded < 5:
        rng = np.random.default_rng(500 + k)
        k += 1
        assert k < 300, "instance generator starved"
        if unbounded < 5 and k % 4 == 0:
            scenario, gen = desk.sentinel_scenario(rng)
        else:
            scenario, gen = desk.random_scenario(rng)
        count = int(rng.integers(1, 4))
        samples = desk.desk_samples(scenario, gen, count, seed=k)
        profile = random_profile(rng, scenario)
        batch = propagate_batch(scenario, profile, samples)
        closed = certificate(scenario, profile, batch)
        sol = solve_lp(build_lower(scenario, samples, profile, batch))
        if closed.finite:
            assert sol.status == OPTIMAL, sol.status
            rel = abs(sol.objective - closed.value) / max(1.0, abs(closed.value))
            worst = max(worst, rel)
            assert rel <= 1e-6, (sol.objective, closed.value)
            finite += 1
        else:
            assert sol.status == UNBOUNDED, sol.status
            unbounded += 1
    check("dual lower bound equals certificate", True,
          f"{finite} finite agreements within rel 1e-6 (worst {worst:.2e}), "
          f"{unbounded} unbounded<->empty-set agreements")


def enumerated_desks(count=20):
    """Random desk instances of at most 64 profiles with a finite optimum,
    each with its optimum by the per-profile reference loop."""
    attempt = 0
    while count:
        rng = np.random.default_rng(9000 + attempt)
        attempt += 1
        assert attempt < 400, "instance generator starved"
        scenario, gen = desk.random_scenario(rng)
        if math.prod(len(b) for b in scenario.bands) > 64:
            continue
        samples = desk.desk_samples(scenario, gen, int(rng.integers(1, 4)),
                                    seed=attempt)
        try:
            u_star, j_star = desk.reference_optimum(scenario, samples)
        except InfeasibleScenarioError:
            continue
        count -= 1
        yield scenario, samples, u_star, j_star


def test_search_matches_enumeration():
    for scenario, samples, u_star, j_star in enumerated_desks():
        report = run_search(scenario, samples)
        assert report.termination == TERM_ENUMERATED
        assert report.best_u == u_star.u
        assert report.best_value == report.certificate.value == j_star
    check("search matches enumeration", True,
          "20 searches give the profile and value bits of the per-profile "
          "enumeration loop")


def test_bound_monotonicity():
    # A search stopped by its time limit before its first chunk reports
    # the root's capacity-flow bound as its upper bound, and later the
    # largest bound of a prefix it left unexpanded; the root's must hold
    # the optimum, and each prefix's bound must fall from parent to child.
    worst = -math.inf
    for scenario, samples, _, j_star in enumerated_desks():
        tree = PrefixTree(scenario, samples)
        root = tree.tail[0].max()
        assert root >= j_star - 1e-9 * max(1.0, abs(j_star)), (root, j_star)
        worst = max(worst, j_star / root)
        parents, above = tree.root(), np.array([root])
        for band in scenario.bands:
            # Every child is kept, in product order: the parent of row i
            # is row i // len(band).
            parents, _ = tree.children(parents)
            above = np.repeat(above, len(band))
            assert (tree.bound(parents)
                    <= above + 1e-12 * np.maximum(1.0, np.abs(above))).all()
            above = tree.bound(parents)
    check("bound monotonicity", True,
          f"root bound >= enumeration optimum (largest optimum/bound "
          f"{worst:.3f}) and prefix bounds nonincreasing from parent to child "
          f"across 20 trees")


def test_certificate_against_dense_grid():
    compared = 0
    worst = 0.0
    k = 0
    while compared < 100:
        rng = np.random.default_rng(7000 + k)
        k += 1
        assert k < 500, "instance generator starved"
        T = int(rng.integers(1, 5))
        scenario, gen = desk.random_scenario(rng, T=T, gamma_step=T * 1e-3)
        count = int(rng.integers(1, 4))
        samples = desk.desk_samples(scenario, gen, count, seed=k)
        profile = random_profile(rng, scenario)
        batch = propagate_batch(scenario, profile, samples)
        closed = certificate(scenario, profile, batch)
        if not closed.finite:
            continue
        ref, _ = dense_grid_value(scenario, profile, batch, scenario.epsilon)
        err = abs(closed.value - ref)
        worst = max(worst, err)
        assert err <= 1e-6, (closed.value, ref)
        compared += 1
    check("dense-grid certificate oracle", True,
          f"{compared} instances within abs 1e-6 of a 1e-4-step grid scan "
          f"(worst {worst:.2e})")


def test_out_of_sample_guarantee():
    held = 0
    logs = []
    for run in range(20):
        scenario, gen = desk.vi_scenario()
        samples = generate_samples(gen, 3, scenario.T, seed=100 + run)
        report = run_search(scenario, samples, time_limit=10.0)
        assert report.feasible
        logs.append(math.log10(report.best_value))
        best = scenario.speed_profile(report.best_u)
        out = validate(scenario, gen, best, report.best_value, n_val=1000, seed=run)
        held += int(out.guarantee)
    magnitudes_ok = all(3.5 <= v <= 5.5 for v in logs)
    check("out-of-sample guarantee", held >= 19 and magnitudes_ok,
          f"certified value held on {held}/20 fresh 1000-sample runs, "
          f"log10 magnitudes {min(logs):.2f}..{max(logs):.2f} in [3.5, 5.5]")


def test_congestion_suppressed_on_incident_edge():
    # The controller is certified on nominal boundary demand; the raised
    # demand only drives the physical simulations. Certifying on the
    # raised draws is vacuous at the default radius (almost every
    # profile has an empty ambiguity set).
    #
    # The controller is the solver's answer. The menu's 1,875 profiles
    # are under the enumeration cap, so the search solves them exactly by
    # branch-and-bound and returns the certified optimum whatever its time
    # limit; the profile checked is therefore the same on every machine.
    #
    # `level` is cell 4's mean density over the T = 20 training horizon,
    # while the uncontrolled crossing is sought over all 60 steps. The
    # controlled mean over all 60 steps is printed next to it as data.
    scenario, nominal_gen = desk.vi_scenario()
    _, incident_gen = desk.vi_scenario(omega1=(2.8e4, 3.0e4))
    threshold = critical_density(scenario.segments[3], 80.0)
    horizon = 60
    fresh = generate_samples(incident_gen, 100, horizon, seed=0)

    free = simulate_ctm(scenario, scenario.uncontrolled_profile(),
                        fresh) / fresh.count
    crossings = np.nonzero(free[3] > threshold)[0]

    train = generate_samples(nominal_gen, 3, scenario.T, seed=11)
    report = run_search(scenario, train, time_limit=10.0)
    assert report.termination == TERM_ENUMERATED
    assert report.best_u == (120.0, 120.0, 120.0, 80.0, 120.0)
    best, j_star = scenario.speed_profile(report.best_u), report.best_value
    controlled = simulate_ctm(scenario, best.u, fresh) / fresh.count
    level = controlled[3, :scenario.T].mean()

    check("congestion suppression",
          crossings.size > 0 and level < threshold,
          f"uncontrolled incident edge crosses {threshold:.3f} at step "
          f"{crossings[0] + 1 if crossings.size else 'never'} of {horizon}, "
          f"certified optimum {best.u} (J* {j_star:.2f}) holds mean "
          f"{level:.3f} over the first {scenario.T} steps and "
          f"{controlled[3].mean():.3f} over all {horizon}")


def test_support_function_closed_form_matches_lp():
    worst = 0.0
    draws = 0
    for k in range(10):
        rng = np.random.default_rng(4242 + k)
        scenario, _ = desk.random_scenario(rng)
        profile = random_profile(rng, scenario)
        scale = max(s.rho_bar for s in scenario.segments)
        for _ in range(10):
            mu = rng.uniform(-2.0, 2.0, size=(scenario.n, scenario.T)) / scale
            gap = abs(box_support(scenario, profile, mu)
                      - box_support_lp(scenario, profile, mu))
            worst = max(worst, gap)
            draws += 1
    check("support-function identity", worst <= 1e-8,
          f"{draws} closed-form vs LP draws, worst gap {worst:.2e} <= 1e-8")
