import dataclasses
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import desk
from vslcert import search
from vslcert.certificate import average_flow, certificate, scan_result
from vslcert.cli import main
from vslcert.errors import InfeasibleScenarioError
from vslcert.network import (
    HighwayScenario,
    SegmentParams,
    load_scenario,
    read_config,
    wave_ratio,
)
from vslcert.sampling import (
    VALIDATION_SEED_OFFSET,
    DisturbanceSample,
    GeneratorSpec,
    SampleSet,
    generate_samples,
    load_generator,
    propagate,
    propagate_batch,
)
from vslcert.validation import brute_force_optimum, simulate_ctm, validate

BENCH_SCENARIOS = Path(__file__).resolve().parent.parent / "perfbench" / "scenarios"
HIGHWAY = Path(__file__).resolve().parent / "data" / "highway5.json"


def reference_propagate(sc, prof, sample):
    """Per-draw linear recursion, one draw at a time (reference)."""
    u, h = prof.as_array(), sc.h
    rho = sample.rho0.copy()
    out = np.empty((sc.n, sc.T))
    for t in range(sc.T):
        flow = u * rho
        inflow = np.concatenate(([0.0], flow[:-1]))
        rho = rho + h * (inflow - flow + sample.omega[:, t])
        out[:, t] = rho
    return out


def one_draw(sample):
    """A ``SampleSet`` of the one draw ``sample``."""
    return SampleSet(sample.rho0[None], sample.omega[None])


def reference_ctm(sc, speeds, sample):
    """Per-draw demand/supply simulation with scalar boundary handling
    over every step of the draw (reference); returns the states
    (n, steps) and the flows."""
    n, steps = sample.omega.shape
    speeds = np.array(speeds, dtype=float)
    f_U = np.array([seg.f_U for seg in sc.segments])
    rho_U = np.array([seg.rho_U for seg in sc.segments])
    wave = np.array([wave_ratio(seg) * seg.u_bar for seg in sc.segments])
    h = sc.h
    rho = np.clip(sample.rho0, 0.0, rho_U)
    out = np.empty((n, steps))
    boundary = np.empty(steps)
    exit_flow = np.empty(steps)
    applied = np.zeros((n, steps))
    for t in range(steps):
        demand = np.minimum(speeds * rho, f_U)
        supply = np.minimum(wave * (rho_U - rho), f_U)
        link = np.minimum(demand[:-1], supply[1:]) if n > 1 else np.empty(0)
        b_in = min(sample.omega[0, t], supply[0])
        inflow = np.concatenate(([b_in], link))
        outflow = np.concatenate((link, [demand[-1]]))
        interim = rho + h * (inflow - outflow)
        bumped = interim.copy()
        bumped[1:] += h * sample.omega[1:, t]
        rho = np.clip(bumped, 0.0, rho_U)
        applied[:, t] = (rho - interim) / h
        boundary[t] = b_in
        exit_flow[t] = demand[-1]
        out[:, t] = rho
    return out, {"boundary": boundary, "exit": exit_flow,
                 "applied_omega": applied}


def reference_validate(sc, gen, prof, n_val, seed):
    """validate's mean objective and mean density from a loop over the
    fresh draws, summed in draw order (reference)."""
    horizon = 3 * sc.T
    fresh = generate_samples(gen, n_val, horizon, seed + VALIDATION_SEED_OFFSET)
    total = 0.0
    density = np.zeros((sc.n, horizon))
    for sample in fresh.samples:
        total += average_flow(prof, reference_propagate(sc, prof, sample))
        density += reference_ctm(sc, prof.u, sample)[0]
    return total / n_val, density / n_val


def free_flow_case(seed, scale=0.02):
    """Desk instance with disturbances shrunk into the free-flow regime."""
    rng = np.random.default_rng(seed)
    sc, gen = desk.random_scenario(rng)
    calm = GeneratorSpec(
        rho0_lo=tuple(v * scale for v in gen.rho0_lo),
        rho0_hi=tuple(v * scale for v in gen.rho0_hi),
        omega_lo=(0.0,) * sc.n,
        omega_hi=tuple(max(v, 0.0) * scale for v in gen.omega_hi),
    )
    return sc, calm


def test_brute_force_enumerates_and_orders():
    rng = np.random.default_rng(3)
    sc, gen = desk.random_scenario(rng, n=2, T=2, menu_size=2)
    samples = desk.desk_samples(sc, gen, 3, 0)
    best, result = brute_force_optimum(sc, samples)
    seen = []
    for combo in itertools.product(*sc.bands):
        prof = sc.speed_profile(combo)
        res = certificate(sc, prof, propagate_batch(sc, prof, samples))
        if res.finite:
            seen.append((res.value, combo))
    assert seen, "instance should have a finite profile"
    top = max(v for v, _ in seen)
    assert result.value == pytest.approx(top, rel=1e-12)
    assert best.u == min(c for v, c in seen if v == top)


def test_brute_force_single_profile():
    rng = np.random.default_rng(5)
    sc, gen = desk.random_scenario(rng, n=1, T=2, menu_size=1)
    samples = desk.desk_samples(sc, gen, 2, 1)
    best, result = brute_force_optimum(sc, samples)
    assert best.u == (sc.gamma[0],)
    assert math.isfinite(result.value)


def test_brute_force_checks_the_trees_certificate(monkeypatch):
    # The tree's scan of its winner, with the value one bit up: the
    # winner's own certificate must catch it and name both.
    rng = np.random.default_rng(3)
    sc, gen = desk.random_scenario(rng, n=2, T=2, menu_size=2)
    samples = desk.desk_samples(sc, gen, 3, 0)
    best, own = brute_force_optimum(sc, samples)
    bumped = dataclasses.replace(own, value=float(np.nextafter(own.value, math.inf)))

    def one_bit_up(lams, totals):
        result = scan_result(lams, totals)
        return dataclasses.replace(result, value=float(np.nextafter(result.value, math.inf)))

    monkeypatch.setattr(search, "scan_result", one_bit_up)
    with pytest.raises(RuntimeError) as raised:
        brute_force_optimum(sc, samples)
    assert str(bumped) in str(raised.value) and str(own) in str(raised.value)


def test_brute_force_respects_enumeration_cap(tmp_path, monkeypatch, capsys):
    # Eight plain corridor cells admit all five speeds: 5**8 = 390,625
    # profiles, past the cap of 100,000.
    cfg = read_config(HIGHWAY)
    cfg["n"], cfg["L_km"] = 8, 16.0
    cfg["segments"] = [cfg["segments"][0]] * 8
    omega = cfg["disturbance"]["omega"]
    cfg["disturbance"]["omega"] = omega[:1] + omega[1:2] * 7
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(cfg))

    def enumerated(*args):
        raise AssertionError("profiles were propagated past the cap")

    monkeypatch.setattr("vslcert.search.propagate_cells", enumerated)
    monkeypatch.setattr("vslcert.sampling.propagate_cells", enumerated)
    rc = main(["brute-force", "--scenario", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert ("390625 admissible profiles exceed the enumeration cap 100000; "
            "use `solve`") in capsys.readouterr().err
    assert not (tmp_path / "brute_force.csv").exists()


def test_brute_force_all_sentinel_raises():
    rng = np.random.default_rng(11)
    sc, gen = desk.sentinel_scenario(rng)
    samples = desk.desk_samples(sc, gen, 2, 0)
    with pytest.raises(InfeasibleScenarioError):
        brute_force_optimum(sc, samples)


def assert_brute_force_is_reference(sc, samples):
    """The exact evaluator returns the reference loop's profile, value
    and certificate, bit for bit, and raises where the loop does."""
    try:
        ref_u, ref_value = desk.reference_optimum(sc, samples)
    except InfeasibleScenarioError:
        with pytest.raises(InfeasibleScenarioError):
            brute_force_optimum(sc, samples)
        raise
    best, result = brute_force_optimum(sc, samples)
    assert best == ref_u
    assert result.value == ref_value
    assert result == certificate(sc, ref_u, propagate_batch(sc, ref_u, samples))


def test_brute_force_matches_reference_loop():
    compared = 0
    for k in range(40):
        rng = np.random.default_rng(600 + k)
        sc, gen = desk.random_scenario(rng)
        samples = desk.desk_samples(sc, gen, int(rng.integers(1, 4)), k)
        try:
            assert_brute_force_is_reference(sc, samples)
        except InfeasibleScenarioError:
            continue
        compared += 1
    assert compared >= 30


def test_menu_values_match_certificate_on_corridor():
    # Corridor profiles scored as leaves of the prefix tree keep the value
    # their own certificate gives them, to the last bit; with T = 20 steps
    # and nine draws each profile's sums are long enough for numpy's
    # pairwise summation to group their terms. Every
    # 7th profile is checked; 7 is coprime to the band sizes 5 and 3, so
    # every speed of every cell is among them.
    cfg = read_config(HIGHWAY)
    sc = load_scenario(cfg)
    samples = generate_samples(load_generator(cfg, sc.n), 9, sc.T, 4)
    combos = list(itertools.product(*sc.bands))
    values = desk.leaf_values(sc, samples)
    for combo, value in zip(combos[::7], values[::7]):
        prof = sc.speed_profile(combo)
        assert value == certificate(sc, prof, propagate_batch(sc, prof, samples)).value


def test_brute_force_all_sentinel_like_the_loop():
    rng = np.random.default_rng(23)
    sc, gen = desk.sentinel_scenario(rng, n=2, T=2)
    samples = desk.desk_samples(sc, gen, 2, 0)
    with pytest.raises(InfeasibleScenarioError):
        assert_brute_force_is_reference(sc, samples)


def test_brute_force_breaks_near_ties_like_the_loop():
    # Seed 0 of this benchmark instance has three profiles whose
    # certificate values lie within 1e-12 of each other.
    path = BENCH_SCENARIOS / "desk_9010.json"
    manifest = json.loads((BENCH_SCENARIOS / "desk_manifest.json").read_text())
    count = next(m["count"] for m in manifest if m["file"] == path.name)
    cfg = read_config(path)
    sc = load_scenario(cfg)
    samples = generate_samples(load_generator(cfg, sc.n), count, sc.T, 0)
    values = []
    for combo in itertools.product(*sc.bands):
        prof = sc.speed_profile(combo)
        values.append(certificate(sc, prof, propagate_batch(sc, prof, samples)).value)
    top = max(values)
    assert sum(v >= top - 1e-12 * max(1.0, abs(top)) for v in values) == 3
    assert_brute_force_is_reference(sc, samples)


def test_ctm_stays_at_zero_without_input():
    rng = np.random.default_rng(13)
    sc, _ = desk.random_scenario(rng, n=3, T=4)
    prof = sc.speed_profile([b[0] for b in sc.bands])
    sample = DisturbanceSample(np.zeros(sc.n), np.zeros((sc.n, sc.T)))
    traj = simulate_ctm(sc, prof.u, one_draw(sample))
    assert traj.shape == (sc.n, sc.T)
    assert (traj == 0.0).all()


def test_ctm_matches_linear_model_in_free_flow():
    matched = 0
    for seed in range(40):
        sc, gen = free_flow_case(seed)
        samples = desk.desk_samples(sc, gen, 1, seed)
        sample = samples.samples[0]
        prof = sc.speed_profile([b[0] for b in sc.bands])
        linear = propagate(sc, prof, sample)
        # regime check: demand below capacity and supply everywhere
        u = prof.as_array()
        caps_ok = True
        for t in range(sc.T):
            rho_t = linear[:, t]
            for e in range(sc.n):
                seg = sc.segments[e]
                demand = u[e] * rho_t[e]
                caps_ok &= demand <= seg.f_U
                caps_ok &= 0.0 <= rho_t[e] <= seg.rho_U
        if not caps_ok:
            continue
        physical = simulate_ctm(sc, prof.u, one_draw(sample))
        assert np.abs(physical - linear).max() <= 1e-9 * max(
            1.0, np.abs(linear).max())
        matched += 1
    assert matched >= 10


def test_ctm_conserves_mass():
    # The mass balance holds for the reference's flows, and the product's
    # states are the reference's, bit for bit.
    rng = np.random.default_rng(17)
    sc, gen = desk.random_scenario(rng, n=3, T=5)
    sample = desk.desk_samples(sc, gen, 1, 4).samples[0]
    prof = sc.speed_profile([b[-1] for b in sc.bands])
    traj, flows = reference_ctm(sc, prof.u, sample)
    assert (simulate_ctm(sc, prof.u, one_draw(sample)) == traj).all()
    h = sc.h
    prev = np.clip(sample.rho0, 0.0,
                   np.array([s.rho_U for s in sc.segments]))
    for t in range(sc.T):
        change = traj[:, t].sum() - prev.sum()
        net = h * (flows["boundary"][t] - flows["exit"][t]
                   + flows["applied_omega"][:, t].sum())
        assert change == pytest.approx(net, abs=1e-9)
        prev = traj[:, t]


def test_ctm_respects_density_caps():
    rng = np.random.default_rng(19)
    sc, gen = desk.sentinel_scenario(rng)
    sample = desk.desk_samples(sc, gen, 1, 0).samples[0]
    traj = simulate_ctm(sc, sc.uncontrolled_profile(), one_draw(sample))
    rho_U = np.array([s.rho_U for s in sc.segments])[:, None]
    assert (traj >= 0.0).all()
    assert (traj <= rho_U + 1e-12).all()


def test_ctm_uncontrolled_uses_top_speeds():
    # The free-flow speeds lie above every admissible band, and the
    # simulator runs them as given.
    sc, gen = desk.vi_scenario()
    sample = generate_samples(gen, 1, 5, seed=0).samples[0]
    top = sc.uncontrolled_profile()
    assert top == (140.0,) * 5
    assert all(u > max(band) for u, band in zip(top, sc.bands))
    free = simulate_ctm(sc, top, one_draw(sample))
    assert free.shape == (5, 5)
    assert (free == reference_ctm(sc, top, sample)[0]).all()


def draw_order_sum(arrays):
    """The sum of arrays added one at a time, first to last (reference)."""
    total = arrays[0]
    for a in arrays[1:]:
        total = total + a
    return total


@pytest.mark.parametrize("n, seed", [(1, 41), (3, 43)])
def test_ctm_on_sample_set_matches_per_draw_loop(n, seed):
    # A sample set gives the draw-order sum of the reference's per-draw
    # states, bit for bit, and so does one split in two, the second half
    # carried on from the first's sum in ``out``.
    rng = np.random.default_rng(seed)
    sc, gen = desk.random_scenario(rng, n=n, T=3)
    samples = generate_samples(gen, 40, 3 * sc.T, seed=seed)
    assert samples.omega.shape == (40, sc.n, 3 * sc.T)
    assert not samples.rho0.flags.writeable and not samples.omega.flags.writeable
    prof = sc.speed_profile([b[-1] for b in sc.bands])
    for speeds in (prof.u, sc.uncontrolled_profile()):
        for steps in (3 * sc.T, sc.T):
            part = SampleSet(samples.rho0, samples.omega[..., :steps])
            total = simulate_ctm(sc, speeds, part)
            runs = [reference_ctm(sc, speeds, s)[0] for s in part.samples]
            assert total.shape == (sc.n, steps)
            assert (total == draw_order_sum(runs)).all()
            head = simulate_ctm(sc, speeds, SampleSet(part.rho0[:13], part.omega[:13]))
            carried = simulate_ctm(sc, speeds, SampleSet(part.rho0[13:], part.omega[13:]),
                                   out=head)
            assert carried is head
            assert (carried == total).all()


def test_ctm_clamps_signed_zeros_like_the_reference():
    # np.clip turns -0.0 into 0.0; the product's clamp must too, to the
    # sign bit, on a draw whose initial densities and disturbances hold
    # -0.0 among ordinary values. Cell 2 starts jammed, so cell 1's
    # outflow is a zero supply and a -0.0 kept by a clamp would reach
    # cell 1's first state.
    sc, _ = desk.vi_scenario()
    rho0 = np.array([-0.0, sc.segments[1].rho_U, -0.0, 0.0, 12.0])
    omega = np.zeros((sc.n, 6))
    omega[:, ::2] = -0.0
    omega[0, 1] = 500.0
    omega[2, 3] = -0.0
    sample = DisturbanceSample(rho0, omega)
    states = simulate_ctm(sc, sc.uncontrolled_profile(), one_draw(sample))
    reference = reference_ctm(sc, sc.uncontrolled_profile(), sample)[0]
    assert reference[0, 0] == 0.0
    assert (states == reference).all()
    assert (np.signbit(states) == np.signbit(reference)).all()


def test_ctm_keeps_no_state_per_draw():
    # 2,000 corridor draws over 60 steps: a (draws, cells, steps) stack of
    # states would take 4.8 MB; the running sum needs a few (cells, draws)
    # buffers.
    sc, gen = desk.vi_scenario()
    samples = generate_samples(gen, 2000, 3 * sc.T, seed=0)
    stack = samples.omega.nbytes
    assert stack == 2000 * 5 * 60 * 8
    tracemalloc.start()
    try:
        simulate_ctm(sc, sc.uncontrolled_profile(), samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack


@pytest.mark.parametrize("n, n_val, chunk, sizes", [
    pytest.param(1, 7, 3, [2, 2, 3], id="1-7"),
    pytest.param(1, 10, 4, [3, 3, 4], id="1-10"),
    pytest.param(1, 7, 1, [1] * 7, id="1-7-one-draw"),
    pytest.param(3, 300, 60, [60] * 5, id="3-300"),
    pytest.param(3, 20, 1, [1] * 20, id="3-20-one-draw"),
    pytest.param(1, 7, None, [7], id="1-7-one-chunk"),
    pytest.param(3, 300, None, [300], id="3-300-one-chunk"),
])
def test_validate_matches_per_draw_loop(n, n_val, chunk, sizes, monkeypatch):
    # The draws are split into the fewest chunks of at most ``chunk`` draws,
    # whose sizes differ by at most one; the means keep the bits of the
    # per-draw loop however they are split.
    rng = np.random.default_rng(47 + n)
    sc, gen = desk.random_scenario(rng, n=n, T=4)
    counts = []

    def counted(scenario, speeds, sample, **kwargs):
        counts.append(sample.count)
        return simulate_ctm(scenario, speeds, sample, **kwargs)

    monkeypatch.setattr("vslcert.validation.simulate_ctm", counted)
    if chunk is not None:  # a budget of exactly `chunk` draws
        monkeypatch.setattr("vslcert.validation.VALIDATE_CHUNK_ELEMENTS",
                            chunk * (n + n * 3 * sc.T))
    prof = sc.speed_profile([b[0] for b in sc.bands])
    report = validate(sc, gen, prof, 0.0, n_val=n_val, seed=3)
    assert counts == sizes
    mean_objective, mean_density = reference_validate(sc, gen, prof, n_val, 3)
    assert report.mean_objective == mean_objective
    assert (report.mean_density == mean_density).all()


def test_validate_guarantee_flag_and_shapes():
    rng = np.random.default_rng(23)
    sc, gen = desk.random_scenario(rng, n=2, T=3)
    samples = desk.desk_samples(sc, gen, 3, 1)
    prof = sc.speed_profile([b[0] for b in sc.bands])
    batch = propagate_batch(sc, prof, samples)
    j_hat = certificate(sc, prof, batch).value
    report = validate(sc, gen, prof, j_hat, n_val=50, seed=1)
    assert report.horizon == 3 * sc.T
    assert report.mean_density.shape == (sc.n, report.horizon)
    assert report.max_mean_density.shape == (sc.n,)
    assert report.guarantee == (report.mean_objective >= j_hat)
    assert (report.critical_density == sc.critical_densities(prof)).all()


def test_validate_draws_are_fresh_but_deterministic():
    rng = np.random.default_rng(29)
    sc, gen = desk.random_scenario(rng, n=1, T=2)
    prof = sc.speed_profile([sc.bands[0][0]])
    a = validate(sc, gen, prof, 0.0, n_val=5, seed=9)
    b = validate(sc, gen, prof, 0.0, n_val=5, seed=9)
    assert a.mean_objective == b.mean_objective
    assert (a.mean_density == b.mean_density).all()
    # training draws at the same seed are a different stream
    train = generate_samples(gen, 5, 2, seed=9)
    fresh = generate_samples(gen, 5, 2, seed=9 + 7919)
    assert any((x.omega != y.omega).any()
               for x, y in zip(train.samples, fresh.samples))


def test_validate_degenerate_point_mass():
    """A deterministic generator makes the radius-zero value exact."""
    seg = SegmentParams(f_bar=30.0, rho_bar=60.0, u_bar=1.0, f_U=30.0,
                        rho_U=60.0)
    sc = HighwayScenario(n=1, L=2.0, delta=1.0, T=2, segments=(seg,),
                         gamma=(0.5,), jam_margin=1.0, epsilon=0.0)
    gen = GeneratorSpec(rho0_lo=(4.0,), rho0_hi=(4.0,),
                        omega_lo=(1.0,), omega_hi=(1.0,))
    prof = sc.speed_profile([0.5])
    samples = generate_samples(gen, 1, 2, seed=0)
    batch = propagate_batch(sc, prof, samples)
    j_hat = certificate(sc, prof, batch).value
    expect = average_flow(prof, batch.rho[0])
    assert j_hat == pytest.approx(expect, rel=1e-12)
    report = validate(sc, gen, prof, j_hat, n_val=3, seed=5)
    assert report.mean_objective == pytest.approx(j_hat, rel=1e-12)
    assert report.guarantee


def test_validation_config_validation(tmp_path, capsys):
    rng = np.random.default_rng(17)
    sc, gen = desk.random_scenario(rng, n=1, T=2, menu_size=1)
    prof = sc.speed_profile([sc.bands[0][0]])
    with pytest.raises(ValueError, match="at least 1"):
        validate(sc, gen, prof, 0.0, n_val=0)
    rc = main(["validate", "--scenario", str(HIGHWAY), "--out", str(tmp_path),
               "--speeds", "120,120,120,80,120", "--jhat", "1e5", "--nval", "0"])
    assert rc == 2
    assert "--nval: n_val must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "summary.csv").exists()
