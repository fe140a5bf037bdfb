import math
import re

import numpy as np
import pytest

import desk
from vslcert.errors import ConfigError
from vslcert.network import HighwayScenario, SegmentParams
from vslcert.sampling import (
    DisturbanceSample,
    GeneratorSpec,
    SampleSet,
    generate_samples,
    load_generator,
    propagate,
    propagate_batch,
    read_samples,
    write_samples,
)


def recursion_residual(scenario, batch, samples):
    """Largest relative defect of the recursion across a batch."""
    u = np.array(batch.u)
    h = scenario.h
    worst = 0.0
    for l, sample in enumerate(samples.samples):
        prev = sample.rho0
        for t in range(scenario.T):
            flow = u * prev
            inflow = np.concatenate(([0.0], flow[:-1]))
            expect = prev + h * (inflow - flow + sample.omega[:, t])
            got = batch.rho[l, :, t]
            scale = max(1.0, float(np.abs(expect).max()))
            worst = max(worst, float(np.abs(got - expect).max()) / scale)
            prev = got
    return worst


def single_edge(T=6, u=0.5):
    seg = SegmentParams(f_bar=30.0, rho_bar=60.0, u_bar=1.0, f_U=30.0, rho_U=60.0)
    sc = HighwayScenario(n=1, L=1.0, delta=1.0, T=T, segments=(seg,),
                         gamma=(u,), jam_margin=0.5)
    return sc, sc.speed_profile([u])


def uniform_chain(n, T, u=0.5):
    seg = SegmentParams(f_bar=30.0, rho_bar=60.0, u_bar=1.0, f_U=30.0, rho_U=60.0)
    sc = HighwayScenario(n=n, L=float(n), delta=1.0, T=T, segments=(seg,) * n,
                         gamma=(u,), jam_margin=0.5)
    return sc, sc.speed_profile([u] * n)


def test_single_edge_geometric_decay():
    """With no disturbance the first edge drains by (1 - h u) each step."""
    sc, prof = single_edge(T=6, u=0.5)
    r = 8.0
    sample = DisturbanceSample(np.array([r]), np.zeros((1, 6)))
    traj = propagate(sc, prof, sample)
    h = sc.h
    expected = [(1 - h * 0.5) ** t * r for t in range(1, 7)]
    assert traj[0] == pytest.approx(expected, rel=1e-12)


def test_interior_edges_hold_until_the_front_arrives():
    # uniform initial density and equal limits: inflow cancels outflow on
    # edge e until the drained edge-1 value has propagated e-1 steps
    n, T = 4, 4
    sc, prof = uniform_chain(n, T)
    r = 5.0
    sample = DisturbanceSample(np.full(n, r), np.zeros((n, T)))
    traj = propagate(sc, prof, sample)
    for e in range(1, n):
        for t in range(1, e + 1):
            assert traj[e, t - 1] == pytest.approx(r, rel=1e-12)
        assert traj[e, e] < r


def test_matrix_form_oracle():
    """The loop matches the explicit affine recursion to near round-off."""
    rng = np.random.default_rng(3)
    for trial in range(20):
        sc, gen = desk.random_scenario(rng)
        sample = desk.desk_samples(sc, gen, 1, trial).samples[0]
        combo = [b[-1] for b in sc.bands]
        prof = sc.speed_profile(combo)
        u = prof.as_array()
        n = sc.n
        A = -np.diag(u)
        A[np.arange(1, n), np.arange(n - 1)] = u[:-1]
        M = np.eye(n) + sc.h * A
        rho = sample.rho0.copy()
        expect = np.empty((n, sc.T))
        for t in range(sc.T):
            rho = M @ rho + sc.h * sample.omega[:, t]
            expect[:, t] = rho
        got = propagate(sc, prof, sample)
        assert np.abs(got - expect).max() < 1e-12 * max(1.0, np.abs(expect).max())


def test_propagation_is_affine_in_the_disturbance():
    rng = np.random.default_rng(4)
    sc, gen = desk.random_scenario(rng, n=3, T=3)
    prof = sc.speed_profile([b[0] for b in sc.bands])
    s = desk.desk_samples(sc, gen, 2, 9)
    a, b = s.samples
    alpha = 0.3
    mix = DisturbanceSample(alpha * a.rho0 + (1 - alpha) * b.rho0,
                            alpha * a.omega + (1 - alpha) * b.omega)
    lhs = propagate(sc, prof, mix)
    rhs = alpha * propagate(sc, prof, a) + (1 - alpha) * propagate(sc, prof, b)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_mass_balance_telescopes():
    """Total density changes by h times (net injection minus what exits)."""
    rng = np.random.default_rng(11)
    sc, gen = desk.random_scenario(rng, n=3, T=4)
    prof = sc.speed_profile([b[-1] for b in sc.bands])
    sample = desk.desk_samples(sc, gen, 1, 2).samples[0]
    traj = propagate(sc, prof, sample)
    u = prof.as_array()
    prev = sample.rho0
    for t in range(sc.T):
        change = traj[:, t].sum() - prev.sum()
        expected = sc.h * (sample.omega[:, t].sum() - u[-1] * prev[-1])
        assert change == pytest.approx(expected, abs=1e-9)
        prev = traj[:, t]


def test_generate_samples_deterministic_and_bounded():
    gen = GeneratorSpec(rho0_lo=(1.0, 2.0), rho0_hi=(2.0, 4.0),
                        omega_lo=(-1.0, 0.0), omega_hi=(1.0, 3.0))
    a = generate_samples(gen, 5, 7, seed=42)
    b = generate_samples(gen, 5, 7, seed=42)
    c = generate_samples(gen, 5, 7, seed=43)
    for sa, sb in zip(a.samples, b.samples):
        assert (sa.rho0 == sb.rho0).all()
        assert (sa.omega == sb.omega).all()
    assert any((sa.omega != sc_.omega).any() for sa, sc_ in zip(a.samples, c.samples))
    for s in a.samples:
        assert (s.rho0 >= (1.0, 2.0)).all() and (s.rho0 <= (2.0, 4.0)).all()
        assert (s.omega >= np.array([[-1.0], [0.0]])).all()
        assert (s.omega <= np.array([[1.0], [3.0]])).all()
        assert s.omega.shape == (2, 7)


def reference_generate_samples(gen, count, horizon, seed):
    """The per-draw loop that one bulk draw replaced: one ``rng.uniform``
    call for rho0 and then one for omega, draw after draw."""
    rng = np.random.default_rng(seed)
    n = len(gen.rho0_lo)
    om_lo = np.array(gen.omega_lo)[:, None]
    om_hi = np.array(gen.omega_hi)[:, None]
    rho0, omega = [], []
    for _ in range(count):
        rho0.append(rng.uniform(np.array(gen.rho0_lo), np.array(gen.rho0_hi)))
        omega.append(rng.uniform(np.broadcast_to(om_lo, (n, horizon)),
                                 np.broadcast_to(om_hi, (n, horizon))))
    return np.array(rho0), np.array(omega)


@pytest.mark.parametrize("count", [1, 300])
@pytest.mark.parametrize("section", [
    {"rho0": 260, "omega": -1500},
    {"rho0": {"lo": 0.5, "hi": 300}, "omega": {"lo": 2.0e4, "hi": 2.4e4}},
    {"rho0": [1, {"lo": 0.0, "hi": 1e-3}, {"lo": 10, "hi": 50}],
     "omega": [{"lo": 2.0e4, "hi": 2.4e4}, 0.1, {"lo": -1500, "hi": 2500}]},
], ids=["scalar", "pair", "per-edge"])
def test_bulk_draw_matches_per_draw_loop(section, count):
    gen = load_generator({"disturbance": section}, 3)
    for seed, horizon in ((0, 1), (1, 20), (7919, 60)):
        samples = generate_samples(gen, count, horizon, seed)
        rho0, omega = reference_generate_samples(gen, count, horizon, seed)
        assert samples.rho0.shape == rho0.shape and samples.omega.shape == omega.shape
        assert (samples.rho0 == rho0).all() and (samples.omega == omega).all()


def test_chunked_draws_into_a_buffer_match_one_call():
    gen = load_generator({"disturbance": {
        "rho0": [1, {"lo": 0.0, "hi": 1e-3}, {"lo": 10, "hi": 50}],
        "omega": {"lo": -1500, "hi": 2500}}}, 3)
    whole = generate_samples(gen, 1000, 60, seed=7)
    rng = np.random.default_rng(7)
    buffer = np.empty((384, 3 + 3 * 60))
    start = 0
    for count in (384, 384, 232):
        part = generate_samples(gen, count, 60, rng, out=buffer[:count])
        # no copy: the set's read-only arrays are views of the buffer
        assert np.shares_memory(part.omega, buffer)
        assert not part.rho0.flags.writeable and not part.omega.flags.writeable
        rows = slice(start, start + count)
        assert (part.rho0 == whole.rho0[rows]).all()
        assert (part.omega == whole.omega[rows]).all()
        start += count


def test_sample_set_checks_and_freezes_its_arrays():
    rho0, omega = np.zeros((2, 3)), np.ones((2, 3, 4))
    samples = SampleSet(rho0, omega)
    assert (samples.count, samples.n, samples.horizon) == (2, 3, 4)
    rho0[0, 0] = 7.0  # the set keeps its own copy
    assert samples.rho0[0, 0] == 0.0
    for stored in (samples.rho0, samples.omega):
        with pytest.raises(ValueError):
            stored[0] = 1.0
    assert [(s.rho0.shape, s.omega.shape) for s in samples.samples] == [((3,), (3, 4))] * 2
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            SampleSet(np.full((2, 3), bad), omega)
        with pytest.raises(ValueError, match="finite"):
            SampleSet(rho0, np.full((2, 3, 4), bad))
    for shapes in [((2, 3), (2, 4, 4)), ((2, 3), (3, 3, 4)), ((3,), (3, 4)),
                   ((2, 3), (2, 3))]:
        with pytest.raises(ValueError, match="shape"):
            SampleSet(np.zeros(shapes[0]), np.zeros(shapes[1]))
    with pytest.raises(ValueError, match="at least one"):
        SampleSet(np.zeros((0, 3)), np.zeros((0, 3, 4)))


def test_generator_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        GeneratorSpec(rho0_lo=(2.0,), rho0_hi=(1.0,),
                      omega_lo=(0.0,), omega_hi=(1.0,))


def test_generator_rejects_bounds_wider_than_the_float_range():
    # hi - lo would overflow in every draw
    with pytest.raises(ValueError, match="float range"):
        GeneratorSpec(rho0_lo=(0.0,), rho0_hi=(1.0,),
                      omega_lo=(-1e308,), omega_hi=(1e308,))


def test_load_generator_accepts_scalar_and_objects():
    gen = load_generator({"disturbance": {"rho0": 260,
                                          "omega": {"lo": -1.0, "hi": 2.0}}}, 3)
    assert gen.rho0_lo == gen.rho0_hi == (260.0,) * 3
    assert gen.omega_lo == (-1.0,) * 3
    assert gen.omega_hi == (2.0,) * 3


def test_load_generator_per_edge_list():
    cfg = {"disturbance": {"rho0": [1, 2, 3],
                           "omega": [{"lo": 0, "hi": 1}, 5, {"lo": -2, "hi": 2}]}}
    gen = load_generator(cfg, 3)
    assert gen.rho0_lo == (1.0, 2.0, 3.0)
    assert gen.omega_lo == (0.0, 5.0, -2.0)
    assert gen.omega_hi == (1.0, 5.0, 2.0)


def test_load_generator_errors():
    with pytest.raises(ConfigError, match="disturbance"):
        load_generator({}, 2)
    with pytest.raises(ConfigError):
        load_generator({"disturbance": {"rho0": [1, 2, 3], "omega": 0}}, 2)
    with pytest.raises(ConfigError):
        load_generator({"disturbance": {"rho0": {"lo": 1}, "omega": 0}}, 2)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key, build, path", [
    ("rho0", lambda v: v, "disturbance.rho0"),
    ("rho0", lambda v: {"lo": 0.0, "hi": v}, "disturbance.rho0"),
    ("omega", lambda v: [0.0, {"lo": v, "hi": 1.0}], "disturbance.omega[1]"),
], ids=["scalar", "pair", "per-edge"])
def test_load_generator_rejects_non_finite_bounds(key, build, path, value):
    section = {"rho0": 1.0, "omega": 0.0, key: build(value)}
    with pytest.raises(ConfigError, match=re.escape(path)):
        load_generator({"disturbance": section}, 2)


def test_batch_matches_per_sample_propagation():
    rng = np.random.default_rng(7)
    sc, gen = desk.random_scenario(rng)
    prof = sc.speed_profile([b[0] for b in sc.bands])
    samples = desk.desk_samples(sc, gen, 4, 1)
    batch = propagate_batch(sc, prof, samples)
    assert batch.rho.shape == (4, sc.n, sc.T)
    for l, s in enumerate(samples.samples):
        assert (batch.rho[l] == propagate(sc, prof, s)).all()
    assert recursion_residual(sc, batch, samples) < 1e-12


def test_batch_keeps_its_fresh_trajectories_uncopied(monkeypatch):
    # propagate_batch hands over the array propagate builds, read-only,
    # instead of a second, frozen copy of it.
    sc, gen = desk.random_scenario(np.random.default_rng(9))
    prof = sc.speed_profile([b[-1] for b in sc.bands])
    samples = desk.desk_samples(sc, gen, 5, 2)
    built = []

    def recording(*args):
        built.append(propagate(*args))
        return built[-1]

    monkeypatch.setattr("vslcert.sampling.propagate", recording)
    rho = propagate_batch(sc, prof, samples).rho
    assert rho is built[0]
    assert not rho.flags.writeable
    assert rho.base is None
    expect = propagate(sc, prof, samples)
    assert rho.dtype == expect.dtype and rho.shape == expect.shape
    assert rho.tobytes() == expect.tobytes()


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(8)
    sc, gen = desk.random_scenario(rng, n=2, T=3)
    samples = desk.desk_samples(sc, gen, 3, 5)
    rho0_path, omega_path = write_samples(samples, tmp_path / "s")
    assert rho0_path.name == "s_rho0.csv"
    assert omega_path.name == "s_omega.csv"
    assert b"\r" not in rho0_path.read_bytes()
    assert b"\r" not in omega_path.read_bytes()
    back = read_samples(tmp_path / "s", sc)
    assert back.count == 3
    for orig, loaded in zip(samples.samples, back.samples):
        assert (orig.rho0 == loaded.rho0).all()
        assert (orig.omega == loaded.omega).all()


@pytest.mark.parametrize("blocked", ["rho0", "omega"])
def test_write_samples_writes_its_pair_or_nothing(tmp_path, blocked):
    # A directory at either path fails the write; the other file of the
    # pair must not be left behind, and the directory must stay.
    rng = np.random.default_rng(8)
    sc, gen = desk.random_scenario(rng, n=2, T=3)
    samples = desk.desk_samples(sc, gen, 3, 5)
    (tmp_path / f"s_{blocked}.csv").mkdir()
    with pytest.raises(IsADirectoryError):
        write_samples(samples, tmp_path / "s")
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"s_{blocked}.csv"]
    assert (tmp_path / f"s_{blocked}.csv").is_dir()


@pytest.mark.parametrize("linked", ["rho0", "omega"])
def test_write_samples_replaces_a_symlink(tmp_path, linked):
    # A symlink at either path is replaced by a new file, as the commands
    # replace one at an output path; its target is not written through.
    rng = np.random.default_rng(8)
    sc, gen = desk.random_scenario(rng, n=2, T=3)
    samples = desk.desk_samples(sc, gen, 3, 5)
    target = tmp_path / "target.txt"
    target.write_text("keep\n")
    link = tmp_path / f"s_{linked}.csv"
    link.symlink_to(target)
    write_samples(samples, tmp_path / "s")
    assert not link.is_symlink() and link.is_file()
    assert target.read_text() == "keep\n"
    back = read_samples(tmp_path / "s", sc)
    assert (back.rho0 == samples.rho0).all() and (back.omega == samples.omega).all()


def test_read_samples_rejects_out_of_range_density(tmp_path):
    sc, _ = single_edge(T=2)
    bad = SampleSet(np.array([[100.0]]), np.zeros((1, 1, 2)))
    write_samples(bad, tmp_path / "bad")
    with pytest.raises(ConfigError, match="rho_bar"):
        read_samples(tmp_path / "bad", sc)


def test_read_samples_rejects_missing_entries(tmp_path):
    sc, _ = single_edge(T=2)
    (tmp_path / "m_rho0.csv").write_text("l,e,rho0\n1,1,5.0\n")
    (tmp_path / "m_omega.csv").write_text("l,e,t,omega\n1,1,0,0.0\n1,1,2,0.0\n")
    with pytest.raises(ConfigError, match="missing omega"):
        read_samples(tmp_path / "m", sc)


@pytest.mark.parametrize("labels, omega_rows, message", [
    # a step of -1 would otherwise overwrite the draw's last step
    ((1,), "1,1,0,1.0\n1,1,1,2.0\n1,1,-1,7.0\n",
     r"s_omega\.csv: .*sample 1: negative step -1"),
    ((1, 2), "1,1,0,1.0\n1,1,1,2.0\n2,1,0,3.0\n",
     r"s_omega\.csv: sample 2: missing omega"),
    # non-finite values would otherwise pass as data or read as gaps
    ((1,), "1,1,0,1.0\n1,1,1,inf\n",
     r"s_omega\.csv: .*sample 1: non-finite value 'inf'"),
    ((1, 2), "1,1,0,1.0\n1,1,1,2.0\n2,1,0,nan\n2,1,1,2.0\n",
     r"s_omega\.csv: .*sample 2: non-finite value 'nan'"),
    # a repeated row would otherwise overwrite the first copy silently
    ((1,), "1,1,0,1.0\n1,1,1,2.0\n1,1,0,3.0\n",
     r"s_omega\.csv: .*sample 1: repeated row for edge 1, step 0"),
    ((1, 1), "1,1,0,1.0\n1,1,1,2.0\n",
     r"s_rho0\.csv: .*sample 1: repeated row for edge 1"),
    ((1,), "1,1,0,1.0\n", r"s_omega\.csv: 1 steps, fewer than the scenario's T = 2"),
    # found missing before an array of 10**12 steps is allocated
    ((1,), "1,1,0,1.0\n1,1,1,2.0\n1,1,999999999999,3.0\n",
     r"s_omega\.csv: sample 1: missing omega"),
    # as many rows as a full draw, one of them on an edge that is not there
    ((1,), "1,1,0,1.0\n1,2,1,2.0\n", r"s_omega\.csv: sample 1: edge 2 out of range"),
], ids=["negative-step", "horizons-disagree", "inf", "nan", "repeated-omega",
        "repeated-rho0", "shorter-than-T", "huge-step", "edge-out-of-range"])
def test_read_samples_rejects_bad_steps(tmp_path, labels, omega_rows, message):
    sc, _ = single_edge(T=2)
    (tmp_path / "s_rho0.csv").write_text(
        "l,e,rho0\n" + "".join(f"{l},1,5.0\n" for l in labels))
    (tmp_path / "s_omega.csv").write_text("l,e,t,omega\n" + omega_rows)
    with pytest.raises(ConfigError, match=message):
        read_samples(tmp_path / "s", sc)


def test_read_samples_rejects_non_finite_density(tmp_path):
    sc, _ = single_edge(T=2)
    (tmp_path / "s_rho0.csv").write_text("l,e,rho0\n1,1,5.0\n2,1,-inf\n")
    (tmp_path / "s_omega.csv").write_text(
        "l,e,t,omega\n" + "".join(f"{l},1,{t},0.0\n" for l in (1, 2) for t in (0, 1)))
    with pytest.raises(ConfigError,
                       match=r"s_rho0\.csv: .*sample 2: non-finite value '-inf'"):
        read_samples(tmp_path / "s", sc)


def test_sample_shape_validation():
    with pytest.raises(ValueError):
        DisturbanceSample(np.array([1.0, 2.0]), np.zeros((1, 3)))
    with pytest.raises(ValueError):
        DisturbanceSample(np.array([np.nan]), np.zeros((1, 3)))
    sc, prof = single_edge(T=4)
    short = DisturbanceSample(np.array([1.0]), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="horizon"):
        propagate(sc, prof, short)


def test_longer_draws_truncate_cleanly():
    # validation draws a longer horizon and reuses the prefix for training
    sc, prof = single_edge(T=3)
    gen = GeneratorSpec(rho0_lo=(1.0,), rho0_hi=(2.0,),
                        omega_lo=(0.0,), omega_hi=(0.5,))
    long = generate_samples(gen, 1, 9, seed=0).samples[0]
    clipped = DisturbanceSample(long.rho0, long.omega[:, :3])
    assert (propagate(sc, prof, long) == propagate(sc, prof, clipped)).all()
