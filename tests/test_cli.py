import csv
import errno
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import desk
import oracles
import vslcert
from vslcert import cli
from vslcert.cli import _fmt, _write_csv, build_parser, main
from vslcert.errors import InfeasibleScenarioError
from vslcert.network import load_scenario, read_config

DATA = Path(__file__).parent / "data"
DESK = str(DATA / "desk2.json")
SENTINEL = str(DATA / "sentinel2.json")
HIGHWAY = str(DATA / "highway5.json")


def read_table(path):
    """Split '# key=value' comment lines from the CSV body."""
    header = {}
    body = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition("=")
                header[key] = value
            else:
                body.append(line)
    rows = list(csv.DictReader(body))
    return header, rows


def test_simulate_writes_parseable_trajectories(tmp_path):
    rc = main(["simulate", "--scenario", DESK, "--out", str(tmp_path),
               "--seed", "3", "--count", "2", "--speeds", "0.4,0.8"])
    assert rc == 0
    header, rows = read_table(tmp_path / "trajectories.csv")
    assert b"\r" not in (tmp_path / "trajectories.csv").read_bytes()
    assert header["u"] == "0.4,0.8"
    assert len(rows) == 2 * 2 * 3
    for row in rows:
        assert float(row["rho"]) >= 0.0
        assert int(row["t"]) in (1, 2, 3)


def test_certify_reports_known_value(tmp_path):
    rc = main(["certify", "--scenario", DESK, "--out", str(tmp_path),
               "--seed", "3", "--count", "2", "--speeds", "0.4,0.8"])
    assert rc == 0
    header, rows = read_table(tmp_path / "certificate.csv")
    table = {r["key"]: r["value"] for r in rows}
    assert table["status"] == "finite"
    assert float(table["value"]) == pytest.approx(2.2423061619883944,
                                                  rel=1e-12)
    assert float(table["lambda_star"]) == pytest.approx(0.26666666666666666,
                                                        rel=1e-12)
    assert float(table["epsilon"]) == 0.5
    assert header["seed"] == "3"


def test_solve_matches_brute_force(tmp_path):
    solve_dir = tmp_path / "solve"
    bf_dir = tmp_path / "bf"
    rc = main(["solve", "--scenario", DESK, "--out", str(solve_dir),
               "--seed", "3", "--count", "2"])
    assert rc == 0
    rc = main(["brute-force", "--scenario", DESK, "--out", str(bf_dir),
               "--seed", "3", "--count", "2"])
    assert rc == 0

    res_header, res_rows = read_table(solve_dir / "result.csv")
    bf_header, bf_rows = read_table(bf_dir / "brute_force.csv")
    assert res_header["feasible"] == "True"
    assert res_header["termination"] == "enumerated"
    assert res_header["gap"] == "0.0"
    assert res_header["upper_bound"] == res_header["j_hat"]
    assert float(res_header["j_hat"]) == float(bf_header["j_star"])
    assert [r["u"] for r in res_rows] == [r["u"] for r in bf_rows]

    with open(DESK) as fh:
        menu = json.load(fh)["gamma"]
    for row in res_rows:
        assert float(row["u"]) in menu

    assert not (solve_dir / "report.csv").exists()


def test_budgeted_solve_reruns_identically(tmp_path):
    # A time limit binds only past the enumeration cap; the corridor's
    # 1,875 profiles are solved exactly by branch-and-bound, so two runs
    # agree in every byte but the wall time.
    runs = []
    for name in ("a", "b"):
        rc = main(["solve", "--scenario", HIGHWAY, "--out", str(tmp_path / name),
                   "--seed", "0", "--time-limit", "10"])
        assert rc == 0
        runs.append({
            csv_name: [line for line in (tmp_path / name / csv_name).read_text()
                       .splitlines() if not line.startswith("# wall_s=")]
            for csv_name in ("result.csv",)
        })
    assert runs[0] == runs[1]
    rc = main(["brute-force", "--scenario", HIGHWAY, "--out", str(tmp_path / "bf"),
               "--seed", "0"])
    assert rc == 0
    header, rows = read_table(tmp_path / "a" / "result.csv")
    bf_header, bf_rows = read_table(tmp_path / "bf" / "brute_force.csv")
    assert header["termination"] == "enumerated"
    assert header["j_hat"] == bf_header["j_star"]
    assert [r["u"] for r in rows] == [r["u"] for r in bf_rows]
    # The winner certified on its own writes the same value string.
    rc = main(["certify", "--scenario", HIGHWAY, "--out", str(tmp_path / "cert"),
               "--seed", "0", "--speeds", ",".join(r["u"] for r in rows)])
    assert rc == 0
    _, cert_rows = read_table(tmp_path / "cert" / "certificate.csv")
    assert {r["key"]: r["value"] for r in cert_rows}["value"] == header["j_hat"]


def _src_env():
    """The environment with this vslcert first on PYTHONPATH."""
    src = str(Path(vslcert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]]
                                               if env.get("PYTHONPATH") else []))
    return env


def test_commands_start_without_scipy(tmp_path):
    # scipy is a test dependency: no command imports it, a solve past the
    # enumeration cap included; vslcert.lpsolve itself is still imported,
    # without it. Nor does any command load numpy.ma (np.unique does),
    # which takes a noticeable share of a cold start.
    wide = tmp_path / "corridor8.json"
    wide.write_text(json.dumps(desk.corridor_config(8)))
    script = f"""
import json, sys
from vslcert.cli import main
out = {str(tmp_path)!r}
common = ["--scenario", {HIGHWAY!r}, "--out", out]
codes = [
    main(["certify", *common, "--speeds", "120,120,120,80,120"]),
    main(["brute-force", *common]),
    main(["solve", *common]),
    main(["validate", *common, "--speeds", "120,120,120,80,120",
          "--jhat", "1e5", "--nval", "50"]),
    main(["solve", "--scenario", {str(wide)!r}, "--out", out + "/wide",
          "--seed", "100", "--time-limit", "60"]),
]
print(json.dumps({{
    "codes": codes,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "lpsolve": "vslcert.lpsolve" in sys.modules,
    "numpy.ma": "numpy.ma" in sys.modules,
}}))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"codes": [0, 0, 0, 0, 0], "scipy": [], "lpsolve": True,
                    "numpy.ma": False}
    header, rows = read_table(tmp_path / "wide" / "result.csv")
    assert header["termination"] == "enumerated"
    assert [float(r["u"]) for r in rows] == [120, 120, 120, 80, 120, 120, 120, 100]


def test_validate_outputs(tmp_path):
    rc = main(["validate", "--scenario", DESK, "--out", str(tmp_path),
               "--seed", "3", "--speeds", "0.4,0.8",
               "--jhat", "2.2423061619883944", "--nval", "40"])
    assert rc == 0
    header, rows = read_table(tmp_path / "summary.csv")
    assert header["n_val"] == "40"
    assert header["horizon"] == "9"
    assert header["guarantee"] in ("True", "False")
    assert len(rows) == 2
    _, cells = read_table(tmp_path / "density_mean.csv")
    assert len(cells) == 2 * 9
    assert {r["l"] for r in cells} == {"1"}


def test_validate_memory_is_bounded_in_nval(tmp_path):
    # validate streams its fresh draws in chunks: 100,000 corridor draws
    # (2.4 GB of states at 1e6) must fit in a fixed budget. The peak RSS is
    # that of a child of a fresh interpreter, which runs nothing else.
    script = f"""
import resource, subprocess, sys
proc = subprocess.run([sys.executable, "-m", "vslcert.cli", "validate",
                       "--scenario", {HIGHWAY!r}, "--out", {str(tmp_path)!r},
                       "--speeds", "120,120,120,80,120", "--jhat", "1e5",
                       "--nval", "100000"], capture_output=True, text=True)
print(proc.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
print(proc.stderr, file=sys.stderr)
"""
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    assert peak_kb < 150 * 1024
    header, _ = read_table(tmp_path / "summary.csv")
    assert header["n_val"] == "100000"


def test_outputs_are_deterministic(tmp_path):
    args = ["certify", "--scenario", DESK, "--seed", "5", "--count", "3",
            "--speeds", "0.8,0.4"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "certificate.csv").read_bytes() == \
        (b / "certificate.csv").read_bytes()


def test_sample_csv_pair_round_trips(tmp_path):
    from vslcert.network import load_scenario
    from vslcert.sampling import generate_samples, load_generator, write_samples

    with open(DESK) as fh:
        cfg = json.load(fh)
    scenario = load_scenario(cfg)
    gen = load_generator(cfg, scenario.n)
    samples = generate_samples(gen, 2, scenario.T, seed=3)
    prefix = str(tmp_path / "draw")
    write_samples(samples, prefix)

    rc = main(["certify", "--scenario", DESK, "--out", str(tmp_path),
               "--samples", prefix, "--speeds", "0.4,0.8"])
    assert rc == 0
    header, rows = read_table(tmp_path / "certificate.csv")
    assert header["samples"] == prefix
    table = {r["key"]: r["value"] for r in rows}
    assert float(table["value"]) == pytest.approx(2.2423061619883944,
                                                  rel=1e-12)


def test_longer_sample_file_solves_like_brute_force(tmp_path):
    # A written draw longer than the scenario's T is truncated to T by
    # every command that reads it, as propagation truncates it.
    from vslcert.sampling import generate_samples, load_generator, write_samples

    cfg = read_config(HIGHWAY)
    scenario = load_scenario(cfg)
    gen = load_generator(cfg, scenario.n)
    samples = generate_samples(gen, 3, scenario.T + 5, seed=0)
    prefix = str(tmp_path / "long")
    write_samples(samples, prefix)
    for command in ("solve", "brute-force"):
        rc = main([command, "--scenario", HIGHWAY, "--samples", prefix,
                   "--out", str(tmp_path / command)])
        assert rc == 0
    header, rows = read_table(tmp_path / "solve" / "result.csv")
    bf_header, bf_rows = read_table(tmp_path / "brute-force" / "brute_force.csv")
    assert header["termination"] == "enumerated"
    assert header["j_hat"] == bf_header["j_star"]
    assert [r["u"] for r in rows] == [r["u"] for r in bf_rows]


@pytest.mark.parametrize("jhat", ["nan", "inf", "-inf"])
def test_validate_rejects_non_finite_jhat(tmp_path, capsys, jhat):
    rc = main(["validate", "--scenario", HIGHWAY, "--out", str(tmp_path),
               "--speeds", "120,120,120,80,120", f"--jhat={jhat}", "--nval", "5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: --jhat: j_hat must be finite, got {float(jhat)!r}\n"
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("flag, value", [
    ("--time-limit", "nan"), ("--time-limit", "-1"), ("--time-limit", "inf"),
    ("--time-limit", "0"),
])
def test_solve_rejects_bad_budget(tmp_path, capsys, flag, value):
    rc = main(["solve", "--scenario", DESK, "--out", str(tmp_path),
               "--count", "2", f"{flag}={value}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--time-limit: time_limit must be finite and positive" in err
    assert not (tmp_path / "result.csv").exists()


def test_missing_scenario_is_config_error(tmp_path):
    rc = main(["certify", "--scenario", str(tmp_path / "absent.json"),
               "--out", str(tmp_path), "--speeds", "0.4,0.8"])
    assert rc == 2


def test_malformed_json_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path),
               "--speeds", "0.4,0.8"])
    assert rc == 2
    # a file that is not UTF-8 text is refused naming the file
    bad.write_bytes(b"\xff\xfe{}")
    capsys.readouterr()
    rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path),
               "--speeds", "0.4,0.8"])
    assert rc == 2
    assert f"{bad}: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("epsilon", math.nan),
    ("epsilon", math.inf),
    ("L_km", math.nan),
    ("pi", math.nan),
    ("disturbance", {"rho0": math.nan, "omega": 0.0}),
    ("epsilon", 10 ** 400),
    ("disturbance", {"rho0": {"lo": [1], "hi": 2}, "omega": 0.0}),
])
def test_bad_config_number_is_config_error(tmp_path, capsys, key, value):
    with open(DESK) as fh:
        cfg = json.load(fh)
    cfg[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    rc = main(["certify", "--scenario", str(bad), "--out", str(tmp_path),
               "--count", "2", "--speeds", "0.4,0.8"])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "certificate.csv").exists()


@pytest.mark.parametrize("path", ["epsilom", "segments[1].rho_UU",
                                  "disturbance.omegaa"])
def test_unknown_config_key_is_config_error(tmp_path, capsys, path):
    # a misspelt optional key must not fall back to its default
    with open(DESK) as fh:
        cfg = json.load(fh)
    where, _, key = path.rpartition(".")
    section = {"": cfg, "segments[1]": cfg["segments"][1],
               "disturbance": cfg["disturbance"]}[where]
    section[key] = 0.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    rc = main(["certify", "--scenario", str(bad), "--out", str(tmp_path),
               "--count", "2", "--speeds", "0.4,0.8"])
    assert rc == 2
    assert f"{path}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "certificate.csv").exists()


def test_off_menu_speed_is_config_error(tmp_path):
    rc = main(["certify", "--scenario", DESK, "--out", str(tmp_path),
               "--speeds", "0.5,0.8"])
    assert rc == 2
    rc = main(["certify", "--scenario", DESK, "--out", str(tmp_path),
               "--speeds", "a,b"])
    assert rc == 2


def test_sentinel_scenario_exit_codes(tmp_path):
    rc = main(["brute-force", "--scenario", SENTINEL,
               "--out", str(tmp_path), "--seed", "0", "--count", "2"])
    assert rc == 3
    rc = main(["solve", "--scenario", SENTINEL, "--out", str(tmp_path),
               "--seed", "0", "--count", "2"])
    assert rc == 3
    header, rows = read_table(tmp_path / "result.csv")
    assert header["feasible"] == "False"
    assert rows == []


def test_sentinel_certificate_still_reports(tmp_path):
    rc = main(["certify", "--scenario", SENTINEL, "--out", str(tmp_path),
               "--seed", "0", "--count", "2", "--speeds", "0.4,0.8"])
    assert rc == 0
    _, rows = read_table(tmp_path / "certificate.csv")
    table = {r["key"]: r["value"] for r in rows}
    assert table["status"] == "invalid_empty_ambiguity"
    assert float(table["value"]) == -math.inf
    assert float(table["lambda_star"]) == math.inf


@pytest.mark.parametrize("disturbance", [{"rho0": 1e307}, {"omega": 1.7e308}])
def test_overflowing_disturbance_is_config_error(tmp_path, capsys, disturbance):
    # Finite draws whose propagation overflows must not yield a NaN result.
    with open(HIGHWAY) as fh:
        cfg = json.load(fh)
    cfg["disturbance"].update(disturbance)
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    common = ["--scenario", str(bad), "--out", str(out)]
    speeds = ["--speeds", "120,120,120,80,120"]
    for args in (["simulate", *common, *speeds], ["certify", *common, *speeds],
                 ["solve", *common], ["brute-force", *common],
                 ["validate", *common, *speeds, "--jhat", "1e5", "--nval", "20"]):
        assert main(args) == 2, args[0]
        assert "overflow" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_objective_sum_is_config_error(tmp_path, capsys):
    # Each draw's flows are in range, but 100 of them sum past it.
    cfg = dict(read_config(DESK), disturbance={"rho0": 1e307, "omega": 0.0})
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["validate", "--scenario", str(path), "--out", str(out),
                 "--speeds", "0.8,0.4", "--jhat", "1.0", "--nval", "100"]) == 2
    assert "overflow" in capsys.readouterr().err
    assert not out.exists()


def number(usual):
    """Any finite float, or the config's own value half of the time."""
    return st.one_of(st.just(usual), st.floats(allow_nan=False, allow_infinity=False))


def bounds(draw, usual):
    """A disturbance bound: a number or an ordered {lo, hi} pair."""
    if draw(st.booleans()):
        return draw(number(usual))
    lo, hi = sorted((draw(number(usual)), draw(number(usual))))
    return {"lo": lo, "hi": hi}


@st.composite
def fuzzed_configs(draw):
    """The corridor with rho0, omega, epsilon and gamma anywhere in the
    finite float range. The speed grid is sorted, so that most draws get
    past the check that it increases."""
    cfg = read_config(HIGHWAY)
    cfg["disturbance"] = {"rho0": bounds(draw, 260.0), "omega": bounds(draw, 2.0e4)}
    cfg["epsilon"] = draw(number(1000.0))
    cfg["gamma"] = sorted(draw(st.lists(number(80.0), min_size=1, max_size=3,
                                        unique=True)))
    return cfg


@settings(max_examples=60, deadline=None)
@given(fuzzed_configs())
@example(dict(read_config(HIGHWAY), epsilon=1e308))  # lam * epsilon overflows
def test_certify_fuzzed_input_exits_or_gives_number(cfg):
    assert_certify_exits_or_gives_number(cfg)


def assert_certify_exits_or_gives_number(cfg):
    """certify of the top-of-band profile exits 2 or 3, or writes a finite
    value or the sentinel."""
    try:
        scenario = load_scenario(cfg)
        speeds = [band[-1] for band in scenario.bands]
    except (ValueError, InfeasibleScenarioError):  # certify must refuse it too
        speeds = [cfg["gamma"][0]] * max(cfg["n"], 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["certify", "--scenario", str(path), "--out", tmp,
                   "--speeds=" + ",".join(repr(float(v)) for v in speeds)])
        if rc in (2, 3):
            return
        assert rc == 0
        _, rows = read_table(Path(tmp) / "certificate.csv")
    table = {r["key"]: r["value"] for r in rows}
    value = float(table["value"])
    if table["status"] == "finite":
        assert math.isfinite(value), table
    else:
        assert table["status"] == "invalid_empty_ambiguity"
        assert value == -math.inf, table


def any_number(usual):
    """The usual value, that value scaled by up to 100 either way, or any
    finite float."""
    return st.one_of(st.just(usual), st.floats(0.01, 100.0).map(lambda k: k * usual),
                     st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def fuzzed_scenarios(draw):
    """The corridor with n and T small, and up to four of L_km, delta_s,
    pi and the segments' f_bar, rho_bar, u_bar, f_U and rho_U anywhere in
    the finite float range. Segment e is the corridor's segment e mod 5,
    and the disturbance is one bound for every edge, so that any n gets
    past them."""
    cfg = read_config(HIGHWAY)
    cfg["n"] = draw(st.integers(-1, 6))
    cfg["T"] = draw(st.integers(-1, 24))
    cfg["pi"] = 1.0
    cfg["segments"] = [dict(cfg["segments"][e % 5]) for e in range(max(cfg["n"], 0))]
    cfg["disturbance"] = {"rho0": 260.0, "omega": {"lo": -1500.0, "hi": 2.4e4}}
    keys = [(cfg, key) for key in ("L_km", "delta_s", "pi")] + [
        (segment, key) for segment in cfg["segments"]
        for key in ("f_bar", "rho_bar", "u_bar", "f_U", "rho_U")]
    for section, key in draw(st.lists(st.sampled_from(keys), max_size=4)):
        section[key] = draw(any_number(float(section[key])))
    return cfg


@settings(max_examples=80, deadline=None)
@given(fuzzed_scenarios())
def test_certify_fuzzed_scenario_exits_or_gives_number(cfg):
    assert_certify_exits_or_gives_number(cfg)


@settings(max_examples=80, deadline=None)
@given(fuzzed_scenarios())
def test_searches_and_validate_on_fuzzed_scenario(cfg):
    """solve, brute-force and validate of the solved profile exit 2 or 3,
    or give a finite value or the sentinel; when both searches exit 0,
    solve's j_hat and profile are brute-force's, bit for bit."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        common = ["--scenario", str(path)]
        codes = [main(["solve", *common, "--out", tmp + "/solve"]),
                 main(["brute-force", *common, "--out", tmp + "/bf"])]
        assert set(codes) <= {0, 2, 3}, codes
        if codes[1] == 0:
            bf_header, bf_rows = read_table(Path(tmp) / "bf" / "brute_force.csv")
            assert math.isfinite(float(bf_header["j_star"])), bf_header
        if codes[0] != 0:
            return
        header, rows = read_table(Path(tmp) / "solve" / "result.csv")
        assert math.isfinite(float(header["j_hat"])), header
        if codes[1] == 0:
            assert header["j_hat"] == bf_header["j_star"]
            assert [r["u"] for r in rows] == [r["u"] for r in bf_rows]
        speeds = ",".join(r["u"] for r in rows)
        rc = main(["validate", *common, "--speeds", speeds, "--jhat", header["j_hat"],
                   "--nval", "20", "--out", tmp + "/validate"])
        if rc in (2, 3):
            return
        assert rc == 0
        header, _ = read_table(Path(tmp) / "validate" / "summary.csv")
    assert math.isfinite(float(header["mean_objective"])), header


def any_bound(draw):
    """A bound anywhere in the finite float range: a number or a {lo, hi}
    pair, mostly ordered."""
    value = st.floats(allow_nan=False, allow_infinity=False)
    if draw(st.booleans()):
        return draw(value)
    lo, hi = draw(value), draw(value)
    if draw(st.integers(0, 9)):
        lo, hi = sorted((lo, hi))
    return {"lo": lo, "hi": hi}


@st.composite
def fuzzed_disturbances(draw):
    """desk2's disturbance section in its three forms: one bound for every
    edge, or a per-edge list."""
    section = {}
    for key in ("rho0", "omega"):
        if draw(st.booleans()):
            section[key] = [any_bound(draw) for _ in range(2)]
        else:
            section[key] = any_bound(draw)
    return section


@settings(max_examples=60, deadline=None)
@given(fuzzed_disturbances())
@example({"rho0": 1e307, "omega": {"lo": -1.7e308, "hi": 1.7e308}})
@example({"rho0": [0.0, 5e-324], "omega": [1e308, {"lo": -1e308, "hi": 0.0}]})
def test_fuzzed_disturbance_exits_or_gives_finite_values(section):
    cfg = dict(read_config(DESK), disturbance=section)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        common = ["--scenario", str(path), "--speeds", "0.8,0.4"]
        rc = main(["certify", *common, "--out", tmp + "/certify"])
        if rc != 2:
            assert rc == 0
            _, rows = read_table(Path(tmp) / "certify" / "certificate.csv")
            table = {r["key"]: r["value"] for r in rows}
            if table["status"] == "finite":
                assert math.isfinite(float(table["value"])), table
            else:
                assert float(table["value"]) == -math.inf, table
        rc = main(["validate", *common, "--jhat", "1.0", "--nval", "20",
                   "--out", tmp + "/validate"])
        if rc == 2:
            return
        assert rc == 0
        header, rows = read_table(Path(tmp) / "validate" / "summary.csv")
        _, cells = read_table(Path(tmp) / "validate" / "density_mean.csv")
    assert math.isfinite(float(header["mean_objective"])), header
    assert all(math.isfinite(float(r["max_mean_density"])) for r in rows)
    assert all(math.isfinite(float(r["rho"])) for r in cells)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["highway5", "desk2", "sentinel2"])
def test_solve_and_brute_force_agree(tmp_path, name, seed):
    # solve runs the branch-and-bound, brute-force the walk with no prune test.
    common = ["--scenario", str(DATA / f"{name}.json"), "--seed", str(seed)]
    codes = [main(["solve", *common, "--out", str(tmp_path / "solve")]),
             main(["brute-force", *common, "--out", str(tmp_path / "bf")])]
    header, rows = read_table(tmp_path / "solve" / "result.csv")
    assert int(header["nodes_pruned"]) <= int(header["nodes_expanded"])
    if name == "sentinel2":
        assert codes == [3, 3]
        assert header["feasible"] == "False"
        return
    assert codes == [0, 0]
    bf_header, bf_rows = read_table(tmp_path / "bf" / "brute_force.csv")
    assert [r["u"] for r in rows] == [r["u"] for r in bf_rows]
    assert float(header["j_hat"]) == float(bf_header["j_star"])


def test_nodes_are_counted_past_the_cap(tmp_path, monkeypatch):
    monkeypatch.setattr("vslcert.search.DEFAULT_ENUM_CAP", 0)
    assert main(["solve", "--scenario", DESK, "--out", str(tmp_path)]) == 0
    header, _ = read_table(tmp_path / "result.csv")
    assert header["termination"] == "enumerated"
    assert 0 <= int(header["nodes_pruned"]) <= int(header["nodes_expanded"])
    assert "gap_eps" not in header
    assert sorted(p.name for p in tmp_path.iterdir()) == ["result.csv"]


def test_stopped_solve_without_incumbent_exits_3(tmp_path):
    # On the 10-cell corridor at seed 100 the top-of-band seed has an empty
    # ambiguity set, so a search stopped at its first chunk has no profile.
    wide = tmp_path / "corridor10.json"
    wide.write_text(json.dumps(desk.corridor_config(10)))
    rc = main(["solve", "--scenario", str(wide), "--out", str(tmp_path),
               "--seed", "100", "--time-limit", "1e-9"])
    assert rc == 3
    header, rows = read_table(tmp_path / "result.csv")
    assert (header["termination"], header["feasible"]) == ("time_limit", "False")
    assert (header["j_hat"], header["gap"]) == ("-inf", "inf")
    assert math.isfinite(float(header["upper_bound"]))
    assert rows == []


# main builds its parser once per process and reuses it. The parser's
# set_defaults(func=cmd_*) binds the command functions at that first
# build, so a monkeypatch of vslcert.cli.cmd_* made after it is not seen;
# patch the names those commands call instead, as
# test_nodes_are_counted_past_the_cap patches vslcert.search.DEFAULT_ENUM_CAP.


def masked_outputs(out):
    """Every file a command wrote under ``out``, wall-time lines masked."""
    return {path.relative_to(out).as_posix():
            [line for line in path.read_text().splitlines()
             if not line.startswith("# wall_s=")]
            for path in sorted(out.rglob("*.csv"))}


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_failed_parse_leaves_the_parser_as_it_was(tmp_path):
    """A call that argparse rejects (exit 2) changes nothing the next
    valid call sees."""
    common = ["--scenario", DESK, "--count", "2"]
    assert main(["solve", *common, "--out", str(tmp_path / "before")]) == 0
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["solve", *common, "--time-limit", "x", "--out", str(tmp_path / "bad")])
    assert exc.value.code == 2
    assert "--time-limit: invalid float value: 'x'" in err.getvalue()
    assert main(["solve", *common, "--out", str(tmp_path / "after")]) == 0
    assert not (tmp_path / "bad").exists()
    assert masked_outputs(tmp_path / "after") == masked_outputs(tmp_path / "before")


def test_options_do_not_leak_into_the_next_call(tmp_path):
    """Options given to one call leave the next call its defaults."""
    assert main(["solve", "--scenario", DESK, "--out", str(tmp_path / "set"),
                 "--time-limit", "3", "--count", "2", "--seed", "4"]) == 0
    header, _ = read_table(tmp_path / "set" / "result.csv")
    assert (header["time_limit"], header["count"], header["seed"]) == ("3.0", "2", "4")
    assert main(["solve", "--scenario", DESK, "--out", str(tmp_path / "bare")]) == 0
    header, _ = read_table(tmp_path / "bare" / "result.csv")
    assert (header["time_limit"], header["count"], header["seed"]) == ("none", "3", "0")


CALLS = {
    "simulate": ["--speeds", "0.4,0.8"],
    "certify": ["--speeds", "0.4,0.8"],
    "solve": [],
    "brute-force": [],
    "validate": ["--speeds", "0.4,0.8", "--jhat", "2.0", "--nval", "20"],
}


@pytest.mark.parametrize("command", sorted(CALLS))
def test_command_output_does_not_depend_on_earlier_calls(tmp_path, command):
    """In a fresh interpreter, a command run first writes the same bytes as
    the same command run after every other subcommand and a rejected one."""
    script = f"""
from vslcert.cli import main
calls = {CALLS!r}
command = {command!r}
def run(name, out):
    return main([name, "--scenario", {DESK!r}, "--seed", "2", "--out", out,
                 *calls[name]])
codes = [run(command, {str(tmp_path / "first")!r})]
for name in calls:
    codes.append(run(name, {str(tmp_path / "others")!r} + "/" + name))
try:
    main(["solve", "--scenario", {DESK!r}, "--time-limit", "x"])
except SystemExit as exc:
    codes.append(exc.code)
codes.append(run(command, {str(tmp_path / "last")!r}))
print(codes)
"""
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str([0] * 6 + [2, 0])
    first = masked_outputs(tmp_path / "first")
    assert first and first == masked_outputs(tmp_path / "last")


@pytest.mark.parametrize("command", sorted(CALLS))
def test_negative_seed_is_config_error(tmp_path, capsys, command):
    rc = main([command, "--scenario", DESK, "--seed", "-1",
               "--out", str(tmp_path), *CALLS[command]])
    assert rc == 2
    assert "--seed: expected a non-negative integer" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# Every count above 0 and every horizon below asks for more than 2**47 bytes,
# more than a process can map, so the allocation fails at once without
# touching memory.
@pytest.mark.parametrize("count", ["0", "10000000000000", "100000000000000000"])
@pytest.mark.parametrize("command", ["brute-force", "certify", "simulate", "solve"])
def test_bad_count_is_config_error_naming_it(tmp_path, capsys, command, count):
    rc = main([command, "--scenario", DESK, "--count", count,
               "--out", str(tmp_path), *CALLS[command]])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: --count: " in err
    assert ("count must be at least 1" in err) == (count == "0")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", sorted(CALLS))
def test_horizon_too_long_to_allocate_names_T(tmp_path, capsys, command):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(dict(read_config(DESK), T=10**13)))
    out = tmp_path / "out"
    rc = main([command, "--scenario", str(path), "--out", str(out), *CALLS[command]])
    assert rc == 2
    assert "error: T: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(CALLS))
def test_out_under_a_file_is_config_error(tmp_path, capsys, command):
    # An --out that is, or lies under, a regular file exits 2 naming it.
    afile = tmp_path / "afile"
    afile.write_text("")
    for out in (afile / "sub", afile):
        rc = main([command, "--scenario", DESK, "--out", str(out), *CALLS[command]])
        assert rc == 2
        assert str(out) in capsys.readouterr().err
    assert afile.read_text() == ""


# The files each command writes under --out, in the order it writes them.
OUTPUTS = {
    "simulate": ["trajectories.csv"],
    "certify": ["certificate.csv"],
    "solve": ["result.csv"],
    "brute-force": ["brute_force.csv"],
    "validate": ["summary.csv", "density_mean.csv"],
}


def _run(command, out):
    return main([command, "--scenario", DESK, "--out", str(out), *CALLS[command]])


@pytest.mark.parametrize("command", sorted(CALLS))
def test_rerun_replaces_stale_outputs(tmp_path, command):
    """Longer garbage at every output path, and symlinks there, leave the
    bytes of a fresh run: each output is a new regular file, and a
    symlink's target is not written through."""
    assert _run(command, tmp_path / "fresh") == 0
    fresh = masked_outputs(tmp_path / "fresh")
    assert sorted(fresh) == sorted(OUTPUTS[command])
    stale, linked = tmp_path / "stale", tmp_path / "linked"
    stale.mkdir()
    linked.mkdir()
    targets = {}
    for name in OUTPUTS[command]:
        size = (tmp_path / "fresh" / name).stat().st_size
        (stale / name).write_text("garbage,row\n" * (size // 6 + 10))
        targets[name] = (tmp_path / f"target-{name}", "keep me\n" * (size // 4 + 10))
        targets[name][0].write_text(targets[name][1])
        (linked / name).symlink_to(targets[name][0])
    for out in (stale, linked):
        assert _run(command, out) == 0
        assert masked_outputs(out) == fresh
    for name, (target, text) in targets.items():
        assert not (linked / name).is_symlink()
        assert (linked / name).is_file()
        assert target.read_text() == text


@pytest.mark.parametrize("command, name", [(c, n) for c in sorted(CALLS)
                                           for n in OUTPUTS[c]])
def test_directory_at_output_path_is_config_error(tmp_path, capsys, command, name):
    # A command writes all of its outputs or none: no other output exists
    # beside the directory, not even one created before it.
    path = tmp_path / name
    (path / "inner").mkdir(parents=True)
    assert _run(command, tmp_path) == 2
    assert f"error: {path}: cannot write file: " in capsys.readouterr().err
    assert (path / "inner").is_dir()
    assert [p.name for p in tmp_path.iterdir()] == [name]


class FullDisk:
    """A file opened for writing whose every write fails as on a full
    disk."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def close(self):
        self.fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@pytest.mark.parametrize("command, name", [(c, n) for c in sorted(CALLS)
                                           for n in OUTPUTS[c]])
def test_failed_write_exits_2_and_leaves_no_output(tmp_path, capsys, monkeypatch,
                                                   command, name):
    # The write fails after the file is created; the command removes what
    # it created, every output of it, and exits 2 naming the file.
    create = cli._create
    monkeypatch.setattr(cli, "_create", lambda path: (
        FullDisk(create(path)) if path.name == name else create(path)))
    assert _run(command, tmp_path) == 2
    err = capsys.readouterr().err
    assert f"error: {tmp_path / name}: cannot write file: {os.strerror(errno.ENOSPC)}" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_every_output_is_created_inside_write_csv(tmp_path, monkeypatch):
    # One write path: each output is created by a _write_csv call of its
    # own, so a span around _write_csv covers every output's creation.
    writes, creates, inside = [], [], []
    write_csv, create = cli._write_csv, cli._create

    def traced_write_csv(path, *args):
        writes.append(path.name)
        inside.append(path.name)
        try:
            return write_csv(path, *args)
        finally:
            inside.pop()

    def traced_create(path):
        creates.append((path.name, inside == [path.name]))
        return create(path)

    monkeypatch.setattr(cli, "_write_csv", traced_write_csv)
    monkeypatch.setattr(cli, "_create", traced_create)
    speeds = ["--speeds", "120,120,120,80,120"]
    for command, extra in (("simulate", speeds), ("certify", speeds), ("solve", []),
                           ("brute-force", []),
                           ("validate", [*speeds, "--jhat", "1e5", "--nval", "20"])):
        writes.clear()
        creates.clear()
        out = tmp_path / command
        assert main([command, "--scenario", HIGHWAY, "--out", str(out), *extra]) == 0
        assert writes == OUTPUTS[command]
        assert creates == [(name, True) for name in OUTPUTS[command]]
        assert sorted(p.name for p in out.iterdir()) == sorted(OUTPUTS[command])


FMT_VALUES = [1.5, 0.1, 1e-300, 2.0 ** 70, -0.0, math.inf, -math.inf, math.nan,
              np.float64(0.1), np.float64(-0.0), np.float32(0.1), np.float32(np.inf),
              0, -7, 10 ** 30, np.int64(-3), np.int32(5), True, False,
              np.bool_(True), np.bool_(False), "", "finite", "1,2"]


@pytest.mark.parametrize("value", FMT_VALUES, ids=repr)
def test_fmt_matches_the_reference(value):
    assert _fmt(value) == oracles.fmt(value)


def test_write_csv_streams_rows(tmp_path):
    """Writing 200,000 rows holds far less than their text at once: rows
    go through the file's buffer, not into one string. The fields are
    strings, which format without allocating, to keep tracing quick."""
    rows = itertools.repeat(("1", "2", "3", "0.12345678901234"), 200_000)
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        _write_csv(path, {"command": "test"}, ["l", "e", "t", "rho"], rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 4_000_000
    assert peak < 256 * 1024, (peak, size)


BAD_TEXT = ("", "abc", "1,5", "nan", "NaN", "-nan", "inf", "-inf", "Infinity",
            "1e999", "0x10")


@st.composite
def sample_files(draw):
    """The text of a desk2 sample CSV pair (T = 3): one to three draws of
    one to five steps, with rows dropped, repeated or given a negative
    step, fields replaced by text that is not a finite number, and LF or
    CRLF line endings."""
    count, horizon = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    rho0 = [[str(l), str(e), repr(draw(st.floats(0.0, 60.0)))]
            for l in range(1, count + 1) for e in (1, 2)]
    omega = [[str(l), str(e), str(t), repr(draw(st.floats(-50.0, 50.0)))]
             for l in range(1, count + 1) for e in (1, 2) for t in range(horizon)]
    for rows, kinds in ((rho0, ("drop", "repeat", "text")),
                        (omega, ("drop", "repeat", "text", "negative"))):
        for _ in range(draw(st.integers(0, 3))):
            if not rows:
                break
            i = draw(st.integers(0, len(rows) - 1))
            kind = draw(st.sampled_from(kinds))
            if kind == "drop":
                del rows[i]
            elif kind == "repeat":
                rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
            elif kind == "negative":
                rows[i][2] = str(-draw(st.integers(1, horizon)))
            else:
                rows[i][draw(st.integers(0, len(rows[i]) - 1))] = \
                    draw(st.sampled_from(BAD_TEXT))
    end = draw(st.sampled_from(("\n", "\r\n")))
    return tuple(end.join([head] + [",".join(row) for row in rows]) + end
                 for head, rows in (("l,e,rho0", rho0), ("l,e,t,omega", omega)))


def clean_files(count, horizon, end="\n", cells=2):
    """A well-formed sample pair of ``count`` draws of ``horizon`` steps
    over ``cells`` cells (desk2's two by default)."""
    edges = range(1, cells + 1)
    rho0 = [f"{l},{e},1.0" for l in range(1, count + 1) for e in edges]
    omega = [f"{l},{e},{t},0.5" for l in range(1, count + 1) for e in edges
             for t in range(horizon)]
    return tuple(end.join([head] + rows) + end
                 for head, rows in (("l,e,rho0", rho0), ("l,e,t,omega", omega)))


def test_overflowing_sample_file_names_its_prefix(tmp_path, capsys):
    # Every omega entry of a desk2 sample pair is 1e308: finite, so the
    # files load, but the propagation overflows.
    rho0, omega = clean_files(2, 3)
    prefix = tmp_path / "s"
    (tmp_path / "s_rho0.csv").write_text(rho0)
    (tmp_path / "s_omega.csv").write_text(omega.replace(",0.5\n", ",1e308\n"))
    out = tmp_path / "out"
    common = ["--scenario", DESK, "--samples", str(prefix), "--out", str(out)]
    for args in (["simulate", *common, "--speeds", "0.4,0.8"],
                 ["certify", *common, "--speeds", "0.4,0.8"],
                 ["solve", *common], ["brute-force", *common]):
        assert main(args) == 2, args[0]
        err = capsys.readouterr().err
        assert f"error: {prefix}: " in err and "overflow" in err, err
    assert not out.exists()


def test_overflowing_sample_file_names_its_prefix_in_one_loop(tmp_path, capsys):
    # The corridor's brute-force walk propagates every prefix in one time
    # loop, which keeps only each state's running extremes; they must find
    # the overflow of every omega entry at 1e308.
    rho0, omega = clean_files(2, 20, cells=5)
    prefix = tmp_path / "s"
    (tmp_path / "s_rho0.csv").write_text(rho0)
    (tmp_path / "s_omega.csv").write_text(omega.replace(",0.5\n", ",1e308\n"))
    out = tmp_path / "out"
    assert main(["brute-force", "--scenario", HIGHWAY, "--samples", str(prefix),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {prefix}: " in err and "overflow" in err, err
    assert not out.exists()


@settings(max_examples=80, deadline=None)
@given(sample_files())
@example(clean_files(2, 3))
@example(clean_files(1, 5, "\r\n"))  # longer than T: truncated
@example(clean_files(2, 2))  # shorter than T
def test_fuzzed_sample_files_exit_or_give_number(files):
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "draws"
        for suffix, text in zip(("_rho0.csv", "_omega.csv"), files):
            with open(f"{prefix}{suffix}", "w", newline="") as fh:
                fh.write(text)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = main(["certify", "--scenario", DESK, "--samples", str(prefix),
                       "--speeds", "0.4,0.8", "--out", tmp])
        if rc == 2:
            assert str(prefix) in err.getvalue(), err.getvalue()
            assert not (Path(tmp) / "certificate.csv").exists()
            return
        assert rc == 0, err.getvalue()
        path = Path(tmp) / "certificate.csv"
        assert "nan" not in path.read_text().lower()
        _, rows = read_table(path)
    table = {r["key"]: r["value"] for r in rows}
    if table["status"] == "finite":
        assert math.isfinite(float(table["value"])), table
    else:
        assert table["status"] == "invalid_empty_ambiguity"
        assert float(table["value"]) == -math.inf, table
