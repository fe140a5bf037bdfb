import csv
import json
import math
from pathlib import Path

import pytest

from vslcert.cli import main
from vslcert.errors import NumericalError

DATA = Path(__file__).parent / "data"
DESK = str(DATA / "desk2.json")
SENTINEL = str(DATA / "sentinel2.json")


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
    assert res_header["termination"] == "upper_infeasible"
    assert float(res_header["j_hat"]) == float(bf_header["j_star"])
    assert [r["u"] for r in res_rows] == [r["u"] for r in bf_rows]

    with open(DESK) as fh:
        menu = json.load(fh)["gamma"]
    for row in res_rows:
        assert float(row["u"]) in menu

    _, log = read_table(solve_dir / "report.csv")
    ubs = [float(r["ub"]) for r in log]
    assert all(a >= b - 1e-9 for a, b in zip(ubs, ubs[1:]))
    lbs = [float(r["lb"]) for r in log if r["lb"] != "-inf"]
    assert all(a <= b + 1e-9 for a, b in zip(lbs, lbs[1:]))
    assert len(log) == 4


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


def test_missing_scenario_is_config_error(tmp_path):
    rc = main(["certify", "--scenario", str(tmp_path / "absent.json"),
               "--out", str(tmp_path), "--speeds", "0.4,0.8"])
    assert rc == 2


def test_malformed_json_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path),
               "--speeds", "0.4,0.8"])
    assert rc == 2


@pytest.mark.parametrize("key, value", [
    ("epsilon", math.nan),
    ("epsilon", math.inf),
    ("L_km", math.nan),
    ("eta_bar", math.nan),
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


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    def boom(problem, gap_eps, time_limit):
        raise NumericalError("candidate repeated")

    monkeypatch.setattr("vslcert.cli.run_search", boom)
    rc = main(["solve", "--scenario", DESK, "--out", str(tmp_path),
               "--count", "2"])
    assert rc == 4
