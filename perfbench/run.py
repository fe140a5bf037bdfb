"""Benchmark of the vslcert command line on fixed corridor instances.

Run from the repository root::

    python3 perfbench/run.py --workload corridor --seed 0 --seconds 50 --trace 0

The benchmark drives the package the way its users do: ``vslcert.cli.main``
in-process, one command per operation, reading back the CSV files each
command writes. Cold start is measured apart, in fresh interpreters. One
process, no worker threads; a workload is one process so that its peak
resident memory is its own. The seed selects the sample draw and is passed
to every command as ``--seed``.

Before timing starts, ``oracle.py`` enumerates every instance with its own
loop; each command's exit code and output are checked against it, and
every disagreement counts as a failed operation.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` one untraced pass is followed by
one traced pass of the same operations (see ``tracer.py``), and the object
carries the per-layer metrics instead. End-to-end times are rescaled to a
reference machine speed with calibration kernels timed between operations
(``Speedometer``).
A JSON run record (versions, cpu count, seed, calibration timings) is
printed on the line before the result in both modes, and written with every
operation's raw wall time to ``out/<run>/record.json``. The design, with the
layer each metric isolates, is in ``DESIGN.md``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer, span_cost

# One process, no worker threads: a BLAS thread pool would make the
# figures depend on what else the machine runs. Set before numpy loads;
# the cold-start interpreters inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCENARIOS = HERE / "scenarios"

COLD_STARTS = 5
# No pass starts once the run is this old and the last pass would not
# fit, so a run ends well inside three minutes on a slow machine.
HARD_LIMIT_S = 140.0
# Timings are rescaled to a machine on which the two calibration kernels
# take this long (Python loop, MILP; about the median readings on a shared
# 2-vCPU Xeon virtual machine), so a scale factor near 1 is typical.
REFERENCE_KERNEL_S = (0.05, 0.095)
ETA_CAP_MESSAGE = "dual multipliers at the configured cap"
# Relative tolerance for values that come out of an LP (solve's j_hat),
# the same tolerance the acceptance suite uses for LP against closed form.
LP_REL = 1e-6


@dataclass(frozen=True)
class Workload:
    instances: tuple  # (scenario file under scenarios/, sample count)
    steps: tuple  # commands run on each instance, in order
    nval: int
    guarantee: bool  # whether validate's out-of-sample guarantee must hold
    time_limit: float | None
    # Most passes that include solve, as long as they fit in the window;
    # the rest of the window repeats the other commands.
    solve_passes: float
    setup: tuple  # (scenario file, sample count) of the cold-start certify


def _desk_instances() -> tuple:
    manifest = json.loads((SCENARIOS / "desk_manifest.json").read_text())
    return tuple((item["file"], item["count"]) for item in manifest)


WORKLOADS = {
    "corridor": lambda: Workload(
        instances=(("highway5.json", 3),),
        steps=("brute-force", "validate", "certify", "solve"),
        nval=1000,
        guarantee=True,
        time_limit=10.0,
        # A budgeted solve lasts its budget, so one is enough; the rest of
        # the window repeats the enumeration and validation.
        solve_passes=1,
        setup=("highway5.json", 3),
    ),
    "desk-exhaustive": lambda: Workload(
        instances=_desk_instances(),
        steps=("solve", "brute-force", "validate"),
        nval=100,
        # Radii here go down to ~1e-3 of the density scale, where the
        # fresh-sample mean may fall below the certified value by chance.
        guarantee=False,
        time_limit=None,
        solve_passes=math.inf,
        setup=("desk2.json", 3),
    ),
}


@dataclass
class Op:
    """One command: its outcome, wall time and the figures the metrics need."""

    command: str
    instance: str
    exit_code: int | None
    wall: float
    start: float = 0.0
    time_limited: bool = False  # a solve given --time-limit
    eta_cap_warnings: int = 0
    failures: list = field(default_factory=list)
    profiles: int = 0
    optimum: float = math.nan
    j_hat: float = math.nan
    upper_bound: float = math.nan


def read_csv(path: Path) -> tuple[dict, list]:
    """Header "# key=value" lines and the data rows of a vslcert CSV."""
    header, body = {}, []
    with open(path) as fh:
        for line in fh.read().splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                header[key] = value
            else:
                body.append(line)
    return header, [line.split(",") for line in body[1:]]


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    """Agreement to ``rel`` relative to the larger of 1 and ``|b|``."""
    return abs(a - b) <= rel * max(1.0, abs(b))


def speeds_arg(u) -> str:
    return ",".join(repr(float(v)) for v in u)


def calibrate(iterations: int = 8_000) -> tuple[float, float]:
    """Wall times of two fixed kernels shaped like the program's work: small
    NumPy updates in a Python loop (like enumeration and validation), and a
    small binary program solved by HiGHS through ``scipy.optimize.milp``
    (like the search)."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    rng = np.random.default_rng(7)
    cost = -rng.integers(10, 100, 30).astype(float)
    A = rng.integers(5, 60, (5, 30)).astype(float)
    knapsack = LinearConstraint(A, -np.inf, 0.5 * A.sum(axis=1))

    start = time.perf_counter()
    u = np.array([120.0, 120.0, 120.0, 80.0, 120.0])
    rho = np.full(5, 260.0)
    for _ in range(iterations):
        flow = u * rho
        rho = rho + 1e-3 * (np.concatenate(([0.0], flow[:-1])) - flow + 100.0)
    middle = time.perf_counter()
    milp(cost, constraints=knapsack, integrality=np.ones(30), bounds=Bounds(0, 1))
    return middle - start, time.perf_counter() - middle


class Speedometer:
    """Machine speed while an operation ran, from the calibration kernels.

    On a shared machine identical work runs up to twice as slow in spells
    that can outlast a run, and the kernels slow with it. They are timed
    between operations, at most once per ``every`` seconds; an operation's
    scale is the reference time of the kernel its work resembles (the MILP
    for ``solve``, the Python loop for the other commands) over the mean of
    that kernel's readings just before and just after it.
    """

    def __init__(self, every: float = 2.0):
        self.every = every
        # (time taken, loop seconds, MILP seconds)
        self.readings: list[tuple[float, float, float]] = []

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.readings or now - self.readings[-1][0] >= self.every:
            seconds = calibrate()
            self.readings.append((time.perf_counter(), *seconds))

    def scale(self, start: float, end: float, kernel: int) -> float:
        """Scale of an operation; ``kernel`` is 0 (loop) or 1 (MILP)."""
        before = [r[1 + kernel] for r in self.readings if r[0] <= start]
        after = [r[1 + kernel] for r in self.readings if r[0] >= end]
        nearby = before[-1:] + after[:1]
        return REFERENCE_KERNEL_S[kernel] / statistics.mean(nearby)


class Runner:
    def __init__(self, workload: Workload, seed: int, out: Path):
        import vslcert.cli
        from oracle import enumerate_instance, fresh_mean

        self.cli = vslcert.cli
        self.speed = Speedometer()
        self.workload = workload
        self.seed = seed
        self.out = out
        self.oracles = {
            (name, count): enumerate_instance(SCENARIOS / name, count, seed)
            for name, count in workload.instances + (workload.setup,)
        }
        self.fresh_means = {
            name: fresh_mean(SCENARIOS / name, self.oracles[(name, count)].best_u,
                             workload.nval, seed)
            for name, count in workload.instances
            if "validate" in workload.steps and self.oracles[(name, count)].feasible
        }

    # -- one command --------------------------------------------------

    def run(self, main, command: str, name: str, count: int) -> Op:
        oracle = self.oracles[(name, count)]
        out = self.out / command
        argv = [command, "--scenario", str(SCENARIOS / name),
                "--seed", str(self.seed), "--out", str(out)]
        if command == "validate":
            argv += ["--speeds", speeds_arg(oracle.best_u),
                     "--jhat", repr(oracle.optimum),
                     "--nval", str(self.workload.nval)]
        else:
            argv += ["--count", str(count)]
        if command == "certify":
            argv += ["--speeds", speeds_arg(oracle.best_u)]
        if command == "solve" and self.workload.time_limit is not None:
            argv += ["--time-limit", repr(self.workload.time_limit)]
        sink = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(sink), redirect_stderr(sink):
            warnings.simplefilter("always")
            self.speed.tick()
            start = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                traceback.print_exc()
            wall = time.perf_counter() - start
        op = Op(command=command, instance=name, exit_code=code, wall=wall,
                start=start, profiles=oracle.profiles, optimum=oracle.optimum,
                time_limited="--time-limit" in argv)
        op.eta_cap_warnings = sum(
            1 for w in caught
            if issubclass(w.category, RuntimeWarning) and ETA_CAP_MESSAGE in str(w.message)
        )
        expected = 0 if oracle.feasible else 3
        if code != expected:
            op.failures.append(f"exit {code}, oracle expects {expected}: "
                               + sink.getvalue().strip()[-300:])
        elif code == 0:
            self.check(getattr(self, "check_" + command.replace("-", "_")), op, oracle, out)
        return op

    @staticmethod
    def check(checker, op: Op, oracle, out: Path) -> None:
        try:
            checker(op, oracle, out)
        except (OSError, KeyError, IndexError, ValueError) as exc:
            op.failures.append(f"unreadable output: {exc!r}")

    # -- checks against the oracle -------------------------------------

    @staticmethod
    def _profile(rows) -> tuple:
        return tuple(float(row[1]) for row in rows)

    def check_brute_force(self, op: Op, oracle, out: Path) -> None:
        header, rows = read_csv(out / "brute_force.csv")
        j_star = float(header["j_star"])
        u = self._profile(rows)
        if not close(j_star, oracle.optimum):
            op.failures.append(f"j_star {j_star!r} != optimum {oracle.optimum!r}")
        if u not in oracle.values or not close(oracle.values[u], oracle.optimum):
            op.failures.append(f"profile {u} is not optimal")

    def check_solve(self, op: Op, oracle, out: Path) -> None:
        header, rows = read_csv(out / "result.csv")
        op.j_hat = float(header["j_hat"])
        op.upper_bound = float(header["upper_bound"])
        u = self._profile(rows)
        opt = oracle.optimum
        slack = LP_REL * max(1.0, abs(opt))
        if u not in oracle.values:
            op.failures.append(f"returned profile {u} is not admissible")
        elif not close(op.j_hat, oracle.values[u], LP_REL):
            op.failures.append(f"j_hat {op.j_hat!r} != certificate "
                               f"{oracle.values[u]!r} of {u}")
        if op.j_hat > opt + slack:
            op.failures.append(f"j_hat {op.j_hat!r} exceeds optimum {opt!r}")
        if op.upper_bound < opt - slack:
            op.failures.append(f"upper bound {op.upper_bound!r} below optimum {opt!r}")
        termination = header["termination"]
        if termination == "upper_infeasible" and not close(op.j_hat, opt, LP_REL):
            op.failures.append(f"exhausted search returned {op.j_hat!r}, optimum {opt!r}")
        if termination == "gap":
            allowed = float(header["gap_eps"]) * max(1.0, abs(op.upper_bound))
            if opt - op.j_hat > allowed + slack:
                op.failures.append(f"gap-proven {op.j_hat!r} short of optimum {opt!r}")

    def check_validate(self, op: Op, oracle, out: Path) -> None:
        header, _ = read_csv(out / "summary.csv")
        mean = float(header["mean_objective"])
        expected = self.fresh_means[op.instance]
        if not close(mean, expected):
            op.failures.append(f"mean_objective {mean!r} != {expected!r}")
        if header["guarantee"] != str(mean >= oracle.optimum):
            op.failures.append(f"guarantee {header['guarantee']} contradicts mean {mean!r}")
        if self.workload.guarantee and header["guarantee"] != "True":
            op.failures.append(f"guarantee failed: mean {mean!r} < j_hat {oracle.optimum!r}")

    def check_certify(self, op: Op, oracle, out: Path) -> None:
        header, rows = read_csv(out / "certificate.csv")
        table = dict(rows)
        u = tuple(float(v) for v in header["u"].split(","))
        expected = oracle.values[u]
        if math.isfinite(expected):
            if table["status"] != "finite" or not close(float(table["value"]), expected):
                op.failures.append(f"certificate {table} != {expected!r}")
        elif table["status"] == "finite":
            op.failures.append(f"certificate {table} should be the sentinel")

    # -- cold start ----------------------------------------------------

    def cold_start(self, importtime: bool) -> tuple[Op, dict]:
        """Fresh-interpreter ``certify``; returns the op and, when
        ``importtime`` is set, cumulative import seconds by module."""
        name, count = self.workload.setup
        oracle = self.oracles[(name, count)]
        u = oracle.best_u or next(iter(oracle.values))
        out = self.out / "cold"
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
            "-m", "vslcert.cli", "certify", "--scenario", str(SCENARIOS / name),
            "--seed", str(self.seed), "--count", str(count),
            "--speeds", speeds_arg(u), "--out", str(out)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.speed.tick(force=True)
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        wall = time.perf_counter() - start
        self.speed.tick(force=True)
        op = Op(command="certify(cold)", instance=name, exit_code=proc.returncode,
                wall=wall, start=start, profiles=oracle.profiles,
                optimum=oracle.optimum)
        if proc.returncode != 0:
            op.failures.append(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        else:
            self.check(self.check_certify, op, oracle, out)
        imports = {}
        if importtime:
            # Top-level entries after runpy are what running the CLI imports;
            # vslcert.lpsolve is nested under vslcert.linearize.
            after_runpy = False
            cli_total = 0
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if not line.startswith("import time:") or len(parts) != 3:
                    continue
                cumulative, module = parts[1].strip(), parts[2][1:]
                if not cumulative.isdigit():
                    continue
                if after_runpy and not module.startswith(" "):
                    cli_total += int(cumulative)
                after_runpy |= module == "runpy"
                if module.strip() == "vslcert.lpsolve":
                    imports["lpsolve"] = int(cumulative) * 1e-6
            imports["cli"] = cli_total * 1e-6
        return op, imports

    # -- passes --------------------------------------------------------

    def one_pass(self, main, with_solve: bool) -> list[Op]:
        ops = []
        for name, count in self.workload.instances:
            oracle = self.oracles[(name, count)]
            for command in self.workload.steps:
                if command in ("validate", "certify") and not oracle.feasible:
                    continue
                if command == "solve" and not with_solve:
                    continue
                ops.append(self.run(main, command, name, count))
        return ops


def e2e_metrics(ops: list[Op], setups: list[Op], speed: Speedometer) -> dict:
    def scaled(op):
        # A solve given a time limit is reported as raw wall time whether
        # or not it stops on the limit: one stopped by the clock lasts as
        # long as the clock says on any machine, and one unit for every such
        # solve keeps a search that learns to finish early comparable.
        if op.time_limited:
            return op.wall
        kernel = 1 if op.command == "solve" else 0
        return op.wall * speed.scale(op.start, op.start + op.wall, kernel)

    def seconds(command):
        # Median over the repeats of each instance, summed over instances.
        walls = {}
        for op in ops:
            if op.command == command:
                walls.setdefault(op.instance, []).append(scaled(op))
        return sum(statistics.median(w) for w in walls.values())

    # Both ratios are 1 + a difference scaled by max(1, |optimum|), so they
    # read 1.0 for a proven-optimal answer and are never 0.
    solved = [op for op in ops if op.command == "solve" and op.exit_code == 0]
    bounds = [1.0 + (op.upper_bound - op.optimum) / max(1.0, abs(op.optimum))
              for op in solved if math.isfinite(op.upper_bound)]
    shortfall = [1.0 + (op.optimum - op.j_hat) / max(1.0, abs(op.optimum))
                 for op in solved]
    metrics = {
        "setup_s": (statistics.median(scaled(op) for op in setups), "s"),
        "brute_force_s": (seconds("brute-force"), "s"),
        "validate_s": (seconds("validate"), "s"),
        "solve_s": (seconds("solve"), "s"),
        "solve_ub_ratio": (statistics.median(bounds) if bounds else math.nan, "ratio"),
        "solve_shortfall_ratio": (max(shortfall) if shortfall else math.nan, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}


def layer_metrics(tracer, ops: list[Op], untraced_wall: float, imports: list[dict],
                  calib: tuple[float, float]) -> dict:
    """Per-layer figures of one traced pass."""
    s = tracer.summary()
    c = tracer.counters

    def by_suffix(table, suffix):
        return sum(v for k, v in table.items() if k.endswith("." + suffix))

    cert_calls = by_suffix(s["calls"], "certificate")
    solves = [op for op in ops if op.command == "solve"]
    profiles = sum(op.profiles for op in solves)
    wall = sum(op.wall for op in ops)
    values = {
        "cli.import_s": (statistics.median(i.get("cli", math.nan) for i in imports), "s"),
        "cli.self_s": (s["layer_self"]["cli"], "s"),
        "lpsolve.import_s": (statistics.median(i.get("lpsolve", math.nan) for i in imports), "s"),
        "network.load_scenario_s": (s["total"]["vslcert.cli.load_scenario"], "s"),
        "sampling.propagate_batch_s": (by_suffix(s["total"], "propagate_batch"), "s"),
        "sampling.propagate_batch_calls": (by_suffix(s["calls"], "propagate_batch"), "count"),
        "sampling.propagate_s": (s["total"]["vslcert.validation.propagate"], "s"),
        "sampling.propagate_calls": (s["calls"]["vslcert.validation.propagate"], "count"),
        "sampling.generate_samples_s": (by_suffix(s["total"], "generate_samples"), "s"),
        "certificate.certificate_s": (by_suffix(s["total"], "certificate"), "s"),
        "certificate.certificate_calls": (cert_calls, "count"),
        "certificate.finite_frac": (c["certificate.finite"] / cert_calls if cert_calls else math.nan, "ratio"),
        "linearize.build_upper_s": (s["total"]["vslcert.search.build_upper"], "s"),
        "linearize.build_upper_calls": (s["calls"]["vslcert.search.build_upper"], "count"),
        "linearize.upper_rows": (c["linearize.upper_rows"], "count"),
        "linearize.upper_cols": (c["linearize.upper_cols"], "count"),
        "linearize.upper_nnz": (c["linearize.upper_nnz"], "count"),
        "linearize.build_lower_s": (s["total"]["vslcert.search.build_lower"], "s"),
        "linearize.build_lower_calls": (s["calls"]["vslcert.search.build_lower"], "count"),
        "lpsolve.solve_milp_s": (s["total"]["vslcert.search.solve_milp"], "s"),
        "lpsolve.solve_milp_calls": (s["calls"]["vslcert.search.solve_milp"], "count"),
        "lpsolve.milp_nodes": (c["lpsolve.milp_nodes"], "count"),
        "lpsolve.milp_time_limit_hits": (c["lpsolve.milp_time_limit_hits"], "count"),
        "lpsolve.solve_lp_s": (s["total"]["vslcert.search.solve_lp"], "s"),
        "lpsolve.solve_lp_calls": (s["calls"]["vslcert.search.solve_lp"], "count"),
        "search.self_s": (s["layer_self"]["search"], "s"),
        "search.rounds": (c["search.rounds"], "count"),
        "search.rounds_per_profile": (c["search.rounds"] / profiles if profiles else math.nan, "ratio"),
        "search.eta_cap_warnings": (sum(op.eta_cap_warnings for op in ops), "count"),
        "validation.brute_force_self_s": (s["self"]["vslcert.cli.brute_force_optimum"], "s"),
        "validation.simulate_ctm_s": (s["total"]["vslcert.validation.simulate_ctm"], "s"),
        "validation.simulate_ctm_calls": (s["calls"]["vslcert.validation.simulate_ctm"], "count"),
        "validation.validate_self_s": (s["self"]["vslcert.cli.validate"], "s"),
    }
    for layer in ("network", "sampling", "certificate", "linearize", "lpsolve", "validation"):
        values[f"{layer}.self_s"] = (s["layer_self"][layer], "s")
    # Self time of every named function; what is left of the wall time is
    # work no wrapper covers (argument parsing, the command bodies' glue).
    self_sum = sum(s["self"].values()) - s["self"]["vslcert.cli.main"]
    values.update({
        "trace.wall_s": (wall, "s"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.unaccounted_s": (wall - self_sum, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.wrapper_cost_s": (len(tracer.spans) * span_cost(), "s"),
        "calib.before_s": (calib[0], "s"),
        "calib.after_s": (calib[1], "s"),
    })
    return values


def run_record(args, calib_before: float) -> dict:
    import numpy
    import scipy

    import vslcert

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in bench["workloads"] if w["name"] == args.workload)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "vslcert": vslcert.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "calib_before_s": calib_before,
        "why": why,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = time.perf_counter()

    if not (ROOT / "src" / "vslcert" / "cli.py").is_file():
        print(f"error: no vslcert source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]()
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    runner = Runner(workload, args.seed, out)
    runner.speed.tick(force=True)
    calib_before = sum(runner.speed.readings[-1][1:])
    record = run_record(args, calib_before)

    # Cold starts are spread between the passes, so that a slow spell of
    # the machine hits only some of them.
    setups = []
    ops: list[Op] = []
    passes = 0
    with_solve = True
    measure_start = time.perf_counter()
    while True:
        if len(setups) < COLD_STARTS:
            setups.append(runner.cold_start(importtime=bool(args.trace)))
        pass_ops = runner.one_pass(runner.cli.main, with_solve)
        ops += pass_ops
        passes += 1
        now = time.perf_counter()
        if args.trace:
            # One untraced pass, then one traced pass of the same operations.
            untraced_wall = sum(op.wall for op in pass_ops)
            tracer = Tracer()
            with tracer.installed():
                traced_ops = runner.one_pass(tracer.wrap("vslcert.cli.main",
                                                         runner.cli.main), True)
            ops += traced_ops
            break
        # The next pass is timed by the same operations of the last one that
        # had them. It includes solve if that fits in the window; the run
        # stops when not even a pass without solve would fit.
        other_wall = sum(op.wall for op in pass_ops if op.command != "solve")
        if with_solve:
            solve_wall = sum(op.wall for op in pass_ops if op.command == "solve")
        left = min(args.seconds - (now - measure_start), HARD_LIMIT_S - (now - run_start))
        with_solve = passes < workload.solve_passes and other_wall + solve_wall <= left
        if other_wall > left:
            break
    while len(setups) < COLD_STARTS:
        setups.append(runner.cold_start(importtime=bool(args.trace)))
    ops += [op for op, _ in setups]

    runner.speed.tick(force=True)
    calib_after = sum(runner.speed.readings[-1][1:])
    failed = [op for op in ops if op.failures]
    for op in failed:
        print(f"FAILED {op.command} {op.instance}: {'; '.join(op.failures)}",
              file=sys.stderr)
    record.update({
        "calib_after_s": calib_after,
        "passes": passes + int(bool(args.trace)),
        "loadavg_end": os.getloadavg(),
        "run_s": time.perf_counter() - run_start,
        "failed_frac": len(failed) / len(ops),
    })
    record_ops = [(op.command, op.instance, op.exit_code, op.start - run_start, op.wall)
                  for op in ops]
    kernel = [(t - run_start, loop, solver) for t, loop, solver in runner.speed.readings]
    (out / "record.json").write_text(json.dumps(
        {**record, "ops": record_ops, "kernel": kernel}, indent=1))

    if args.trace:
        tracer.write(out / "spans.json")
        metrics = layer_metrics(tracer, traced_ops, untraced_wall,
                                [imp for _, imp in setups], (calib_before, calib_after))
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}
    else:
        metrics = e2e_metrics([op for op in ops if op.command != "certify(cold)"],
                              [op for op, _ in setups], runner.speed)

    undefined = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    for name in undefined:
        print(f"metric {name} is undefined in this run", file=sys.stderr)
        metrics[name]["value"] = None
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": not failed and not undefined, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
