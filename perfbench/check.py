"""Run every workload, print its end-to-end metrics, and self-check the counters.

Run from the repository root::

    python3 perfbench/check.py --seeds 0,1,2,3,4

For each workload and seed this runs ``run.py --trace 0`` in its own
process and prints, per end-to-end metric, the median over seeds, the
spread (distance between the first and third quartiles as a share of the
median) and the bound from ``BENCHMARK.json``, plus the failed fraction of
operations. It then runs ``run.py --trace 1`` twice on the first seed and
requires every exact counter to agree between the two runs bit for bit
(the MILP node count of a solve stopped by its time limit excepted).
Exit status 1 means a failed operation, an undefined metric, a spread
above its bound or a counter that did not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Counters fixed by the inputs.
EXACT_COUNTERS = (
    "sampling.propagate_batch_calls",
    "sampling.propagate_calls",
    "certificate.certificate_calls",
    "certificate.finite_frac",
    "linearize.build_upper_calls",
    "linearize.upper_rows",
    "linearize.upper_cols",
    "linearize.upper_nnz",
    "linearize.build_lower_calls",
    "lpsolve.solve_milp_calls",
    "lpsolve.milp_nodes",
    "lpsolve.milp_time_limit_hits",
    "lpsolve.solve_lp_calls",
    "search.rounds",
    "search.rounds_per_profile",
    "search.eta_cap_warnings",
    "validation.simulate_ctm_calls",
)
# A solve stopped by its time limit gets as far as the clock lets it, so in
# a run that hit the limit these measure the machine, not the inputs.
CLOCK_BOUND = ("lpsolve.milp_nodes",)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1,2,3,4")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True

    for workload in (w["name"] for w in bench["workloads"]):
        results = [run(workload, seed, bench["run_seconds"], 0) for seed in seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        ok &= failed == 0 and all(r["correct"] for r in results)
        print(f"\n{workload}: seeds {seeds}, failed_frac {failed}/{attempted} "
              f"= {failed / attempted:.4f}")
        print(f"  {'metric':24} {'unit':6} {'median':>14} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            if any(v is None for v in values):
                ok = False
                print(f"  {name:24} undefined in some run")
                continue
            unit = results[0]["metrics"][name]["unit"]
            iqr = spread(values) if len(values) > 1 else 0.0
            over = iqr > bound
            ok &= not over
            print(f"  {name:24} {unit:6} {statistics.median(values):14.6g} "
                  f"{iqr:8.4f} {bound:6.2f}{'  OVER BOUND' if over else ''}")
        first, second = (run(workload, seeds[0], bench["run_seconds"], 1) for _ in range(2))
        ok &= first["correct"] and second["correct"]
        stopped = first["metrics"]["lpsolve.milp_time_limit_hits"]["value"] > 0
        for name in EXACT_COUNTERS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if stopped and name in CLOCK_BOUND:
                print(f"  counter {name:34} {a!r:>12} vs {b!r} (time limit hit: not compared)")
                continue
            same = a == b
            ok &= same
            print(f"  counter {name:34} {a!r:>12} {'==' if same else '!='} {b!r}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
