"""Command-line entry point.

Five subcommands: simulate (linear propagation under a given profile),
certify (closed-form certificate for a profile), solve (iterative
certified search), brute-force (exhaustive enumeration), validate
(fresh-sample out-of-sample check). Every output is a CSV with
"# key=value" comment lines followed by a column-name row; all
randomness flows through the --seed flag and the seed is recorded in
the headers, so reruns are bit-identical.

Exit codes: 0 success, 2 bad configuration or arguments, 3 infeasible
scenario (or no feasible profile found), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .certificate import certificate
from .errors import ConfigError, InfeasibleScenarioError, NumericalError
from .linearize import SearchProblem
from .network import load_scenario, read_config
from .sampling import generate_samples, load_generator, propagate_batch, read_samples
from .search import DEFAULT_GAP_EPS, run_search
from .validation import ValidationConfig, brute_force_optimum, validate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


def _fmt(value) -> str:
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: dict, columns: list[str], rows) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for key, value in header.items():
            fh.write(f"# {key}={_fmt(value)}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _load_config(args):
    cfg = read_config(args.scenario)
    return cfg, load_scenario(cfg)


def _load_samples(args, cfg, scenario):
    """Samples from --samples CSV pair, else drawn from the config."""
    if args.samples:
        return read_samples(args.samples, scenario), {"samples": args.samples}
    generator = load_generator(cfg, scenario.n)
    samples = generate_samples(generator, args.count, scenario.T, args.seed)
    return samples, {"seed": args.seed, "count": args.count}


def _profile(args, scenario):
    raw = args.speeds
    try:
        values = tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise ConfigError("--speeds", f"not a comma-separated float list: {raw!r}")
    try:
        return scenario.speed_profile(values)
    except ValueError as exc:
        raise ConfigError("--speeds", str(exc)) from None


def _speeds_header(profile) -> str:
    return ",".join(repr(u) for u in profile.u)


def cmd_simulate(args) -> int:
    cfg, scenario = _load_config(args)
    samples, source = _load_samples(args, cfg, scenario)
    profile = _profile(args, scenario)
    batch = propagate_batch(scenario, profile, samples)
    path = _write_csv(
        Path(args.out) / "trajectories.csv",
        {"command": "simulate", "u": _speeds_header(profile), **source},
        ["l", "e", "t", "rho"],
        ((l + 1, e + 1, t + 1, float(v))
         for (l, e, t), v in np.ndenumerate(batch.rho)),
    )
    print(path)
    return EXIT_OK


def cmd_certify(args) -> int:
    cfg, scenario = _load_config(args)
    samples, source = _load_samples(args, cfg, scenario)
    profile = _profile(args, scenario)
    batch = propagate_batch(scenario, profile, samples)
    result = certificate(scenario, profile, batch)
    rows = [
        ("status", result.status),
        ("value", result.value),
        ("lambda_star", result.lambda_star),
        ("epsilon", scenario.epsilon),
    ]
    path = _write_csv(
        Path(args.out) / "certificate.csv",
        {"command": "certify", "u": _speeds_header(profile), **source},
        ["key", "value"],
        rows,
    )
    print(path)
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg, scenario = _load_config(args)
    samples, source = _load_samples(args, cfg, scenario)
    problem = SearchProblem(scenario=scenario, samples=samples)
    report = run_search(problem, gap_eps=args.gap, time_limit=args.time_limit)
    out = Path(args.out)
    header = {
        "command": "solve",
        **source,
        "epsilon": scenario.epsilon,
        "gap_eps": args.gap,
        "time_limit": args.time_limit if args.time_limit is not None else "none",
        "termination": report.termination,
        "lower_bound": report.best_value,
        "upper_bound": report.upper_bound,
        "gap": report.gap,
        "wall_s": report.wall,
    }
    _write_csv(
        out / "report.csv",
        header,
        ["k", "u", "upper_status", "upper_value", "ub", "lb", "certificate",
         "nodes", "wall_s"],
        (
            (
                rec.k,
                ";".join(repr(v) for v in rec.u),
                rec.upper_status,
                rec.upper_value,
                rec.ub,
                rec.lb,
                rec.certificate_value,
                rec.node_count if rec.node_count is not None else "",
                rec.wall,
            )
            for rec in report.iterations
        ),
    )
    best = report.best_u if report.feasible else ()
    path = _write_csv(
        out / "result.csv",
        {**header, "j_hat": report.best_value, "feasible": report.feasible},
        ["e", "u"],
        ((e + 1, u) for e, u in enumerate(best)),
    )
    print(path)
    if not report.feasible:
        print("no feasible profile found", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_brute_force(args) -> int:
    cfg, scenario = _load_config(args)
    samples, source = _load_samples(args, cfg, scenario)
    profile, value = brute_force_optimum(scenario, samples)
    path = _write_csv(
        Path(args.out) / "brute_force.csv",
        {"command": "brute-force", **source, "j_star": value,
         "epsilon": scenario.epsilon},
        ["e", "u"],
        ((e + 1, u) for e, u in enumerate(profile.u)),
    )
    print(path)
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg, scenario = _load_config(args)
    generator = load_generator(cfg, scenario.n)
    profile = _profile(args, scenario)
    vcfg = ValidationConfig(n_val=args.nval, seed=args.seed)
    report = validate(scenario, generator, profile, args.jhat, vcfg)
    out = Path(args.out)
    header = {
        "command": "validate",
        "u": _speeds_header(profile),
        "seed": args.seed,
        "n_val": report.n_val,
        "horizon": report.horizon,
        "j_hat": report.j_hat,
        "mean_objective": report.mean_objective,
        "guarantee": report.guarantee,
    }
    _write_csv(
        out / "summary.csv",
        header,
        ["e", "max_mean_density", "critical_density"],
        (
            (e + 1, report.max_mean_density[e], report.critical_density[e])
            for e in range(scenario.n)
        ),
    )
    path = _write_csv(
        out / "density_mean.csv",
        header,
        ["l", "e", "t", "rho"],
        ((1, e + 1, t + 1, float(v))
         for (e, t), v in np.ndenumerate(report.mean_density)),
    )
    print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vslcert",
        description="Certified variable speed limits for freeway corridors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, samples=True):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="random seed")
        if samples:
            p.add_argument("--samples", default=None,
                           help="CSV prefix of a written sample pair")
            p.add_argument("--count", type=int, default=3,
                           help="samples to draw when --samples is absent")

    p = sub.add_parser("simulate", help="propagate samples under a profile")
    common(p)
    p.add_argument("--speeds", required=True, help="comma-separated speeds")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("certify", help="certificate value for a profile")
    common(p)
    p.add_argument("--speeds", required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("solve", help="search for the best certified profile")
    common(p)
    p.add_argument("--gap", type=float, default=DEFAULT_GAP_EPS,
                   help="relative gap tolerance")
    p.add_argument("--time-limit", type=float, default=None,
                   help="wall-clock budget in seconds")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("brute-force", help="enumerate all admissible profiles")
    common(p)
    p.set_defaults(func=cmd_brute_force)

    p = sub.add_parser("validate", help="fresh-sample out-of-sample check")
    common(p, samples=False)
    p.add_argument("--speeds", required=True)
    p.add_argument("--jhat", type=float, required=True,
                   help="certified value to check against")
    p.add_argument("--nval", type=int, default=1000,
                   help="validation sample count")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleScenarioError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
