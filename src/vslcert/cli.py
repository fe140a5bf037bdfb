"""Command-line entry point.

Five subcommands: simulate (linear propagation under a given profile),
certify (closed-form certificate for a profile), solve (certified
search by branch-and-bound, exact unless a time limit stops it past the
enumeration cap), brute-force (every profile scored, the check on
solve), validate (fresh-sample out-of-sample check). Every output is a
CSV with "# key=value" comment lines followed by a column-name row,
written by ``_write_csv`` as a new file that replaces whatever was at
its path. A command writes all of its outputs or none: validate writes
its two in turn and removes the first when the second fails. All
randomness flows through the --seed flag and the seed is recorded in
the headers, so reruns are bit-identical except for wall times and for
a budgeted search past the cap that stops on its time limit.

Exit codes: 0 success, 2 bad configuration or arguments, 3 infeasible
scenario (or no feasible profile found).

``main(argv)`` may be called any number of times in one process: the
parser is built once per process, on the first call, and reused, since
parsing keeps no state in it.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .certificate import certificate
from .errors import (ArgumentError, ConfigError, DisturbanceOverflowError,
                     InfeasibleScenarioError)
from .network import load_scenario, read_config
from .sampling import generate_samples, load_generator, propagate_batch, read_samples
from .search import run_search
from .validation import brute_force_optimum, validate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

# The flag or scenario key that sets each argument an ArgumentError names.
INPUTS = {"count": "--count", "n_val": "--nval", "j_hat": "--jhat",
          "time_limit": "--time-limit", "horizon": "T"}


def _fmt(value) -> str:
    # Exact built-in types return at once: most values are one, and they
    # need no ``.item()`` probe. numpy scalars (np.float64 subclasses
    # float) and bools take the general path.
    kind = type(value)
    if kind is float:
        return repr(value)
    if kind is int or kind is str:
        return str(value)
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _create(path: Path):
    """A new file opened for writing at ``path``; only :func:`_write_csv`
    calls it.

    A file already at ``path`` is removed first, not truncated: on ext4,
    truncating a file that holds data to zero costs several times a fresh
    create (its close likely starts writeback). A symlink at ``path`` is
    replaced, not written through; a directory there fails on the remove.
    Missing parent directories are created only when the create finds
    them missing, so a write into an existing directory makes no mkdir
    call.
    """
    try:
        path.unlink(missing_ok=True)
        try:
            return open(path, "x", newline="")
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            return open(path, "x", newline="")
    except OSError as exc:
        raise ConfigError(str(path), f"cannot write file: {exc.strerror}") from exc


def _write_csv(path: Path, header: dict, columns: list[str], rows) -> Path:
    """Write one output as a new file at ``path``, streaming ``rows``
    through the buffer. Every output is created here. A file that cannot
    be created or written (a directory at ``path``, a full disk) raises
    ConfigError naming it, and a partly written file is removed first,
    so no partial output is left."""
    fh = _create(path)
    try:
        with fh:
            for key, value in header.items():
                fh.write(f"# {key}={_fmt(value)}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(map(_fmt, row)) + "\n")
    except OSError as exc:
        path.unlink(missing_ok=True)
        raise ConfigError(str(path), f"cannot write file: {exc.strerror}") from exc
    return path


def _density_rows(rho):
    """The 1-based ``l,e,t,rho`` rows of a (draws, cells, steps) stack."""
    return ((l + 1, e + 1, t + 1, v)
            for l, draw in enumerate(rho)
            for e, steps in enumerate(draw.tolist())
            for t, v in enumerate(steps))


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
        _density_rows(batch.rho),
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
    report = run_search(scenario, samples, time_limit=args.time_limit)
    header = {
        "command": "solve",
        **source,
        "epsilon": scenario.epsilon,
        "time_limit": args.time_limit if args.time_limit is not None else "none",
        "termination": report.termination,
        "lower_bound": report.best_value,
        "upper_bound": report.upper_bound,
        "gap": report.gap,
        "wall_s": report.wall,
        "nodes_expanded": report.nodes_expanded,
        "nodes_pruned": report.nodes_pruned,
        "j_hat": report.best_value,
        "feasible": report.feasible,
    }
    best = report.best_u if report.feasible else ()
    path = _write_csv(
        Path(args.out) / "result.csv",
        header,
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
    profile, result = brute_force_optimum(scenario, samples)
    path = _write_csv(
        Path(args.out) / "brute_force.csv",
        {"command": "brute-force", **source, "j_star": result.value,
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
    report = validate(scenario, generator, profile, args.jhat, args.nval, args.seed)
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
    summary = _write_csv(
        out / "summary.csv",
        header,
        ["e", "max_mean_density", "critical_density"],
        zip(range(1, scenario.n + 1), report.max_mean_density.tolist(),
            report.critical_density.tolist()),
    )
    try:
        path = _write_csv(out / "density_mean.csv", header, ["l", "e", "t", "rho"],
                          _density_rows(report.mean_density[None]))
    except ConfigError:
        # A command writes all of its outputs or none.
        summary.unlink()
        raise
    print(path)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: its setup
    costs more than a small solve. Each subcommand's ``func`` default is
    bound to its ``cmd_*`` function at that build."""
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
    p.add_argument("--time-limit", type=float, default=None,
                   help="wall-clock budget in seconds of the search past "
                        "the enumeration cap")
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
                   help="validation sample count (drawn and simulated in "
                        "chunks, so memory does not grow with it)")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError("--seed", f"expected a non-negative integer, "
                                        f"got {args.seed}")
        return args.func(args)
    except InfeasibleScenarioError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:  # ConfigError included
        if isinstance(exc, DisturbanceOverflowError) and getattr(args, "samples", None):
            exc = ConfigError(args.samples, str(exc))
        if isinstance(exc, ArgumentError):
            exc = ConfigError(INPUTS[exc.name], str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
