"""Disturbance samples and linear density propagation.

A disturbance realization is the pair (initial densities, net inflow
matrix). Net inflows are in veh/h and enter the dynamics through the
discretization ratio ``h``; initial densities are veh/km.

Propagation applies the linear recursion

    rho_e(t+1) = rho_e(t) + h * (u_s rho_s(t) - u_e rho_e(t) + omega_e(t))

with ``s`` the upstream neighbour (the first edge has none, its only feed
is ``omega_1``). The recursion is intentionally unclamped: it is affine in
the disturbance, which the certificate machinery relies on, so physically
impossible negative densities are passed through rather than projected.

A ``SampleSet`` stores its draws only stacked, (N, n) and (N, n, T), so
one time loop over the trailing (edge, time) axes propagates them all.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .network import HighwayScenario, SpeedProfile, config_number, reject_unknown_keys

# Validation seeds are derived from training seeds by this fixed offset so
# the two streams never overlap for a given run.
VALIDATION_SEED_OFFSET = 7919


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _store_disturbance(obj, ndim: int) -> None:
    """Store checked, finite, read-only copies of rho0 and omega in obj."""
    rho0, omega = _frozen(obj.rho0), _frozen(obj.omega)
    if rho0.ndim != ndim or omega.shape[:-1] != rho0.shape:
        raise ValueError("omega must have rho0's shape plus a step axis")
    if not (np.isfinite(rho0).all() and np.isfinite(omega).all()):
        raise ValueError("disturbance entries must be finite")
    object.__setattr__(obj, "rho0", rho0)
    object.__setattr__(obj, "omega", omega)


@dataclass(frozen=True)
class DisturbanceSample:
    """One realization: rho0 with shape (n,), omega with shape (n, T)."""

    rho0: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        _store_disturbance(self, 1)


@dataclass(frozen=True)
class SampleSet:
    """N >= 1 disturbance draws in order, stored as read-only arrays
    ``rho0`` (N, n) and ``omega`` (N, n, T) of finite values."""

    rho0: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        _store_disturbance(self, 2)
        if self.count < 1:
            raise ValueError("need at least one sample")

    @property
    def samples(self) -> tuple[DisturbanceSample, ...]:
        """The draws one by one, built on each access."""
        return tuple(map(DisturbanceSample, self.rho0, self.omega))

    @property
    def count(self) -> int:
        return self.rho0.shape[0]

    @property
    def n(self) -> int:
        return self.rho0.shape[1]

    @property
    def horizon(self) -> int:
        return self.omega.shape[2]


@dataclass(frozen=True)
class GeneratorSpec:
    """Per-edge uniform bounds for rho0 and omega draws."""

    rho0_lo: tuple[float, ...]
    rho0_hi: tuple[float, ...]
    omega_lo: tuple[float, ...]
    omega_hi: tuple[float, ...]

    def __post_init__(self):
        n = len(self.rho0_lo)
        if not (len(self.rho0_hi) == len(self.omega_lo) == len(self.omega_hi) == n):
            raise ValueError("bound tuples disagree on edge count")
        if any(lo > hi for lo, hi in zip(self.rho0_lo, self.rho0_hi)):
            raise ValueError("rho0 lower bound exceeds upper bound")
        if any(lo > hi for lo, hi in zip(self.omega_lo, self.omega_hi)):
            raise ValueError("omega lower bound exceeds upper bound")


def _per_edge_bounds(raw, n: int, path: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Accept a scalar, a {lo, hi} object, or a per-edge list of either."""

    def one(v, p):
        if isinstance(v, dict) and set(v) == {"lo", "hi"}:
            return tuple(config_number(v[k], f"{p}.{k}") for k in ("lo", "hi"))
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            return (config_number(v, p),) * 2
        raise ConfigError(p, "expected a number or an object with keys lo, hi")

    if isinstance(raw, list):
        if len(raw) != n:
            raise ConfigError(path, f"expected {n} per-edge entries, got {len(raw)}")
        pairs = [one(v, f"{path}[{e}]") for e, v in enumerate(raw)]
    else:
        pairs = [one(raw, path)] * n
    lo, hi = zip(*pairs)
    return lo, hi


def load_generator(cfg: dict, n: int) -> GeneratorSpec:
    """Parse the ``disturbance`` section of a scenario config.

    Schema::

        "disturbance": {
          "rho0": 260,                                  # or {lo, hi} or list
          "omega": [{"lo": 2.0e4, "hi": 2.4e4},
                    {"lo": -1500, "hi": 2500}, ...]     # same three forms
        }
    """
    if "disturbance" not in cfg:
        raise ConfigError("disturbance", "missing required key")
    section = cfg["disturbance"]
    if not isinstance(section, dict):
        raise ConfigError("disturbance", "expected an object")
    reject_unknown_keys(section, ("rho0", "omega"), "disturbance.")
    for key in ("rho0", "omega"):
        if key not in section:
            raise ConfigError(f"disturbance.{key}", "missing required key")
    rho0_lo, rho0_hi = _per_edge_bounds(section["rho0"], n, "disturbance.rho0")
    omega_lo, omega_hi = _per_edge_bounds(section["omega"], n, "disturbance.omega")
    try:
        return GeneratorSpec(rho0_lo, rho0_hi, omega_lo, omega_hi)
    except ValueError as exc:
        raise ConfigError("disturbance", str(exc)) from exc


def generate_samples(
    gen: GeneratorSpec, count: int, horizon: int, seed: int
) -> SampleSet:
    """Draw ``count`` i.i.d. samples in one generator call, deterministic for
    a given seed, with the bits of one ``rng.uniform`` per draw and array."""
    if count < 1:
        raise ValueError("count must be at least 1")
    n = len(gen.rho0_lo)
    lo = np.concatenate([gen.rho0_lo, np.repeat(gen.omega_lo, horizon)])
    hi = np.concatenate([gen.rho0_hi, np.repeat(gen.omega_hi, horizon)])
    u = np.random.default_rng(seed).random((count, n + n * horizon))
    draws = lo + (hi - lo) * u
    return SampleSet(draws[:, :n], draws[:, n:].reshape(count, n, horizon))


def propagate(
    scenario: HighwayScenario, profile: SpeedProfile,
    sample: DisturbanceSample | SampleSet,
) -> np.ndarray:
    """Density trajectories for slots t = 1..T under the recursion: (n, T)
    for one ``DisturbanceSample``, (N, n, T) for a ``SampleSet``. Only the
    first T disturbance steps are read."""
    T, h = scenario.T, scenario.h
    if sample.rho0.shape[-1] != scenario.n:
        raise ValueError("sample edge count does not match the scenario")
    if sample.omega.shape[-1] < T:
        raise ValueError("sample horizon is shorter than the scenario's T")
    u = profile.as_array()
    rho = sample.rho0
    out = np.empty(rho.shape + (T,))
    inflow = np.zeros(rho.shape)
    for t in range(T):
        flow = u * rho
        inflow[..., 1:] = flow[..., :-1]
        rho = rho + h * (inflow - flow + sample.omega[..., t])
        out[..., t] = rho
    return out


@dataclass(frozen=True)
class TrajectoryBatch:
    """Per-sample trajectories (count, n, T) plus the generating profile."""

    rho: np.ndarray
    u: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "rho", _frozen(self.rho))

    @property
    def count(self) -> int:
        return self.rho.shape[0]


def propagate_batch(
    scenario: HighwayScenario, profile: SpeedProfile, samples: SampleSet
) -> TrajectoryBatch:
    """Propagate every sample; order preserving."""
    return TrajectoryBatch(rho=propagate(scenario, profile, samples), u=profile.u)


def write_samples(samples: SampleSet, prefix: str | Path) -> tuple[Path, Path]:
    """Write ``<prefix>_rho0.csv`` (l, e, rho0) and ``<prefix>_omega.csv``
    (l, e, t, omega); indices are 1-based for l and e, 0-based for t.
    Lines end in LF, as in every CSV the commands write."""
    prefix = Path(prefix)
    rho0_path = prefix.with_name(prefix.name + "_rho0.csv")
    omega_path = prefix.with_name(prefix.name + "_omega.csv")
    with open(rho0_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["l", "e", "rho0"])
        w.writerows([l + 1, e + 1, repr(float(v))]
                    for (l, e), v in np.ndenumerate(samples.rho0))
    with open(omega_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["l", "e", "t", "omega"])
        w.writerows([l + 1, e + 1, t, repr(float(v))]
                    for (l, e, t), v in np.ndenumerate(samples.omega))
    return rho0_path, omega_path


def read_samples(prefix: str | Path, scenario: HighwayScenario) -> SampleSet:
    """Load the two-file pair written by :func:`write_samples`."""
    prefix = Path(prefix)
    rho0_path = prefix.with_name(prefix.name + "_rho0.csv")
    omega_path = prefix.with_name(prefix.name + "_omega.csv")
    rho0_rows: dict[int, dict[int, float]] = {}
    try:
        with open(rho0_path, newline="") as fh:
            for row in csv.DictReader(fh):
                l, e = int(row["l"]), int(row["e"])
                rho0_rows.setdefault(l, {})[e] = float(row["rho0"])
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(rho0_path), f"bad sample file: {exc}") from exc
    omega_rows: dict[int, dict[tuple[int, int], float]] = {}
    try:
        with open(omega_path, newline="") as fh:
            for row in csv.DictReader(fh):
                l, e, t = int(row["l"]), int(row["e"]), int(row["t"])
                if t < 0:
                    raise ValueError(f"sample {l}: negative step {t}")
                omega_rows.setdefault(l, {})[(e, t)] = float(row["omega"])
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(omega_path), f"bad sample file: {exc}") from exc
    if sorted(rho0_rows) != sorted(omega_rows) or not rho0_rows:
        raise ConfigError(str(prefix), "sample indices disagree between the two files")
    n, labels = scenario.n, sorted(rho0_rows)
    horizon = 1 + max(t for rows in omega_rows.values() for (_, t) in rows)
    rho0 = np.empty((len(labels), n))
    omega = np.full((len(labels), n, horizon), np.nan)
    for i, l in enumerate(labels):
        if sorted(rho0_rows[l]) != list(range(1, n + 1)):
            raise ConfigError(str(rho0_path), f"sample {l}: expected edges 1..{n}")
        rho0[i] = [rho0_rows[l][e] for e in range(1, n + 1)]
        for (e, t), v in omega_rows[l].items():
            if not (1 <= e <= n):
                raise ConfigError(str(omega_path), f"sample {l}: edge {e} out of range")
            omega[i, e - 1, t] = v
        if np.isnan(omega[i]).any():
            raise ConfigError(str(omega_path), f"sample {l}: missing omega entries")
        for e, v in enumerate(rho0[i]):
            if not (0 <= v <= scenario.segments[e].rho_bar):
                raise ConfigError(
                    str(rho0_path),
                    f"sample {l}: rho0 on edge {e + 1} outside [0, rho_bar]",
                )
    return SampleSet(rho0, omega)
