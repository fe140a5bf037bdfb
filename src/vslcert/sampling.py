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
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ArgumentError, ConfigError, DisturbanceOverflowError
from .network import HighwayScenario, SpeedProfile, config_number, reject_unknown_keys

# Validation seeds are derived from training seeds by this fixed offset so
# the two streams never overlap for a given run.
VALIDATION_SEED_OFFSET = 7919


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only float copy of ``a``; an array that is read-only and
    float already is kept as it is, so that ``generate_samples`` hands
    over views of its draw buffer without a copy."""
    if isinstance(a, np.ndarray) and a.dtype == float and not a.flags.writeable:
        return a
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
        bounds = zip(self.rho0_lo + self.omega_lo, self.rho0_hi + self.omega_hi)
        if any(hi - lo == math.inf for lo, hi in bounds):
            raise ValueError("a bound interval is wider than the float range")


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
    gen: GeneratorSpec, count: int, horizon: int,
    seed: int | np.random.Generator, out: np.ndarray | None = None,
) -> SampleSet:
    """Draw ``count`` i.i.d. samples in one generator call, deterministic for
    a given seed, with the bits of one ``rng.uniform`` per draw and array.

    ``seed`` may also be a ``np.random.Generator``, whose stream the draws
    continue: calls of c_1, c_2, ... draws on one generator give, row for
    row, the draws of one call of c_1 + c_2 + ... draws. ``out``, a float
    array (count, n + n * horizon) with contiguous rows, then receives the
    draws in place of a new array; the set's arrays are read-only views
    of it, valid until ``out`` is written again. Raises ArgumentError for
    a count below 1, and when the draws cannot be allocated, naming count
    or horizon, whichever sizes the longer axis of the draw array.
    """
    if count < 1:
        raise ArgumentError("count", "count must be at least 1")
    n = len(gen.rho0_lo)
    width = n + n * horizon
    if out is None:
        out = allocate((count, width), "count" if count >= width else "horizon")
    # The bounds of one row, allocated after the rows so that the draws'
    # allocation names the input that is too large.
    lo = np.concatenate([gen.rho0_lo, np.repeat(gen.omega_lo, horizon)])
    hi = np.concatenate([gen.rho0_hi, np.repeat(gen.omega_hi, horizon)])
    # Each draw is rho0 (n,) and then omega (n, horizon), one row of u.
    u = np.random.default_rng(seed).random((count, width), out=out)
    u *= hi - lo
    u += lo
    rho0, omega = u[:, :n], u[:, n:].reshape(count, n, horizon)
    rho0.setflags(write=False)
    omega.setflags(write=False)
    return SampleSet(rho0, omega)


def allocate(shape: tuple[int, ...], name: str) -> np.ndarray:
    """An empty float array of ``shape``, or ArgumentError naming the
    argument ``name`` that sized it when numpy cannot allocate it:
    MemoryError, or ValueError past the largest size numpy can index."""
    try:
        return np.empty(shape)
    except (MemoryError, ValueError) as exc:
        raise ArgumentError(name, f"{name} too large: {exc}") from None


def propagate(
    scenario: HighwayScenario, profile: SpeedProfile,
    sample: DisturbanceSample | SampleSet,
) -> np.ndarray:
    """Density trajectories for slots t = 1..T under the recursion: (n, T)
    for one ``DisturbanceSample``, (N, n, T) for a ``SampleSet``. Only the
    first T disturbance steps are read.

    Raises ValueError when the flows of the trajectories, summed over the
    cells and steps as every objective sums them, could pass the float
    range: a finite disturbance can still be too large to propagate."""
    if sample.rho0.shape[-1] != scenario.n:
        raise ValueError("sample edge count does not match the scenario")
    if sample.omega.shape[-1] < scenario.T:
        raise ValueError("sample horizon is shorter than the scenario's T")
    u = profile.as_array()
    out = propagate_cells(scenario.h, scenario.T, u, sample.rho0, sample.omega)
    check_bounded(scenario, out, u.max())
    return out


def propagate_cells(h: float, T: int, u, rho: np.ndarray, omega: np.ndarray,
                    upstream: np.ndarray | None = None) -> np.ndarray:
    """The recursion over steps 1..T for a run of consecutive cells, the
    last axis of their densities ``rho`` (..., c) at step 0.

    u holds the cells' speeds, (c,) or stacked so as to broadcast against
    rho, and omega (..., c, >= T) their net inflows. upstream (..., T), when
    given, is the outflow of the cell before the run at steps 0..T-1;
    without it the first cell has no upstream neighbour. Returns the
    densities (..., c, T) over the broadcast shape. Every element is
    computed by the same expression, so a cell's trajectory has the same
    bits whatever it is stacked with."""
    shape = np.broadcast(u, rho, 0.0 if upstream is None else upstream[..., :1]).shape
    out = np.empty(shape + (T,))
    inflow = np.zeros(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            flow = u * rho
            if shape[-1] > 1:
                inflow[..., 1:] = flow[..., :-1]
            if upstream is not None:
                inflow[..., 0] = upstream[..., t]
            rho = rho + h * (inflow - flow + omega[..., t])
            out[..., t] = rho
    return out


def check_bounded(scenario: HighwayScenario, traj: np.ndarray,
                  u_max: float) -> None:
    """Raise ValueError unless the flows of the trajectories ``traj``
    under speeds of at most ``u_max``, summed over the cells and steps as
    every objective sums them, stay inside the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        # max and min read out without a temporary; both are nan when an
        # entry is (from inf - inf), and nan fails the comparison too.
        peak = max(traj.max(), -traj.min())
        bounded = peak * u_max * scenario.n * scenario.T < math.inf
    if not bounded:
        raise DisturbanceOverflowError(
            "propagated densities overflow the float range; "
            "the disturbance is too large for this scenario")


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
    rho = propagate(scenario, profile, samples)
    rho.setflags(write=False)  # fresh and unshared: the batch keeps it uncopied
    return TrajectoryBatch(rho=rho, u=profile.u)


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


def _finite(text: str, label: int) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"sample {label}: non-finite value {text!r}")
    return value


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
                if e in rho0_rows.setdefault(l, {}):
                    raise ValueError(f"sample {l}: repeated row for edge {e}")
                rho0_rows[l][e] = _finite(row["rho0"], l)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(rho0_path), f"bad sample file: {exc}") from exc
    omega_rows: dict[int, dict[tuple[int, int], float]] = {}
    try:
        with open(omega_path, newline="") as fh:
            for row in csv.DictReader(fh):
                l, e, t = int(row["l"]), int(row["e"]), int(row["t"])
                if t < 0:
                    raise ValueError(f"sample {l}: negative step {t}")
                if (e, t) in omega_rows.setdefault(l, {}):
                    raise ValueError(
                        f"sample {l}: repeated row for edge {e}, step {t}")
                omega_rows[l][(e, t)] = _finite(row["omega"], l)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(omega_path), f"bad sample file: {exc}") from exc
    if sorted(rho0_rows) != sorted(omega_rows) or not rho0_rows:
        raise ConfigError(str(prefix), "sample indices disagree between the two files")
    n, labels = scenario.n, sorted(rho0_rows)
    horizon = 1 + max(t for rows in omega_rows.values() for (_, t) in rows)
    if horizon < scenario.T:
        raise ConfigError(str(omega_path), f"{horizon} steps, fewer than the "
                                           f"scenario's T = {scenario.T}")
    # Rows are distinct (e, t) with 0 <= t < horizon, and every e is
    # checked below to lie in 1..n, so n * horizon rows fill a draw. Counted
    # before the array is sized by the largest step.
    for l in labels:
        if len(omega_rows[l]) < n * horizon:
            raise ConfigError(str(omega_path), f"sample {l}: missing omega entries")
    rho0 = np.empty((len(labels), n))
    omega = np.empty((len(labels), n, horizon))
    for i, l in enumerate(labels):
        if sorted(rho0_rows[l]) != list(range(1, n + 1)):
            raise ConfigError(str(rho0_path), f"sample {l}: expected edges 1..{n}")
        rho0[i] = [rho0_rows[l][e] for e in range(1, n + 1)]
        for (e, t), v in omega_rows[l].items():
            if not (1 <= e <= n):
                raise ConfigError(str(omega_path), f"sample {l}: edge {e} out of range")
            omega[i, e - 1, t] = v
        for e, v in enumerate(rho0[i]):
            if not (0 <= v <= scenario.segments[e].rho_bar):
                raise ConfigError(
                    str(rho0_path),
                    f"sample {l}: rho0 on edge {e + 1} outside [0, rho_bar]",
                )
    return SampleSet(rho0, omega)
