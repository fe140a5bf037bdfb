"""Highway chain model with a triangular flow-density diagram per segment.

Unit conventions, fixed across the whole package:

    length   km
    time     h      (slot length is given in seconds in config files and
                     converted once at load)
    speed    km/h
    density  veh/km
    flow     veh/h

The road is a chain of ``n`` equal cells of length ``L / n``. The
discretization ratio ``h = n * delta / L`` (h/km) turns a flow imbalance
into a per-slot density increment; stability requires ``h`` to be at most
``1 / max_e u_bar_e``.

Each segment carries nominal diagram parameters (capacity ``f_bar``, jam
density ``rho_bar``, free-flow ceiling ``u_bar``) plus incident caps
(``f_U``, ``rho_U``) that shrink the set of speed limits an operator may
post on that segment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, InfeasibleScenarioError

DEFAULT_JAM_MARGIN = 1.0
DEFAULT_RADIUS = 1000.0
SCENARIO_KEYS = frozenset({"n", "L_km", "delta_s", "T", "gamma", "pi", "eta_bar",
                           "epsilon", "beta", "segments", "disturbance"})
SEGMENT_KEYS = frozenset({"f_bar", "rho_bar", "u_bar", "f_U", "rho_U"})


@dataclass(frozen=True)
class SegmentParams:
    """Static description of one road segment."""

    f_bar: float
    rho_bar: float
    u_bar: float
    f_U: float
    rho_U: float

    def __post_init__(self):
        if not (self.u_bar > 0):
            raise ValueError("u_bar must be positive")
        if not (0 < self.f_U <= self.f_bar):
            raise ValueError("need 0 < f_U <= f_bar")
        if not (0 < self.rho_U <= self.rho_bar):
            raise ValueError("need 0 < rho_U <= rho_bar")
        if not (self.u_bar * self.rho_bar > self.f_bar):
            raise ValueError(
                "degenerate diagram: u_bar * rho_bar must exceed f_bar"
            )


def wave_ratio(seg: SegmentParams) -> float:
    """Ratio of the congested-branch wave speed to the free-flow ceiling.

    Equals ``f_bar / (u_bar * rho_bar - f_bar)``; the congested branch of
    the diagram has slope ``-wave_ratio(seg) * u_bar``.
    """
    return seg.f_bar / (seg.u_bar * seg.rho_bar - seg.f_bar)


def critical_density(seg: SegmentParams, u: float) -> float:
    """Density at which a segment under speed limit ``u`` reaches peak flow."""
    if not (u > 0):
        raise ValueError("speed limit must be positive")
    tau = wave_ratio(seg)
    return tau * seg.rho_bar * seg.u_bar / (tau * seg.u_bar + u)


def admissible_speeds(
    seg: SegmentParams, gamma: tuple[float, ...], jam_margin: float
) -> tuple[float, ...]:
    """Speed limits from the grid that respect the segment's incident caps.

    A grid value qualifies when its peak flow fits under ``f_U`` and its
    critical density stays ``jam_margin`` below ``rho_U``. Peak flow grows
    with the limit and critical density shrinks, so the qualifying values
    form a contiguous run of the ordered grid. The band is the first run
    of qualifying values: the rounded peak flow ``rc * g`` need not grow
    with g at the flow cap, and must not split the band.
    """
    if not gamma:
        raise ValueError("speed grid is empty")
    band = []
    for g in gamma:
        rc = critical_density(seg, g)
        if rc * g <= seg.f_U and rc <= seg.rho_U - jam_margin:
            band.append(g)
        elif band:
            break
    if not band:
        raise InfeasibleScenarioError(
            "no admissible speed: every grid value violates the incident caps"
        )
    return tuple(band)


@dataclass(frozen=True)
class HighwayScenario:
    """Immutable bundle of road geometry, diagram parameters and run knobs."""

    n: int
    L: float
    delta: float
    T: int
    segments: tuple[SegmentParams, ...]
    gamma: tuple[float, ...]
    jam_margin: float = DEFAULT_JAM_MARGIN
    epsilon: float = DEFAULT_RADIUS
    h: float = field(init=False)
    bands: tuple[tuple[float, ...], ...] = field(init=False)

    def __post_init__(self):
        if self.n < 1 or len(self.segments) != self.n:
            raise ValueError("segment list must have exactly n entries")
        if self.L <= 0 or self.delta <= 0 or self.T < 1:
            raise ValueError("L, delta and T must be positive")
        if any(g <= 0 for g in self.gamma):
            raise ValueError("speed grid entries must be positive")
        if any(a >= b for a, b in zip(self.gamma, self.gamma[1:])):
            raise ValueError("speed grid must be strictly increasing")
        if self.jam_margin <= 0:
            raise ValueError("jam_margin must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        h = self.n * self.delta / self.L
        u_max = max(s.u_bar for s in self.segments)
        if h > 1.0 / u_max + 1e-12:
            raise ValueError(
                f"discretization ratio h={h:.6g} exceeds 1/max u_bar={1.0 / u_max:.6g}"
            )
        object.__setattr__(self, "h", h)
        bands = tuple(
            admissible_speeds(s, self.gamma, self.jam_margin) for s in self.segments
        )
        object.__setattr__(self, "bands", bands)

    def speed_profile(self, values) -> "SpeedProfile":
        """Validate per-edge speed limits against the grid and bands."""
        u = tuple(float(v) for v in values)
        if len(u) != self.n:
            raise ValueError(f"expected {self.n} speed limits, got {len(u)}")
        for e, (v, band) in enumerate(zip(u, self.bands)):
            if v not in band:
                raise ValueError(
                    f"speed {v} on segment {e + 1} is outside the admissible band {band}"
                )
        return SpeedProfile(u)

    def uncontrolled_profile(self) -> tuple[float, ...]:
        """Free-flow ceilings per edge; may violate the admissible bands."""
        return tuple(s.u_bar for s in self.segments)

    def critical_densities(self, profile: "SpeedProfile") -> np.ndarray:
        return np.array(
            [critical_density(s, v) for s, v in zip(self.segments, profile.u)]
        )


@dataclass(frozen=True)
class SpeedProfile:
    """Per-edge speed limits, already validated against a scenario."""

    u: tuple[float, ...]

    def as_array(self) -> np.ndarray:
        return np.array(self.u, dtype=float)


def config_number(value, path: str) -> float:
    """A JSON number as a finite float; ConfigError naming ``path`` otherwise."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(path, "expected a finite number")


def read_config(path: str | Path):
    """Parse a JSON config file; ConfigError naming the file otherwise."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read file: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc


def reject_unknown_keys(cfg: dict, known, path: str) -> None:
    """ConfigError naming the first key of ``cfg`` not in ``known``."""
    for key in cfg:
        if key not in known:
            raise ConfigError(f"{path}{key}", "unknown key")


def _get(cfg: dict, key: str, kind, path: str, default=None, required=True):
    if key not in cfg:
        if required:
            raise ConfigError(f"{path}{key}", "missing required key")
        return default
    value = cfg[key]
    if kind is float:
        return config_number(value, f"{path}{key}")
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is list and isinstance(value, list):
        return value
    raise ConfigError(f"{path}{key}", f"expected {kind.__name__}")


def load_scenario(source) -> HighwayScenario:
    """Build a scenario from a JSON file path or an already-parsed dict.

    Schema (lengths km, slot seconds, speeds km/h, densities veh/km,
    flows veh/h)::

        {
          "L_km": 10.0, "n": 5, "delta_s": 30.0, "T": 20,
          "gamma": [40, 60, 80, 100, 120],
          "pi": 1.0,                # optional jam-density margin
          "epsilon": 1000.0,        # optional transport radius
          "beta": 0.5,              # optional, ignored (a retired knob)
          "eta_bar": 2.0e-3,        # optional, ignored (a retired knob)
          "segments": [
            {"f_bar": 3.1e4, "rho_bar": 1050, "u_bar": 140,
             "f_U": 3.1e4, "rho_U": 1050},
            ...
          ],
          "disturbance": {...}      # optional, see sampling.load_generator
        }

    ``f_U`` and ``rho_U`` default to the nominal ``f_bar`` / ``rho_bar``.
    A key outside this schema is an error. The first schema violation is
    reported with its key path.
    """
    cfg = read_config(source) if isinstance(source, (str, Path)) else source
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    reject_unknown_keys(cfg, SCENARIO_KEYS, "")

    n = _get(cfg, "n", int, "")
    L = _get(cfg, "L_km", float, "")
    delta_s = _get(cfg, "delta_s", float, "")
    T = _get(cfg, "T", int, "")
    gamma_raw = _get(cfg, "gamma", list, "")
    jam_margin = _get(cfg, "pi", float, "", default=DEFAULT_JAM_MARGIN, required=False)
    epsilon = _get(cfg, "epsilon", float, "", default=DEFAULT_RADIUS, required=False)
    seg_raw = _get(cfg, "segments", list, "")

    gamma = []
    for i, g in enumerate(gamma_raw):
        g = config_number(g, f"gamma[{i}]")
        if g <= 0:
            raise ConfigError(f"gamma[{i}]", "expected a positive number")
        gamma.append(g)

    if len(seg_raw) != n:
        raise ConfigError("segments", f"expected {n} entries, got {len(seg_raw)}")
    segments = []
    for e, raw in enumerate(seg_raw):
        path = f"segments[{e}]."
        if not isinstance(raw, dict):
            raise ConfigError(f"segments[{e}]", "expected an object")
        reject_unknown_keys(raw, SEGMENT_KEYS, path)
        f_bar = _get(raw, "f_bar", float, path)
        rho_bar = _get(raw, "rho_bar", float, path)
        u_bar = _get(raw, "u_bar", float, path)
        f_U = _get(raw, "f_U", float, path, default=f_bar, required=False)
        rho_U = _get(raw, "rho_U", float, path, default=rho_bar, required=False)
        try:
            segments.append(SegmentParams(f_bar, rho_bar, u_bar, f_U, rho_U))
        except ValueError as exc:
            raise ConfigError(f"segments[{e}]", str(exc)) from exc

    try:
        return HighwayScenario(
            n=n,
            L=L,
            delta=delta_s / 3600.0,
            T=T,
            segments=tuple(segments),
            gamma=tuple(gamma),
            jam_margin=jam_margin,
            epsilon=epsilon,
        )
    except ValueError as exc:
        raise ConfigError("<scenario>", str(exc)) from exc
