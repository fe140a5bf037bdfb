"""Exact worst-case performance certificate for a fixed speed profile.

The certified quantity is the worst expected average flow over every
disturbance distribution within transport radius ``epsilon`` (1-norm
ground cost) of the empirical trajectory distribution. For a fixed
profile the worst case reduces to a one-dimensional concave piecewise
linear maximization over the dual scale, evaluated exactly at its
breakpoints: zero and the per-edge flow weights ``u_e / T``.

Each trajectory component contributes the minimum over the box
``[0, cap]`` (cap = critical density under the posted limit) of
``lam * |rho - r| + a * rho``; that minimum sits at one of the two
candidate points 0 and clamp(r, 0, cap).

:func:`menu_values` runs the same scan and the same empty-ambiguity
test for a stack of profiles at once, over the breakpoints of the whole
menu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import HighwayScenario, SpeedProfile, critical_density
from .sampling import TrajectoryBatch

STATUS_FINITE = "finite"
STATUS_EMPTY = "invalid_empty_ambiguity"


@dataclass(frozen=True)
class CertificateResult:
    """Certified value, the dual scale attaining it, and the scan table."""

    value: float
    lambda_star: float
    status: str
    table: tuple[tuple[float, float], ...]

    @property
    def finite(self) -> bool:
        return self.status == STATUS_FINITE


def flow_weights(scenario: HighwayScenario, profile: SpeedProfile) -> np.ndarray:
    """Gradient of the average-flow objective in the densities: u_e / T."""
    return profile.as_array() / scenario.T


def average_flow(profile: SpeedProfile, traj: np.ndarray):
    """Time-averaged total flow (veh/h): a float for one trajectory (n, T),
    an array (N,) with one value per draw for a stack (N, n, T)."""
    u = profile.as_array()
    flow = (u @ traj).sum(axis=-1) / traj.shape[-1]
    return float(flow) if flow.ndim == 0 else flow


def component_min(a: float, cap: float, r: float, lam: float) -> float:
    """Minimum of ``lam * |rho - r| + a * rho`` over rho in [0, cap]."""
    anchor = min(max(r, 0.0), cap)
    return min(lam * abs(r), lam * abs(anchor - r) + a * anchor)


def box_distance(scenario: HighwayScenario, profile: SpeedProfile,
                 batch: TrajectoryBatch) -> float:
    """Mean 1-norm distance from the sample trajectories to their box."""
    caps = scenario.critical_densities(profile)
    return float(_box_distances(caps, batch.rho))


def _box_distances(caps: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Mean 1-norm distance from trajectories r (..., N, n, T) to the box
    [0, caps] with caps (..., n); one value per leading index."""
    c3 = caps[..., None, :, None]
    below = np.maximum(-r, 0.0)
    above = np.maximum(r - c3, 0.0)
    return (below + above).sum(axis=(-3, -2, -1)) / r.shape[-3]


def _scan_values(a: np.ndarray, caps: np.ndarray, r: np.ndarray,
                 lams: np.ndarray) -> np.ndarray:
    """(1/N) * sum of component minima for each scale in lams.

    a and caps are (..., n) and r is (..., N, n, T); the result is
    (..., L), one row of L scales per leading index.
    """
    N = r.shape[-3]
    a3 = a[..., None, :, None]
    c3 = caps[..., None, :, None]
    anchor = np.clip(r, 0.0, c3)
    # Each profile's components flattened into one trailing axis, with an
    # axis for the scales before it: (..., 1, N*n*T).
    flat = r.shape[:-3] + (1, -1)
    stay = np.abs(r).reshape(flat)
    move = np.abs(anchor - r).reshape(flat)
    base = (a3 * anchor).reshape(flat)
    lam2 = lams[:, None]
    at_zero = lam2 * stay
    at_anchor = lam2 * move
    at_anchor += base
    return np.minimum(at_zero, at_anchor, out=at_zero).sum(axis=-1) / N


def certificate(
    scenario: HighwayScenario,
    profile: SpeedProfile,
    batch: TrajectoryBatch,
) -> CertificateResult:
    """Evaluate the certificate of a profile's trajectories at ``scenario.epsilon``.

    The scan covers every breakpoint of the dual objective. When the
    transport radius is too small to move all samples into the box (the
    ambiguity ball would be empty of supported distributions), the value
    is reported as -inf with a distinct status; ties between breakpoints
    resolve to the smallest scale.
    """
    if batch.u != profile.u:
        raise ValueError("trajectory batch was generated under a different profile")
    a = flow_weights(scenario, profile)
    caps = scenario.critical_densities(profile)
    r = np.asarray(batch.rho)
    if r.shape[1] != scenario.n or r.shape[2] != scenario.T:
        raise ValueError("trajectory batch dimensions do not match the scenario")

    if scenario.epsilon < box_distance(scenario, profile, batch):
        return CertificateResult(
            value=-math.inf, lambda_star=math.inf, status=STATUS_EMPTY, table=()
        )

    lams = np.unique(np.concatenate(([0.0], a)))
    totals = _scan_values(a, caps, r, lams) - lams * scenario.epsilon
    best = 0
    for i in range(1, len(lams)):
        if totals[i] > totals[best]:
            best = i
    table = tuple((float(l), float(v)) for l, v in zip(lams, totals))
    return CertificateResult(
        value=float(totals[best]),
        lambda_star=float(lams[best]),
        status=STATUS_FINITE,
        table=table,
    )


def menu_scales(scenario: HighwayScenario) -> np.ndarray:
    """Zero and every band speed over T, sorted: a superset of the
    breakpoints ``{0} ∪ u/T`` of every admissible profile's dual scan."""
    speeds = np.concatenate([np.asarray(band, dtype=float)
                             for band in scenario.bands])
    return np.unique(np.concatenate(([0.0], speeds / scenario.T)))


def menu_values(scenario: HighwayScenario, speeds: np.ndarray,
                rho: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Certified value of each of P stacked profiles, -inf where the
    ambiguity set is empty.

    speeds (P, n) are rows of admissible speeds, rho (P, N, n, T) their
    trajectories and lams the scales of :func:`menu_scales`. The scan
    over that superset attains each profile's maximum; the sums may be
    ordered differently from :func:`certificate`'s, so a value can
    differ from it in the last bits.
    """
    caps = np.empty_like(speeds)
    for e, (seg, band) in enumerate(zip(scenario.segments, scenario.bands)):
        for v in band:
            caps[speeds[:, e] == v, e] = critical_density(seg, v)
    totals = (_scan_values(speeds / scenario.T, caps, rho, lams)
              - lams * scenario.epsilon)
    values = totals.max(axis=-1)
    values[scenario.epsilon < _box_distances(caps, rho)] = -math.inf
    return values
