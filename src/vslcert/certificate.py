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
    caps = scenario.critical_densities(profile)[:, None]
    r = batch.rho
    below = np.maximum(-r, 0.0)
    above = np.maximum(r - caps, 0.0)
    return float((below + above).sum() / batch.count)


def _scan_values(a: np.ndarray, caps: np.ndarray, r: np.ndarray,
                 lams: np.ndarray) -> np.ndarray:
    """Vector of (1/N) * sum of component minima for each scale in lams."""
    N = r.shape[0]
    a3 = a[None, :, None]
    c3 = caps[None, :, None]
    lam4 = lams[:, None, None, None]
    anchor = np.clip(r, 0.0, c3)
    at_zero = lam4 * np.abs(r)[None]
    at_anchor = lam4 * np.abs(anchor - r)[None] + (a3 * anchor)[None]
    return np.minimum(at_zero, at_anchor).sum(axis=(1, 2, 3)) / N


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
