"""Exact worst-case performance certificate for a fixed speed profile.

The certified quantity is the worst expected average flow over every
disturbance distribution within transport radius ``epsilon`` (1-norm
ground cost) of the empirical trajectory distribution. For a fixed
profile the worst case reduces to a one-dimensional concave piecewise
linear maximization over the dual scale ``lam``, evaluated exactly at its
breakpoints: zero and the per-cell flow weights ``a_e = u_e / T``.

Each trajectory component r contributes the minimum over the box
``[0, cap]`` (cap = critical density under the posted limit) of
``lam * |rho - r| + a * rho``. Below the box, inside it and above it
alike that minimum is ``lam * |anchor - r| + min(lam, a) * anchor``, with
anchor = clip(r, 0, cap) the nearest point of the box. Summed over the
draws, cells and steps and divided by the number of draws, a profile's
dual objective is therefore

    lam * dist + sum_e min(lam, a_e) * mass_e - lam * epsilon,

where ``dist`` is the mean distance of the trajectories to the box and
``mass_e`` the per-cell sum of the anchors over draws and steps, divided
by the number of draws. When ``epsilon < dist`` no distribution in the
ball is supported on the box and the value is the sentinel -inf.

:func:`_dual_totals` evaluates this closed form for a stack of profiles,
summing in an order that does not depend on the stack, so
:func:`certificate` (one profile, its sorted breakpoints) and
:func:`menu_values` (many profiles, each at its own breakpoints) give a
profile the same value to the last bit.
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


def _dual_totals(a: np.ndarray, caps: np.ndarray, rho: np.ndarray,
                 lams: np.ndarray, epsilon: float):
    """Dual objective of P stacked profiles at their scales, and their
    box distances.

    a and caps are (P, n), rho (P, N, n, T) and lams (P, L). Returns the
    totals (P, L), -inf on every row whose ambiguity set is empty, and
    the distances (P,), inf past the float range.
    """
    count = rho.shape[1]
    anchor = np.clip(rho, 0.0, caps[:, None, :, None])
    # Each sum runs over steps, then draws (mass), or over one profile's
    # contiguous block (dist), so a profile's sums do not depend on how
    # many profiles are stacked with it.
    mass = anchor.sum(axis=3).sum(axis=1) / count
    anchor -= rho  # now anchor - rho, with no temporary of rho's size
    with np.errstate(over="ignore"):
        dist = np.abs(anchor, out=anchor).sum(axis=(1, 2, 3)) / count
    # (P, L, n): one term per profile, scale and cell.
    per_cell = np.minimum(lams[:, :, None], a[:, None, :])
    per_cell *= mass[:, None, :]
    # lam * (dist - epsilon) <= 0; near the float maximum it overflows to
    # -inf, its exact limit, and the scale zero still wins. An empty row
    # has dist > epsilon (perhaps inf); it takes -inf below instead.
    slack = np.minimum(dist, epsilon) - epsilon
    with np.errstate(over="ignore"):
        totals = per_cell.sum(axis=2) + lams * slack[:, None]
    totals[epsilon < dist] = -math.inf
    return totals, dist


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
    rho = np.asarray(batch.rho)
    if rho.shape[1] != scenario.n or rho.shape[2] != scenario.T:
        raise ValueError("trajectory batch dimensions do not match the scenario")
    a = flow_weights(scenario, profile)
    lams = np.unique(np.concatenate(([0.0], a)))
    totals, dist = _dual_totals(a[None], scenario.critical_densities(profile)[None],
                                rho[None], lams[None], scenario.epsilon)
    if scenario.epsilon < dist[0]:
        return CertificateResult(
            value=-math.inf, lambda_star=math.inf, status=STATUS_EMPTY, table=()
        )
    totals = totals[0]
    best = int(np.argmax(totals))
    return CertificateResult(
        value=float(totals[best]),
        lambda_star=float(lams[best]),
        status=STATUS_FINITE,
        table=tuple((float(l), float(v)) for l, v in zip(lams, totals)),
    )


def menu_values(scenario: HighwayScenario, speeds: np.ndarray,
                rho: np.ndarray) -> np.ndarray:
    """Certified value of each of P stacked profiles, -inf where the
    ambiguity set is empty: the value :func:`certificate` gives each
    profile, bit for bit.

    speeds (P, n) are rows of admissible speeds and rho (P, N, n, T) their
    trajectories. Each profile is scanned at its own breakpoints, zero
    and its flow weights; repeated scales change no maximum.
    """
    caps = np.empty_like(speeds)
    for e, (seg, band) in enumerate(zip(scenario.segments, scenario.bands)):
        for v in band:
            caps[speeds[:, e] == v, e] = critical_density(seg, v)
    a = speeds / scenario.T
    lams = np.concatenate((np.zeros((len(a), 1)), a), axis=1)
    totals, _ = _dual_totals(a, caps, rho, lams, scenario.epsilon)
    return totals.max(axis=1)
