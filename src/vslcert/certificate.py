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
candidate points 0 and anchor = clip(r, 0, cap).

That minimum also has a closed form. Below the box, inside it and above
it alike, ``|r| = |anchor - r| + anchor``, so

    min(lam * |r|, lam * |anchor - r| + a * anchor)
        = lam * |anchor - r| + min(lam, a) * anchor.

Summed over the draws, cells and steps, a profile's dual objective is
therefore ``lam * dist + sum_e min(lam, a_e) * mass_e - lam * epsilon``,
where ``dist`` is the mean distance of the trajectories to the box (the
same figure the empty-ambiguity test compares with epsilon) and
``mass_e`` the per-cell sum of the anchors over draws and steps, divided
by the number of draws. :func:`menu_values` scans a stack of profiles
this way, over the breakpoints of the whole menu, from two sums per
profile. :func:`certificate` keeps the component-wise scan: it is the
reference whose value, scale and table go into the outputs.
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
    r = np.asarray(batch.rho)
    return float(_box_distance(r, _anchor(scenario.critical_densities(profile), r)))


def _anchor(caps: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Nearest point of the box [0, caps] to each component of the
    trajectories r (..., N, n, T), with caps (..., n)."""
    return np.clip(r, 0.0, caps[..., None, :, None])


def _box_distance(r: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Mean 1-norm distance from trajectories r (..., N, n, T) to their
    anchors; one value per leading index."""
    return np.abs(anchor - r).sum(axis=(-3, -2, -1)) / r.shape[-3]


def _scan_values(a: np.ndarray, r: np.ndarray, anchor: np.ndarray,
                 lams: np.ndarray) -> np.ndarray:
    """(1/N) * sum of component minima for each scale in lams.

    a is (n,), r and its anchors are (N, n, T); the result is (L,).
    """
    # The components flattened into one trailing axis, with an axis for
    # the scales before it: (1, N*n*T).
    stay = np.abs(r).reshape(1, -1)
    move = np.abs(anchor - r).reshape(1, -1)
    base = (a[:, None] * anchor).reshape(1, -1)
    lam2 = lams[:, None]
    at_zero = lam2 * stay
    at_anchor = lam2 * move
    at_anchor += base
    return np.minimum(at_zero, at_anchor, out=at_zero).sum(axis=-1) / r.shape[0]


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

    anchor = _anchor(caps, r)
    if scenario.epsilon < _box_distance(r, anchor):
        return CertificateResult(
            value=-math.inf, lambda_star=math.inf, status=STATUS_EMPTY, table=()
        )

    lams = np.unique(np.concatenate(([0.0], a)))
    totals = _scan_values(a, r, anchor, lams) - lams * scenario.epsilon
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
    over that superset attains each profile's maximum. It runs in the
    closed form of the module docstring, so its sums are ordered
    differently from :func:`certificate`'s and a value can differ from
    it in the last bits.
    """
    caps = np.empty_like(speeds)
    for e, (seg, band) in enumerate(zip(scenario.segments, scenario.bands)):
        for v in band:
            caps[speeds[:, e] == v, e] = critical_density(seg, v)
    anchor = _anchor(caps, rho)
    dist = _box_distance(rho, anchor)
    mass = anchor.sum(axis=(1, 3)) / rho.shape[1]
    # (P, L, n): one term per profile, scale and cell.
    per_cell = np.minimum(lams[:, None], speeds[:, None, :] / scenario.T)
    per_cell *= mass[:, None, :]
    totals = per_cell.sum(axis=-1) + lams * (dist[:, None] - scenario.epsilon)
    values = totals.max(axis=-1)
    values[scenario.epsilon < dist] = -math.inf
    return values
