"""Reference formulas of the certificate that only the tests use."""

import numpy as np

from vslcert.certificate import add_cells, flow_weights
from vslcert.network import critical_density, wave_ratio


def component_min(a: float, cap: float, r: float, lam: float) -> float:
    """Minimum of ``lam * |rho - r| + a * rho`` over rho in [0, cap]."""
    anchor = min(max(r, 0.0), cap)
    return min(lam * abs(r), lam * abs(anchor - r) + a * anchor)


def box_distance(scenario, profile, batch) -> float:
    """Mean 1-norm distance from the sample trajectories to their box, with
    the certificate's bits: per-cell distances added in cell order."""
    a = flow_weights(scenario, profile)
    _, dist = add_cells(np.zeros(1), np.zeros(()), np.zeros(1), a,
                        scenario.critical_densities(profile), np.asarray(batch.rho))
    return float(dist)


def allowable_flow(seg, rho: float, u: float) -> float:
    """Flow supported at density ``rho`` under speed limit ``u``.

    Free-flow branch ``u * rho`` up to the critical density, congested
    branch ``wave_ratio * u_bar * (rho_bar - rho)`` beyond it.
    """
    if not (0 <= rho <= seg.rho_bar):
        raise ValueError("density outside [0, rho_bar]")
    if not (0 < u <= seg.u_bar):
        raise ValueError("speed limit outside (0, u_bar]")
    if rho <= critical_density(seg, u):
        return u * rho
    return wave_ratio(seg) * seg.u_bar * (seg.rho_bar - rho)
