"""Reference formulas of the certificate that only the tests use."""

import numpy as np

from vslcert.certificate import _dual_totals, flow_weights


def component_min(a: float, cap: float, r: float, lam: float) -> float:
    """Minimum of ``lam * |rho - r| + a * rho`` over rho in [0, cap]."""
    anchor = min(max(r, 0.0), cap)
    return min(lam * abs(r), lam * abs(anchor - r) + a * anchor)


def box_distance(scenario, profile, batch) -> float:
    """Mean 1-norm distance from the sample trajectories to their box."""
    a = flow_weights(scenario, profile)[None]
    _, dist = _dual_totals(a, scenario.critical_densities(profile)[None],
                           np.asarray(batch.rho)[None], a, scenario.epsilon)
    return float(dist[0])
