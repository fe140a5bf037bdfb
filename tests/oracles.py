"""Reference formulas of the certificate, and of the CSV writer's value
format, that only the tests use.

Two of them are linear programs, solved by ``vslcert.lpsolve.solve_lp``:
:func:`build_lower` fixes a profile and returns its certificate as a
linear program over the scale ``lam``, the multipliers ``eta`` and the
prices ``nu``, whose value matches the closed-form certificate, and
:func:`box_support_lp` gives the no-congestion box's support function
through its multiplier LP, against the closed form :func:`box_support`.
Trajectory-indexed quantities (densities, dual multipliers) live on steps
t = 1..T and are stored 0-based.
"""

import math

import numpy as np

from vslcert.certificate import add_cells, flow_weights
from vslcert.errors import NumericalError
from vslcert.lpsolve import LpModel, ModelBuilder, solve_lp
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


def fmt(value) -> str:
    """A CSV field as the command line writes it: numpy scalars through
    ``.item()``, floats by ``repr``, everything else by ``str``."""
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def eta_coefficient(seg, u: float) -> float:
    """Coefficient of the multiplier ``eta`` in the no-congestion dual
    feasibility row under speed limit ``u``: the row of the fixed-profile
    certificate LP reads ``eta_coefficient(seg, u) * eta - nu >= -u / T``.

    Equals ``f_bar + u * (rho_bar - f_bar / u_bar)``, which simplifies to
    ``f_bar * rho_bar / critical_density(seg, u)``.
    """
    return seg.f_bar + u * (seg.rho_bar - seg.f_bar / seg.u_bar)


def build_lower(scenario, samples, profile, batch) -> LpModel:
    """Assemble the fixed-profile certificate LP on the trajectories of
    ``batch``, which must be propagated under ``profile``.

    The dual feasibility row of each (sample, edge, step) reads
    ``eta_coefficient(seg, u) * eta - nu >= -u / T``. The multiplier cap
    is deliberately absent here: when the radius is too small for the
    sample cloud the LP must be unbounded, mirroring the certificate's
    empty-ambiguity sentinel.
    """
    if batch.u != profile.u:
        raise ValueError("trajectory batch was propagated under another profile")
    n, T, N = scenario.n, scenario.T, samples.count
    mb = ModelBuilder()

    lam = mb.add_var(0.0, math.inf, obj=-scenario.epsilon)
    for l in range(N):
        for e in range(n):
            seg = scenario.segments[e]
            slope = -seg.f_bar * seg.rho_bar / N
            u = profile.u[e]
            k = eta_coefficient(seg, u)
            for t in range(T):
                eta = mb.add_var(0.0, math.inf, obj=slope)
                nu = mb.add_var(-math.inf, math.inf, obj=batch.rho[l, e, t] / N)
                mb.add_row([eta, nu], [k, -1.0], ">=", -u / T, block="dual_feas")
                mb.add_row([nu, lam], [1.0, -1.0], "<=", 0.0, block="norm_cap")
                mb.add_row([nu, lam], [1.0, 1.0], ">=", 0.0, block="norm_cap")
    return mb.build()


def box_support(scenario, profile, mu: np.ndarray) -> float:
    """Closed-form support function of the no-congestion box at mu."""
    mu = np.asarray(mu, dtype=float)
    caps = scenario.critical_densities(profile)
    return float(np.sum(caps[:, None] * np.maximum(mu, 0.0)))


def box_support_lp(scenario, profile, mu: np.ndarray) -> float:
    """Same support function through its multiplier LP, for cross-checks."""
    mu = np.asarray(mu, dtype=float)
    n, T = mu.shape
    mb = ModelBuilder()
    for e in range(n):
        seg = scenario.segments[e]
        k = eta_coefficient(seg, profile.u[e])
        cost = seg.f_bar * seg.rho_bar
        for t in range(T):
            v = mb.add_var(0.0, math.inf, obj=-cost)
            mb.add_row([v], [k], ">=", mu[e, t], block="dual_feas")
    sol = solve_lp(mb.build())
    if sol.status != "optimal":
        raise NumericalError(f"support LP ended {sol.status}")
    return -sol.objective
