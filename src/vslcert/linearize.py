"""Linear programs of the certificate, kept as test oracles.

:func:`build_lower` fixes a profile and evaluates its certificate as a
linear program over the scale ``lam``, the multipliers ``eta`` and the
prices ``nu``; its value matches the closed-form certificate.
:func:`box_support_lp` gives the no-congestion box's support function
through its multiplier LP, against the closed form :func:`box_support`.

Indexing convention: trajectory-indexed quantities (densities, dual
multipliers) live on steps t = 1..T and are stored 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .lpsolve import LpModel, ModelBuilder, solve_milp
from .network import HighwayScenario, SpeedProfile, eta_coefficient
from .sampling import SampleSet, TrajectoryBatch, propagate_batch


@dataclass
class LowerModel:
    """Built lower-bound LP for one fixed speed profile."""

    scenario: HighwayScenario
    samples: SampleSet
    profile: SpeedProfile
    batch: TrajectoryBatch
    model: LpModel
    lam_index: int
    eta_index: np.ndarray  # (N, n, T)
    nu_index: np.ndarray  # (N, n, T)


def build_lower(scenario: HighwayScenario, samples: SampleSet,
                profile: SpeedProfile,
                batch: TrajectoryBatch | None = None) -> LowerModel:
    """Assemble the fixed-profile certificate LP.

    The dual feasibility row of each (sample, edge, step) reads
    ``eta_coefficient(seg, u) * eta - nu >= -u / T``. The multiplier cap
    is deliberately absent here: when the radius is too small for the
    sample cloud the LP must be unbounded, mirroring the certificate's
    empty-ambiguity sentinel.
    """
    if batch is None:
        batch = propagate_batch(scenario, profile, samples)
    elif batch.u != profile.u:
        raise ValueError("trajectory batch was propagated under another profile")
    n, T, N = scenario.n, scenario.T, samples.count
    mb = ModelBuilder()

    lam = mb.add_var(0.0, math.inf, obj=-scenario.epsilon)
    eta = np.empty((N, n, T), dtype=int)
    nu = np.empty((N, n, T), dtype=int)
    for l in range(N):
        for e in range(n):
            seg = scenario.segments[e]
            slope = -seg.f_bar * seg.rho_bar / N
            for t in range(T):
                eta[l, e, t] = mb.add_var(0.0, math.inf, obj=slope)
                nu[l, e, t] = mb.add_var(
                    -math.inf, math.inf, obj=batch.rho[l, e, t] / N)

    for l in range(N):
        for e in range(n):
            u = profile.u[e]
            k = eta_coefficient(scenario.segments[e], u)
            for t in range(T):
                mb.add_row([eta[l, e, t], nu[l, e, t]], [k, -1.0],
                           ">=", -u / T, block="dual_feas")
                mb.add_row([nu[l, e, t], lam], [1.0, -1.0], "<=", 0.0,
                           block="norm_cap")
                mb.add_row([nu[l, e, t], lam], [1.0, 1.0], ">=", 0.0,
                           block="norm_cap")

    model = mb.build()
    return LowerModel(scenario=scenario, samples=samples, profile=profile,
                      batch=batch, model=model, lam_index=lam, eta_index=eta,
                      nu_index=nu)


def box_support(scenario: HighwayScenario, profile: SpeedProfile,
                mu: np.ndarray) -> float:
    """Closed-form support function of the no-congestion box at mu."""
    mu = np.asarray(mu, dtype=float)
    caps = scenario.critical_densities(profile)
    return float(np.sum(caps[:, None] * np.maximum(mu, 0.0)))


def box_support_lp(scenario: HighwayScenario, profile: SpeedProfile,
                   mu: np.ndarray) -> float:
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
    sol = solve_milp(mb.build())
    if sol.status != "optimal":
        raise NumericalError(f"support LP ended {sol.status}")
    return -sol.objective
