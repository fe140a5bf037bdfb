"""Mixed-binary reformulation of the certified speed-profile search.

Two model families are assembled here, both in reduced form: no
variable is defined by an equality, and a row that a variable bound
implies is written as that bound. The upper model makes the speed
profile a decision: each edge picks one entry of the speed menu through
binary indicators, trajectory and dual bilinearities are linearized
exactly with three Glover rows each, and the objective's
price-times-density products are relaxed with McCormick envelopes, so
its optimum upper bounds the best certificate over all admissible
profiles. The price ``nu`` enters directly: its sign row is the bound
``nu >= 0``, which with ``lam >= 0`` also implies ``nu >= -lam``. The
search builds the model once and appends one no-good row per visited
assignment (:func:`exclude`). The lower model fixes a profile and
evaluates the certificate exactly as a linear program over ``lam``,
``eta`` and ``nu`` alone; its value matches the closed-form certificate.

Indexing convention: trajectory-indexed quantities (densities, dual
multipliers) live on steps t = 1..T and are stored 0-based; flow
products y live on steps t = 0..T-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .lpsolve import LpModel, LpSolution, ModelBuilder, solve_milp
from .network import HighwayScenario, SpeedProfile, eta_coefficient
from .sampling import SampleSet, TrajectoryBatch, propagate_batch


@dataclass(frozen=True)
class SearchProblem:
    """Scenario and training samples for one search; the ambiguity radius
    is the scenario's ``epsilon``."""

    scenario: HighwayScenario
    samples: SampleSet

    def __post_init__(self):
        if self.samples.n != self.scenario.n:
            raise ValueError("sample edge count does not match scenario")
        if self.samples.horizon < self.scenario.T:
            raise ValueError("sample horizon is shorter than the scenario's T")


def glover_rows(mb: ModelBuilder, x: int, g: int, g_hi: float, z: int,
                block: str = "glover") -> None:
    """Emit the three rows that force z = x * g for binary x.

    g is a variable with range [0, g_hi], and z a variable whose lower
    bound 0 stands in for the fourth Glover row, z >= 0 * x.
    """
    if not (math.isfinite(g_hi) and g_hi >= 0.0):
        raise ValueError("glover_rows needs a finite bound g_hi >= 0")
    mb.add_row([z, x], [1.0, -g_hi], "<=", 0.0, block=block)
    mb.add_row([z, g], [1.0, -1.0], "<=", 0.0, block=block)
    mb.add_row([z, g, x], [1.0, -1.0, -g_hi], ">=", -g_hi, block=block)


def price_bound(scenario: HighwayScenario, e: int) -> float:
    """Largest dual price reachable on edge e given the multiplier cap."""
    seg = scenario.segments[e]
    return seg.u_bar * (1.0 / scenario.T + seg.rho_bar * scenario.eta_bar)


@dataclass
class UpperModel:
    """Built upper-bound MILP plus the variable index maps tests need."""

    problem: SearchProblem
    model: LpModel
    x_index: np.ndarray  # (n, m)
    lam_index: int
    rho_index: np.ndarray  # (N, n, T), step t stored at t-1
    y_index: np.ndarray  # (N, n, m, T), step t stored at t
    z_index: np.ndarray  # (N, n, m, T), step t stored at t-1
    eta_index: np.ndarray  # (N, n, T)
    nu_index: np.ndarray  # (N, n, T)
    s_index: np.ndarray  # (N, n, T)


@dataclass
class LowerModel:
    """Built lower-bound LP for one fixed speed profile."""

    problem: SearchProblem
    profile: SpeedProfile
    batch: TrajectoryBatch
    model: LpModel
    lam_index: int
    eta_index: np.ndarray  # (N, n, T)
    nu_index: np.ndarray  # (N, n, T)


def _menu_mask(scenario: HighwayScenario) -> np.ndarray:
    """(n, m) bool: which menu entries each edge may select."""
    m = len(scenario.gamma)
    mask = np.zeros((scenario.n, m), dtype=bool)
    for e in range(scenario.n):
        for i, g in enumerate(scenario.gamma):
            mask[e, i] = g in scenario.bands[e]
    return mask


def build_upper(problem: SearchProblem) -> UpperModel:
    """Assemble the profile-search MILP, before any exclusion cut."""
    sc = problem.scenario
    n, T, m = sc.n, sc.T, len(sc.gamma)
    N = problem.samples.count
    h = sc.h
    gamma = sc.gamma
    eta_bar = sc.eta_bar
    mask = _menu_mask(sc)
    mb = ModelBuilder()

    x = np.empty((n, m), dtype=int)
    for e in range(n):
        for i in range(m):
            x[e, i] = mb.add_var(0.0, 1.0 if mask[e, i] else 0.0, binary=True)
    lam = mb.add_var(0.0, math.inf, obj=-sc.epsilon)

    rho = np.empty((N, n, T), dtype=int)
    y = np.empty((N, n, m, T), dtype=int)
    z = np.empty((N, n, m, T), dtype=int)
    eta = np.empty((N, n, T), dtype=int)
    nu = np.empty((N, n, T), dtype=int)
    s = np.empty((N, n, T), dtype=int)
    for l in range(N):
        for e in range(n):
            seg = sc.segments[e]
            slope = -seg.f_bar * seg.rho_bar / N
            for t in range(T):
                rho[l, e, t] = mb.add_var(-math.inf, math.inf)
                eta[l, e, t] = mb.add_var(0.0, eta_bar, obj=slope)
                nu[l, e, t] = mb.add_var(0.0, math.inf)
                s[l, e, t] = mb.add_var(0.0, math.inf, obj=1.0 / N)
                for i in range(m):
                    y[l, e, i, t] = mb.add_var(0.0, seg.rho_bar)
                    z[l, e, i, t] = mb.add_var(0.0, eta_bar)

    for e in range(n):
        mb.add_row(list(x[e]), [1.0] * m, "=", 1.0, block="encoding")

    rho0, omega = problem.samples.rho0, problem.samples.omega
    for l in range(N):
        for e in range(n):
            seg = sc.segments[e]
            shock = seg.rho_bar - seg.f_bar / seg.u_bar
            nu_cap = price_bound(sc, e)
            for i in range(m):
                mb.add_row([y[l, e, i, 0], x[e, i]],
                           [1.0, -rho0[l, e]], "=", 0.0, block="y0")
            for t in range(1, T):
                for i in range(m):
                    glover_rows(mb, x[e, i], rho[l, e, t - 1], seg.rho_bar,
                                y[l, e, i, t], block="glover_y")
                mb.add_row([*y[l, e, :, t], rho[l, e, t - 1]],
                           [*([1.0] * m), -1.0], "=", 0.0, block="sum_y")
            for t in range(T):
                cols = [rho[l, e, t]]
                coefs = [1.0]
                if t >= 1:
                    cols.append(rho[l, e, t - 1])
                    coefs.append(-1.0)
                cols.extend(y[l, e, :, t])
                coefs.extend(h * g for g in gamma)
                if e >= 1:
                    cols.extend(y[l, e - 1, :, t])
                    coefs.extend(-h * g for g in gamma)
                rhs = h * omega[l, e, t] + (rho0[l, e] if t == 0 else 0.0)
                mb.add_row(cols, coefs, "=", rhs, block="dynamics")
                for i in range(m):
                    glover_rows(mb, x[e, i], eta[l, e, t], eta_bar,
                                z[l, e, i, t], block="glover_z")
                mb.add_row([*z[l, e, :, t], eta[l, e, t], nu[l, e, t], *x[e]],
                           [*(shock * g for g in gamma), seg.f_bar, -1.0,
                            *(g / T for g in gamma)],
                           ">=", 0.0, block="dual_feas")
                mb.add_row([nu[l, e, t], lam], [1.0, -1.0], "<=", 0.0,
                           block="norm_cap")
                mb.add_row([s[l, e, t], nu[l, e, t], rho[l, e, t]],
                           [1.0, -seg.rho_bar, -nu_cap],
                           ">=", -nu_cap * seg.rho_bar, block="mccormick")
                mb.add_row([s[l, e, t], nu[l, e, t]], [1.0, -seg.rho_bar],
                           "<=", 0.0, block="mccormick")
                mb.add_row([s[l, e, t], rho[l, e, t]], [1.0, -nu_cap],
                           "<=", 0.0, block="mccormick")

    model = mb.build()
    return UpperModel(problem=problem, model=model, x_index=x, lam_index=lam,
                      rho_index=rho, y_index=y, z_index=z, eta_index=eta,
                      nu_index=nu, s_index=s)


def exclude(upper: UpperModel, assignment) -> None:
    """Append the no-good row that cuts off one speed assignment, in place.

    An assignment is the per-edge tuple of chosen menu indices. The row
    sum(x chosen) - sum(x other) <= n - 1 is violated by that assignment
    alone (Balas & Jeroslow 1972).
    """
    x = upper.x_index
    n = x.shape[0]
    chosen = np.zeros(x.shape, dtype=bool)
    chosen[np.arange(n), list(assignment)] = True
    upper.model.add_row(x.ravel(), np.where(chosen.ravel(), 1.0, -1.0),
                        "<=", n - 1.0, block="cut")


def build_lower(problem: SearchProblem, profile: SpeedProfile,
                batch: TrajectoryBatch | None = None) -> LowerModel:
    """Assemble the fixed-profile certificate LP.

    With the profile fixed, the only active Glover product of each
    (sample, edge, step) equals ``eta``, so the dual feasibility row reads
    ``eta_coefficient(seg, u) * eta - nu >= -u / T``. The multiplier cap
    is deliberately absent here: when the radius is too small for the
    sample cloud the LP must be unbounded, mirroring the certificate's
    empty-ambiguity sentinel.
    """
    sc = problem.scenario
    if batch is None:
        batch = propagate_batch(sc, profile, problem.samples)
    elif batch.u != profile.u:
        raise ValueError("trajectory batch was propagated under another profile")
    n, T = sc.n, sc.T
    N = problem.samples.count
    mb = ModelBuilder()

    lam = mb.add_var(0.0, math.inf, obj=-sc.epsilon)
    eta = np.empty((N, n, T), dtype=int)
    nu = np.empty((N, n, T), dtype=int)
    for l in range(N):
        for e in range(n):
            seg = sc.segments[e]
            slope = -seg.f_bar * seg.rho_bar / N
            for t in range(T):
                eta[l, e, t] = mb.add_var(0.0, math.inf, obj=slope)
                nu[l, e, t] = mb.add_var(
                    -math.inf, math.inf, obj=batch.rho[l, e, t] / N)

    for l in range(N):
        for e in range(n):
            u = profile.u[e]
            k = eta_coefficient(sc.segments[e], u)
            for t in range(T):
                mb.add_row([eta[l, e, t], nu[l, e, t]], [k, -1.0],
                           ">=", -u / T, block="dual_feas")
                mb.add_row([nu[l, e, t], lam], [1.0, -1.0], "<=", 0.0,
                           block="norm_cap")
                mb.add_row([nu[l, e, t], lam], [1.0, 1.0], ">=", 0.0,
                           block="norm_cap")

    model = mb.build()
    return LowerModel(problem=problem, profile=profile, batch=batch,
                      model=model, lam_index=lam, eta_index=eta, nu_index=nu)


def decode_profile(upper: UpperModel, solution: LpSolution) -> SpeedProfile:
    """Read the integral speed assignment out of an upper-model solution."""
    if solution.x is None:
        raise NumericalError("no incumbent to decode")
    vals = solution.x[upper.x_index]
    picks = np.argmax(vals, axis=1)
    if np.any(vals[np.arange(len(picks)), picks] < 0.5):
        raise NumericalError("fractional speed assignment in incumbent")
    sc = upper.problem.scenario
    return sc.speed_profile(tuple(sc.gamma[i] for i in picks))


def assignment_of(upper: UpperModel, solution: LpSolution) -> tuple[int, ...]:
    """Menu-index tuple of the incumbent, for its exclusion cut."""
    vals = solution.x[upper.x_index]
    return tuple(int(i) for i in np.argmax(vals, axis=1))


def eta_saturation(upper: UpperModel, solution: LpSolution,
                   tol: float = 1e-6) -> list[tuple[int, int, int]]:
    """(sample, edge, step) triples where a multiplier sits at its cap.

    A nonempty result means the configured cap may be truncating the
    duals and the upper bound is suspect; callers should warn.
    """
    if solution.x is None:
        return []
    cap = upper.problem.scenario.eta_bar
    vals = solution.x[upper.eta_index]
    hits = np.argwhere(vals >= cap - tol * max(1.0, cap))
    return [(int(a), int(b), int(c)) for a, b, c in hits]


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
