"""Independent verification tools.

Three tools live here: the exact evaluator, which scores every
admissible profile by the walk of the search's prefix tree with no
prune test (``brute-force``, up to ``DEFAULT_ENUM_CAP`` profiles, and
the ground truth that ``solve``'s branch-and-bound must match), a
physical demand/supply traffic simulator used for congestion
comparisons, and a fresh-sample Monte-Carlo check of the certificate's
out-of-sample guarantee.

The physical simulator deliberately differs from the linear training
dynamics: flows saturate at capacities and downstream supply, densities
stay inside [0, rho_U]. The two agree exactly in the strictly free-flow
regime, which is tested, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificate import average_flow, certificate
from .errors import ArgumentError, InfeasibleScenarioError
from .network import HighwayScenario, SpeedProfile, wave_ratio
from .sampling import (
    VALIDATION_SEED_OFFSET,
    DisturbanceSample,
    GeneratorSpec,
    SampleSet,
    allocate,
    generate_samples,
    propagate,
    propagate_batch,
)
from .search import DEFAULT_ENUM_CAP, profile_count, run_search

UNCONTROLLED = "uncontrolled"

# Values drawn per chunk of validate's fresh draws, (cells + cells x
# steps) per draw; the CTM states of a chunk take about as many. Chosen by
# timing validate on the corridor (305 values per draw, 859 draws per
# chunk): 2**17 to 2**20 tie at 1,000 draws, 2**18 is fastest at 5,000,
# and 2**15 is 1.7 times slower at both.
VALIDATE_CHUNK_ELEMENTS = 1 << 18


def exact_optimum(scenario: HighwayScenario, samples: SampleSet):
    """Evaluate every admissible profile and return (best, result).

    result is the winner's ``CertificateResult``; both are None when every
    profile has an empty ambiguity set. Every leaf of the prefix tree is
    scored, by the walk of ``search.run_search`` with no prune test, with
    the value :func:`certificate` gives it. The first best in product
    order wins, so ties go to the lexicographically smallest speed vector;
    its certificate is then evaluated once more, on its own trajectories,
    as the check on the tree's scan table. Refuses, before propagating
    anything, when the profile count exceeds ``DEFAULT_ENUM_CAP``.
    """
    total = profile_count(scenario)
    if total > DEFAULT_ENUM_CAP:
        raise ValueError(
            f"{total} admissible profiles exceed the enumeration cap "
            f"{DEFAULT_ENUM_CAP}; use `solve` for instances this large"
        )
    report = run_search(scenario, samples, prune=False)
    if report.best_u is None:
        return None, None
    best = scenario.speed_profile(report.best_u)
    return best, certificate(scenario, best, propagate_batch(scenario, best, samples))


def brute_force_optimum(scenario: HighwayScenario, samples: SampleSet):
    """Enumerate every admissible profile and return (best, value).

    Profiles whose ambiguity set is empty are skipped. Ties go to the
    lexicographically smallest speed vector. Refuses when the product of
    per-edge menu sizes exceeds ``DEFAULT_ENUM_CAP``; use ``solve``
    instead.
    """
    best, result = exact_optimum(scenario, samples)
    if best is None:
        raise InfeasibleScenarioError(
            "every admissible profile has an empty ambiguity set; "
            "the radius is too small for these samples"
        )
    return best, result.value


def simulate_ctm(scenario: HighwayScenario, u,
                 sample: DisturbanceSample | SampleSet,
                 horizon: int | None = None, return_flows: bool = False,
                 out: np.ndarray | None = None):
    """Physical demand/supply simulation over the given horizon.

    u is a SpeedProfile or the string "uncontrolled" (free-flow speeds,
    ignoring incident caps). Flow between neighbours is the minimum of
    upstream demand min(u*rho, f_U) and downstream supply
    min(tau*u_bar*(rho_U - rho), f_U). The boundary inflow is the first
    edge's disturbance saturated at that edge's supply; disturbances on
    the other edges are added directly and the result is clamped to
    [0, rho_U]. States at steps 1..horizon (default: every disturbance
    step) are (n, horizon) for one ``DisturbanceSample`` and (N, n, horizon)
    for a ``SampleSet``, written into ``out`` when it is given; so is the
    flow ``applied_omega``, while ``boundary`` and ``exit`` drop the edge
    axis.
    """
    if horizon is None:
        horizon = sample.omega.shape[-1]
    if sample.omega.shape[-1] < horizon:
        raise ValueError("sample horizon shorter than requested simulation")
    if u == UNCONTROLLED:
        speeds = scenario.uncontrolled_profile()
    else:
        speeds = u.as_array()
    segments = scenario.segments
    h = scenario.h

    # The step runs on states laid out (n, draws), cells first: ``.T``
    # turns the (draws, n) and (draws, n, steps) arrays of a sample set
    # around, and leaves those of one draw cells first already. Every
    # parameter is broadcast once to the state shape, so each ufunc is one
    # or two contiguous inner loops, not one loop per draw, and writes into
    # a buffer allocated here once.
    shape = sample.rho0.T.shape
    params = np.empty((4,) + shape)
    params.T[...] = np.array([
        speeds, [seg.f_U for seg in segments], [seg.rho_U for seg in segments],
        [wave_ratio(seg) * seg.u_bar for seg in segments]]).T
    speeds, f_U, rho_U, wave = params
    omega = sample.omega.T  # (steps, n, draws)
    if out is None:
        out = np.empty(sample.rho0.shape + (horizon,))
    states = out.T  # (horizon, n, draws)
    rho, demand, supply, interim = np.empty((4,) + shape)
    np.clip(sample.rho0.T, 0.0, rho_U, out=rho)
    # The flows keep every step only when returned; otherwise step k = 0
    # is overwritten each step.
    steps = horizon if return_flows else 1
    inflow, outflow = np.empty((2, steps) + shape)
    if return_flows:
        applied = np.empty((steps,) + shape)
    for t in range(horizon):
        k = t % steps
        np.multiply(speeds, rho, out=demand)
        np.minimum(demand, f_U, out=demand)
        np.subtract(rho_U, rho, out=supply)
        np.multiply(wave, supply, out=supply)
        np.minimum(supply, f_U, out=supply)
        np.minimum(omega[t, :1], supply[:1], out=inflow[k, :1])
        np.minimum(demand[:-1], supply[1:], out=inflow[k, 1:])
        outflow[k, :-1] = inflow[k, 1:]
        outflow[k, -1] = demand[-1]
        np.subtract(inflow[k], outflow[k], out=interim)
        np.multiply(h, interim, out=interim)
        np.add(rho, interim, out=interim)
        # rho <- clip(interim + h * omega) on every edge but the first.
        rho[0] = interim[0]
        np.multiply(h, omega[t, 1:], out=rho[1:])
        np.add(interim[1:], rho[1:], out=rho[1:])
        np.clip(rho, 0.0, rho_U, out=rho)
        if return_flows:
            np.subtract(rho, interim, out=applied[k])
            np.divide(applied[k], h, out=applied[k])
        states[t] = rho
    if return_flows:
        # Back to the public layout: draws first, steps last.
        return out, {"boundary": inflow[:, 0].T.copy(),
                     "exit": outflow[:, -1].T.copy(),
                     "applied_omega": applied.T.copy()}
    return out


@dataclass(frozen=True)
class ValidationReport:
    n_val: int
    horizon: int
    seed: int
    j_hat: float
    mean_objective: float
    guarantee: bool
    mean_density: np.ndarray  # (n, horizon), physical simulation
    max_mean_density: np.ndarray  # (n,)
    critical_density: np.ndarray  # (n,)


def validate(scenario: HighwayScenario, generator: GeneratorSpec,
             profile: SpeedProfile, j_hat: float, n_val: int = 1000,
             seed: int = 0) -> ValidationReport:
    """Fresh-sample check that the certified value is conservative.

    Draws n_val new disturbances over 3T steps on an offset seed stream,
    compares their mean objective over the training horizon T against
    j_hat, and runs the physical simulator over all 3T steps for the mean
    density (n, 3T). The draws are taken, propagated and simulated in
    chunks of at most ``VALIDATE_CHUNK_ELEMENTS`` drawn values, into
    buffers reused from chunk to chunk, so memory does not grow with
    n_val. Both means are sums in draw order carried from chunk to chunk,
    so they have the bits of one pass over all draws.
    A non-finite j_hat raises ``ArgumentError``: no run could check it.
    """
    if not math.isfinite(j_hat):
        raise ArgumentError("j_hat", f"j_hat must be finite, got {j_hat!r}")
    if n_val < 1:
        raise ArgumentError("n_val", "n_val must be at least 1")
    horizon, n = 3 * scenario.T, scenario.n
    width = n + n * horizon
    step = min(n_val, max(1, VALIDATE_CHUNK_ELEMENTS // width))
    rng = np.random.default_rng(seed + VALIDATION_SEED_OFFSET)
    draws = allocate((step, width), "horizon")
    # Row 0 carries the density sum of the chunks before; rows 1.. take
    # the states of the current chunk.
    states = allocate((step + 1, n, horizon), "horizon")
    for start in range(0, n_val, step):
        count = min(step, n_val - start)
        fresh = generate_samples(generator, count, horizon, rng,
                                 out=draws[:count])
        flows = average_flow(profile, propagate(scenario, profile, fresh))
        simulate_ctm(scenario, profile, fresh, out=states[1:count + 1])
        # Both sums add one draw at a time in draw order (cumsum, and a
        # reduction over the leading axis of (draws, n, 3T), which numpy
        # runs row by row), as a loop over the draws would; from the
        # second chunk on, each starts from the sum of the chunks before.
        first = 1
        with np.errstate(over="ignore", invalid="ignore"):
            if start:
                flows[0] += objective
                states[0] = density
                first = 0
            objective = np.cumsum(flows)[-1]
        if not math.isfinite(objective):
            raise ValueError("the summed objective of the fresh draws "
                             "overflows the float range; the disturbance is "
                             "too large for this scenario")
        density = states[first:count + 1].sum(axis=0)
    mean_objective = float(objective) / n_val
    density /= n_val
    return ValidationReport(
        n_val=n_val, horizon=horizon, seed=seed, j_hat=j_hat,
        mean_objective=mean_objective,
        guarantee=bool(mean_objective >= j_hat),
        mean_density=density,
        max_mean_density=density.max(axis=1),
        critical_density=scenario.critical_densities(profile),
    )
