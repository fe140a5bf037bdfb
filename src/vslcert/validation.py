"""Verification tools: an exact evaluator, a simulator and a Monte-Carlo check.

The exact evaluator (``brute_force_optimum``: ``brute-force``, up to
``DEFAULT_ENUM_CAP`` profiles) is ``search.run_search`` without its
prune tests, so it is no independent check of the prefix tree: it checks
that ``solve``'s bound and radius prune no optimum, and the tests check
the tree's values against ``certificate``. The others: a physical
demand/supply traffic simulator used for congestion comparisons, which
returns the density summed over the draws (``simulate_ctm``), and a
fresh-sample Monte-Carlo check of the certificate's out-of-sample
guarantee (``validate``), which reports that sum as a mean.

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
    GeneratorSpec,
    SampleSet,
    allocate,
    generate_samples,
    propagate,
    propagate_batch,
)
from .search import DEFAULT_ENUM_CAP, profile_count, run_search

# Values drawn per chunk of validate's fresh draws at most, (cells +
# cells x steps) per draw; the draws are split into equal chunks under it.
# Chosen by timing validate on the corridor (305 values per draw; medians
# of alternating pairs in one process, 2-vCPU Xeon): 2**19 runs 1,000
# draws as one chunk in 12.4 ms, against 14.8 ms for two at 2**18; at
# 5,000 draws 2**18 and 2**19 tie and 2**20 is 11% slower. Equal chunks
# beat full chunks and a short one by 10% at 1,800 draws and 6% at 3,500.
VALIDATE_CHUNK_ELEMENTS = 1 << 19


def brute_force_optimum(scenario: HighwayScenario, samples: SampleSet):
    """Score every admissible profile and return (best, result).

    result is the winner's ``CertificateResult``. Every leaf of the prefix
    tree is scored, by the walk of ``search.run_search`` with no prune
    test, with the value :func:`certificate` gives it. The first best in
    product order wins, so ties go to the lexicographically smallest speed
    vector; its certificate is then evaluated once more, on its own
    trajectories, as the check on the tree's scan table: the two must be
    equal, or ``RuntimeError`` names both. Refuses (``ValueError``),
    before propagating anything, when the profile count exceeds
    ``DEFAULT_ENUM_CAP``; use ``solve`` instead. Raises
    ``InfeasibleScenarioError`` when every profile has an empty ambiguity
    set.
    """
    total = profile_count(scenario)
    if total > DEFAULT_ENUM_CAP:
        raise ValueError(
            f"{total} admissible profiles exceed the enumeration cap "
            f"{DEFAULT_ENUM_CAP}; use `solve` for instances this large"
        )
    report = run_search(scenario, samples, prune=False)
    if report.best_u is None:
        raise InfeasibleScenarioError(
            "every admissible profile has an empty ambiguity set; "
            "the radius is too small for these samples"
        )
    best = scenario.speed_profile(report.best_u)
    result = certificate(scenario, best, propagate_batch(scenario, best, samples))
    if result != report.certificate:
        raise RuntimeError(f"the prefix tree's certificate of {best.u}, "
                           f"{report.certificate}, is not its own, {result}")
    return best, result


def simulate_ctm(scenario: HighwayScenario, speeds, samples: SampleSet,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Physical demand/supply simulation over every step of the samples,
    summed over their draws.

    speeds holds one speed per edge: a profile's ``u``, or
    ``scenario.uncontrolled_profile()`` (free-flow speeds, ignoring
    incident caps). Flow between neighbours is the minimum of upstream
    demand min(u*rho, f_U) and downstream supply
    min(tau*u_bar*(rho_U - rho), f_U). The boundary inflow is the first
    edge's disturbance saturated at that edge's supply; disturbances on
    the other edges are added directly and the result is clamped to
    [0, rho_U]. Returns the (n, steps) sum over the draws, added one draw
    at a time in draw order, of the states at steps 1..steps of
    ``samples.omega``: the states themselves for a set of one draw.
    When ``out`` is given, the sum starts from what it holds (the sum of
    the draws before) and is written into it. No state of a single draw
    is kept past its step.
    """
    segments = scenario.segments
    h = scenario.h

    # The step runs on states laid out (n, draws), cells first: ``.T``
    # turns the (draws, n) and (draws, n, steps) arrays of a sample set
    # around. Every parameter is broadcast once to the state shape, so each
    # ufunc is one or two contiguous inner loops, not one loop per draw, and
    # writes into a buffer allocated here once.
    rho0, omega = samples.rho0.T, samples.omega.T  # (n, draws), (steps, n, draws)
    n, draws = rho0.shape
    params = np.empty((4, n, draws))
    params.T[...] = np.array([
        speeds, [seg.f_U for seg in segments], [seg.rho_U for seg in segments],
        [wave_ratio(seg) * seg.u_bar for seg in segments]]).T
    speeds, f_U, rho_U, wave = params
    if out is None:
        # -0.0 + x is x to the bit, signed zeros included.
        out = np.full((n, len(omega)), -0.0)
    # Each step, column 0 of lane takes the sum at that step so far and the
    # other columns a copy of rho (a copy costs less than running the step
    # on a strided rho); accumulating each row in place adds the draws to
    # the carry in draw order, as a loop over them would.
    lane = np.empty((n, draws + 1))
    rho, demand, supply, inflow, interim = np.empty((5, n, draws))
    np.maximum(rho0, 0.0, out=rho)
    np.minimum(rho, rho_U, out=rho)
    for t, step in enumerate(omega):
        np.multiply(speeds, rho, out=demand)
        np.minimum(demand, f_U, out=demand)
        np.subtract(rho_U, rho, out=supply)
        np.multiply(wave, supply, out=supply)
        np.minimum(supply, f_U, out=supply)
        np.minimum(step[:1], supply[:1], out=inflow[:1])
        np.minimum(demand[:-1], supply[1:], out=inflow[1:])
        # Each edge's outflow is the next edge's inflow; the last edge's is
        # its demand.
        np.subtract(inflow[:-1], inflow[1:], out=interim[:-1])
        np.subtract(inflow[-1:], demand[-1:], out=interim[-1:])
        np.multiply(h, interim, out=interim)
        np.add(rho, interim, out=interim)
        # rho <- clamp(interim + h * omega) on every edge but the first.
        # maximum(x, 0.0) then minimum is np.clip's clamp to the bit: both
        # turn -0.0 into 0.0.
        rho[0] = interim[0]
        np.multiply(h, step[1:], out=rho[1:])
        np.add(interim[1:], rho[1:], out=rho[1:])
        np.maximum(rho, 0.0, out=rho)
        np.minimum(rho, rho_U, out=rho)
        lane[:, 0] = out[:, t]
        lane[:, 1:] = rho
        np.add.accumulate(lane, axis=1, out=lane)
        out[:, t] = lane[:, -1]
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
    j_hat, and runs the physical simulator at the profile's speeds over
    all 3T steps for the mean density (n, 3T). The draws are taken,
    propagated and simulated in the fewest chunks of at most
    ``VALIDATE_CHUNK_ELEMENTS`` drawn values, whose sizes differ by at
    most one draw, into one draw buffer reused from chunk to chunk, so
    memory does not grow with n_val. No draw's CTM states are kept:
    ``simulate_ctm`` adds each step's states to the density sum as it
    goes, so the draws themselves are the only array with both a draw and
    a step axis. Both means are sums in draw order carried from chunk to
    chunk, so they have the bits of one pass over all draws.
    A non-finite j_hat raises ``ArgumentError``: no run could check it.
    """
    if not math.isfinite(j_hat):
        raise ArgumentError("j_hat", f"j_hat must be finite, got {j_hat!r}")
    if n_val < 1:
        raise ArgumentError("n_val", "n_val must be at least 1")
    horizon, n = 3 * scenario.T, scenario.n
    width = n + n * horizon
    chunks = -(-n_val // max(1, VALIDATE_CHUNK_ELEMENTS // width))
    rng = np.random.default_rng(seed + VALIDATION_SEED_OFFSET)
    draws = allocate((-(-n_val // chunks), width), "horizon")
    density = None
    for i in range(chunks):
        start, stop = n_val * i // chunks, n_val * (i + 1) // chunks
        fresh = generate_samples(generator, stop - start, horizon, rng,
                                 out=draws[:stop - start])
        flows = average_flow(profile, propagate(scenario, profile, fresh))
        density = simulate_ctm(scenario, profile.u, fresh, out=density)
        # The objective adds one draw at a time in draw order (cumsum), as
        # a loop over the draws would; from the second chunk on, it starts
        # from the sum of the chunks before.
        with np.errstate(over="ignore", invalid="ignore"):
            if start:
                flows[0] += objective
            objective = np.cumsum(flows)[-1]
        if not math.isfinite(objective):
            raise ValueError("the summed objective of the fresh draws "
                             "overflows the float range; the disturbance is "
                             "too large for this scenario")
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
