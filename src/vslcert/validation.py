"""Independent verification tools.

Three tools live here: the exact evaluator, which scores every
admissible profile stacked, one propagation and one closed-form
certificate evaluation per chunk (``brute-force``'s flat enumeration up
to ``DEFAULT_ENUM_CAP`` profiles, and the ground truth that ``solve``'s
branch-and-bound and the MILP search must match), a physical
demand/supply traffic simulator used for congestion comparisons, and a
fresh-sample Monte-Carlo check of the certificate's out-of-sample
guarantee.

The physical simulator deliberately differs from the linear training
dynamics: flows saturate at capacities and downstream supply, densities
stay inside [0, rho_U]. The two agree exactly in the strictly free-flow
regime, which is tested, not assumed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .certificate import average_flow, certificate, menu_values
from .errors import InfeasibleScenarioError
from .network import HighwayScenario, SpeedProfile, wave_ratio
from .sampling import (
    VALIDATION_SEED_OFFSET,
    DisturbanceSample,
    GeneratorSpec,
    SampleSet,
    generate_samples,
    propagate,
    propagate_batch,
    propagate_speeds,
)

UNCONTROLLED = "uncontrolled"

DEFAULT_ENUM_CAP = 100_000
# Elements of the largest array built per chunk, the stacked trajectories
# (profiles x draws x cells x steps); a chunk of profiles never holds
# more, except that it holds at least one profile.
ENUM_CHUNK_ELEMENTS = 1 << 18


def profile_count(scenario: HighwayScenario) -> int:
    """Number of admissible profiles: the product of the band sizes."""
    return math.prod(len(b) for b in scenario.bands)


def exact_optimum(scenario: HighwayScenario, samples: SampleSet):
    """Evaluate every admissible profile and return (best, result).

    result is the winner's ``CertificateResult``; both are None when every
    profile has an empty ambiguity set. All profiles are propagated and
    evaluated stacked, in chunks of at most ``ENUM_CHUNK_ELEMENTS``, with
    the values :func:`certificate` gives them one by one. The first best
    in product order wins, so ties go to the lexicographically smallest
    speed vector; its certificate is then evaluated once for
    ``lambda_star`` and the scan table. Refuses, before enumerating, when
    the profile count exceeds ``DEFAULT_ENUM_CAP``.
    """
    total = profile_count(scenario)
    if total > DEFAULT_ENUM_CAP:
        raise ValueError(
            f"{total} admissible profiles exceed the enumeration cap "
            f"{DEFAULT_ENUM_CAP}; use the iterative search for instances this large"
        )
    speeds = np.array(list(itertools.product(*scenario.bands)), dtype=float)
    step = max(1, ENUM_CHUNK_ELEMENTS // (samples.rho0.size * scenario.T))
    values = np.concatenate([
        menu_values(scenario, chunk,
                    propagate_speeds(scenario, chunk[:, None, :], samples))
        for chunk in (speeds[i:i + step] for i in range(0, total, step))
    ])
    i = int(np.argmax(values))
    if values[i] == -math.inf:
        return None, None
    best = scenario.speed_profile(speeds[i])
    return best, certificate(scenario, best, propagate_batch(scenario, best, samples))


def brute_force_optimum(scenario: HighwayScenario, samples: SampleSet):
    """Enumerate every admissible profile and return (best, value).

    Profiles whose ambiguity set is empty are skipped. Ties go to the
    lexicographically smallest speed vector. Refuses when the product of
    per-edge menu sizes exceeds ``DEFAULT_ENUM_CAP``; use the iterative
    search instead.
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
                 horizon: int | None = None, return_flows: bool = False):
    """Physical demand/supply simulation over the given horizon.

    u is a SpeedProfile or the string "uncontrolled" (free-flow speeds,
    ignoring incident caps). Flow between neighbours is the minimum of
    upstream demand min(u*rho, f_U) and downstream supply
    min(tau*u_bar*(rho_U - rho), f_U). The boundary inflow is the first
    edge's disturbance saturated at that edge's supply; disturbances on
    the other edges are added directly and the result is clamped to
    [0, rho_U]. States at steps 1..horizon (default: every disturbance
    step) are (n, horizon) for one ``DisturbanceSample`` and (N, n, horizon)
    for a ``SampleSet``; so is the flow ``applied_omega``, while
    ``boundary`` and ``exit`` drop the edge axis.
    """
    if horizon is None:
        horizon = sample.omega.shape[-1]
    if sample.omega.shape[-1] < horizon:
        raise ValueError("sample horizon shorter than requested simulation")
    if u == UNCONTROLLED:
        speeds = np.array(scenario.uncontrolled_profile())
    else:
        speeds = np.asarray(u.as_array())
    f_U = np.array([seg.f_U for seg in scenario.segments])
    rho_U = np.array([seg.rho_U for seg in scenario.segments])
    wave = np.array([wave_ratio(seg) * seg.u_bar for seg in scenario.segments])
    h = scenario.h

    rho = np.clip(sample.rho0, 0.0, rho_U)
    out = np.empty(rho.shape + (horizon,))
    # The flows keep every step only when returned; otherwise step k = 0
    # is overwritten each step.
    steps = horizon if return_flows else 1
    applied, inflow, outflow = (np.empty(rho.shape + (steps,)) for _ in range(3))
    for t in range(horizon):
        k = t % steps
        demand = np.minimum(speeds * rho, f_U)
        supply = np.minimum(wave * (rho_U - rho), f_U)
        inflow[..., 0, k] = np.minimum(sample.omega[..., 0, t], supply[..., 0])
        inflow[..., 1:, k] = outflow[..., :-1, k] = np.minimum(
            demand[..., :-1], supply[..., 1:])
        outflow[..., -1, k] = demand[..., -1]
        interim = rho + h * (inflow[..., k] - outflow[..., k])
        bumped = interim.copy()
        bumped[..., 1:] += h * sample.omega[..., 1:, t]
        rho = np.clip(bumped, 0.0, rho_U)
        applied[..., k] = (rho - interim) / h
        out[..., t] = rho
    if return_flows:
        return out, {"boundary": inflow[..., 0, :], "exit": outflow[..., -1, :],
                     "applied_omega": applied}
    return out


@dataclass(frozen=True)
class ValidationConfig:
    n_val: int = 1000
    seed: int = 0


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
             profile: SpeedProfile, j_hat: float,
             cfg: ValidationConfig) -> ValidationReport:
    """Fresh-sample check that the certified value is conservative.

    Draws n_val new disturbances over 3T steps on an offset seed stream,
    compares their mean objective over the training horizon T against
    j_hat, and runs the physical simulator over all 3T steps for the mean
    density (n, 3T). Every draw is propagated and simulated in one pass.
    A non-finite j_hat raises ValueError: no run could check it.
    """
    if not math.isfinite(j_hat):
        raise ValueError(f"j_hat must be finite, got {j_hat!r}")
    horizon = 3 * scenario.T
    fresh = generate_samples(generator, cfg.n_val, horizon,
                             cfg.seed + VALIDATION_SEED_OFFSET)
    flows = average_flow(profile, propagate(scenario, profile, fresh))
    # Both sums add one draw at a time in draw order (cumsum, and a
    # reduction over the leading axis), as a loop over the draws would.
    mean_objective = float(np.cumsum(flows)[-1]) / cfg.n_val
    density = simulate_ctm(scenario, profile, fresh).sum(axis=0) / cfg.n_val
    return ValidationReport(
        n_val=cfg.n_val, horizon=horizon, seed=cfg.seed, j_hat=j_hat,
        mean_objective=mean_objective,
        guarantee=bool(mean_objective >= j_hat),
        mean_density=density,
        max_mean_density=density.max(axis=1),
        critical_density=scenario.critical_densities(profile),
    )
