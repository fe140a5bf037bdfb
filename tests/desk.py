"""Shared builders for the small random instances used across the suite.

The random scenarios are sized so exhaustive enumeration stays cheap
(menu**n <= 64) and the disturbance bounds are shrunk until every
admissible profile keeps the extreme trajectories inside [0, rho_bar].
The propagation matrix has nonnegative entries, so the componentwise
extremes of rho0 and omega bound every possible draw.
"""

import itertools
import math

import numpy as np

from vslcert.certificate import certificate
from vslcert.errors import InfeasibleScenarioError
from vslcert.network import HighwayScenario, SegmentParams, wave_ratio
from vslcert.sampling import (
    DisturbanceSample,
    GeneratorSpec,
    SampleSet,
    generate_samples,
    propagate,
    propagate_batch,
)


def _random_segment(rng) -> SegmentParams:
    rho_bar = float(rng.uniform(20.0, 80.0))
    u_bar = float(rng.uniform(0.5, 2.0))
    f_bar = float(rng.uniform(0.3, 0.7)) * u_bar * rho_bar
    return SegmentParams(
        f_bar=f_bar,
        rho_bar=rho_bar,
        u_bar=u_bar,
        f_U=float(rng.uniform(0.7, 1.0)) * f_bar,
        rho_U=float(rng.uniform(0.8, 1.0)) * rho_bar,
    )


def _admissible_window(seg, margin):
    """Closed interval of speeds passing both incident caps.

    The critical density falls with the limit while the peak flow rises,
    so the jam cap gives the lower end and the flow cap the upper end.
    """
    tau = wave_ratio(seg)
    lo = tau * seg.u_bar * (seg.rho_bar - seg.rho_U + margin) / (seg.rho_U - margin)
    hi = min(seg.u_bar,
             seg.f_U * tau * seg.u_bar / (tau * seg.rho_bar * seg.u_bar - seg.f_U))
    return max(lo, 1e-6), hi


def _extremes_fit(scenario, gen) -> bool:
    lo = DisturbanceSample(
        np.array(gen.rho0_lo),
        np.tile(np.array(gen.omega_lo)[:, None], (1, scenario.T)),
    )
    hi = DisturbanceSample(
        np.array(gen.rho0_hi),
        np.tile(np.array(gen.omega_hi)[:, None], (1, scenario.T)),
    )
    caps = np.array([s.rho_bar for s in scenario.segments])[:, None]
    for combo in itertools.product(*scenario.bands):
        profile = scenario.speed_profile(combo)
        if propagate(scenario, profile, lo).min() < 0.0:
            return False
        if (propagate(scenario, profile, hi) > caps).any():
            return False
    return True


def random_scenario(rng, n=None, T=None, menu_size=None, epsilon=None,
                    gamma_step=None):
    """Draw a scenario plus a generator whose draws stay inside the box.

    gamma_step snaps every grid speed to a multiple of that step, which
    pins the certificate's dual breakpoints onto a uniform lattice.
    """
    n = int(rng.integers(1, 4)) if n is None else n
    T = int(rng.integers(1, 5)) if T is None else T
    m = int(rng.integers(1, 5)) if menu_size is None else menu_size
    for _ in range(500):
        segs = tuple(_random_segment(rng) for _ in range(n))
        u_min = min(s.u_bar for s in segs)
        u_max = max(s.u_bar for s in segs)
        margin = float(rng.uniform(0.1, 1.0)) * min(s.rho_U for s in segs) * 0.05
        windows = [_admissible_window(s, margin) for s in segs]
        glo = max(w[0] for w in windows) * 1.001
        ghi = min(w[1] for w in windows) * 0.999
        if not glo < ghi:
            continue
        anchor = rng.uniform(glo, ghi)
        extra = rng.uniform(glo, min(u_min, ghi * 1.4), size=m - 1)
        gamma = np.unique(np.append(extra, anchor).round(4))
        if gamma_step is not None:
            gamma = np.unique(np.round(gamma / gamma_step) * gamma_step)
            if (gamma <= 0).any():
                continue
        if len(gamma) != m or gamma[0] <= 0:
            continue
        h_frac = float(rng.uniform(0.5, 1.0))
        try:
            scenario = HighwayScenario(
                n=n,
                L=n * u_max / h_frac,
                delta=1.0,
                T=T,
                segments=segs,
                gamma=tuple(float(g) for g in gamma),
                jam_margin=margin,
                epsilon=1.0 if epsilon is None else epsilon,
            )
        except (ValueError, InfeasibleScenarioError):
            continue
        rho_bars = np.array([s.rho_bar for s in segs])
        rho0_lo = rng.uniform(0.0, 0.2 * rho_bars)
        rho0_hi = rho0_lo + rng.uniform(0.0, 0.3 * rho_bars)
        om_hi = rng.uniform(0.0, 0.4 * rho_bars)
        om_lo = -rng.uniform(0.0, 0.2 * rho_bars)
        for _shrink in range(60):
            gen = GeneratorSpec(
                rho0_lo=tuple(rho0_lo),
                rho0_hi=tuple(rho0_hi),
                omega_lo=tuple(om_lo),
                omega_hi=tuple(om_hi),
            )
            if _extremes_fit(scenario, gen):
                if epsilon is None:
                    mean_rho = float(rho_bars.mean())
                    eps = mean_rho * n * T * 10.0 ** rng.uniform(-3.0, -0.5)
                    scenario = HighwayScenario(
                        n=n, L=scenario.L, delta=scenario.delta, T=T,
                        segments=segs, gamma=scenario.gamma,
                        jam_margin=margin, epsilon=eps,
                    )
                return scenario, gen
            om_lo = om_lo * 0.6
            om_hi = om_hi * 0.6
            rho0_hi = rho0_lo + (rho0_hi - rho0_lo) * 0.6
    raise AssertionError("no valid desk instance after 500 draws")


def sentinel_scenario(rng, n=None, T=None):
    """A scenario whose ambiguity set is empty for every profile.

    Disturbances push the trajectory far past every critical density on
    the first step while the radius is nearly zero, so the certificate
    is the sentinel regardless of the chosen speeds.
    """
    scenario, gen = random_scenario(rng, n=n, T=T, epsilon=1e-9)
    rho_bars = tuple(s.rho_bar for s in scenario.segments)
    blast = GeneratorSpec(
        rho0_lo=gen.rho0_lo,
        rho0_hi=gen.rho0_hi,
        omega_lo=tuple(20.0 * r for r in rho_bars),
        omega_hi=tuple(25.0 * r for r in rho_bars),
    )
    return scenario, blast


def desk_samples(scenario, gen, count, seed) -> SampleSet:
    return generate_samples(gen, count, scenario.T, seed)


def vi_scenario(omega1=(2.0e4, 2.4e4), epsilon=None):
    """The five-segment highway with an incident cap on segment four."""
    plain = SegmentParams(f_bar=3.1e4, rho_bar=1050.0, u_bar=140.0,
                          f_U=3.1e4, rho_U=1050.0)
    capped = SegmentParams(f_bar=3.1e4, rho_bar=1050.0, u_bar=140.0,
                           f_U=2.7e4, rho_U=1050.0)
    kwargs = {} if epsilon is None else {"epsilon": epsilon}
    scenario = HighwayScenario(
        n=5, L=10.0, delta=30.0 / 3600.0, T=20,
        segments=(plain, plain, plain, capped, plain),
        gamma=(40.0, 60.0, 80.0, 100.0, 120.0),
        **kwargs,
    )
    gen = GeneratorSpec(
        rho0_lo=(260.0,) * 5,
        rho0_hi=(260.0,) * 5,
        omega_lo=(omega1[0], -1500.0, -1500.0, -1500.0, -1500.0),
        omega_hi=(omega1[1], 2500.0, 2500.0, 2500.0, 2500.0),
    )
    return scenario, gen


def reference_optimum(scenario, samples):
    """Per-profile enumeration loop: the oracle for the stacked evaluator
    and the MILP search. Returns (best, value); raises when every profile
    has an empty ambiguity set. Ties go to the first profile in product
    order, the lexicographically smallest speed vector."""
    best_u = None
    best_value = -math.inf
    for combo in itertools.product(*scenario.bands):
        profile = scenario.speed_profile(combo)
        batch = propagate_batch(scenario, profile, samples)
        result = certificate(scenario, profile, batch)
        if result.finite and result.value > best_value:
            best_value = result.value
            best_u = profile
    if best_u is None:
        raise InfeasibleScenarioError(
            "every admissible profile has an empty ambiguity set; "
            "the radius is too small for these samples"
        )
    return best_u, best_value
