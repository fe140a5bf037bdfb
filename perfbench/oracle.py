"""Exact answers for a benchmark instance, computed apart from the code under test.

The oracle enumerates every admissible profile with the single-sample
recursion ``sampling.propagate`` and the closed-form ``certificate``, the
way ``brute_force_optimum`` does at the time this benchmark was written,
but in the benchmark's own loop. A later change to ``brute_force_optimum``,
``propagate_batch`` or ``run_search`` therefore cannot make its own check
pass. It runs before any timing starts and before tracing is installed.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from vslcert.certificate import average_flow, certificate
from vslcert.network import load_scenario
from vslcert.sampling import (
    VALIDATION_SEED_OFFSET,
    DisturbanceSample,
    TrajectoryBatch,
    generate_samples,
    load_generator,
    propagate,
)


@dataclass(frozen=True)
class Oracle:
    """Certificate of every admissible profile for one instance and seed."""

    values: dict  # speed tuple -> certificate value, -inf for the sentinel
    optimum: float
    best_u: tuple | None  # lexicographically smallest optimal profile

    @property
    def feasible(self) -> bool:
        return self.best_u is not None

    @property
    def profiles(self) -> int:
        return len(self.values)


def enumerate_instance(path: Path, count: int, seed: int) -> Oracle:
    cfg = json.loads(Path(path).read_text())
    scenario = load_scenario(cfg)
    samples = generate_samples(load_generator(cfg, scenario.n), count,
                               scenario.T, seed)
    values = {}
    best_u, best = None, -math.inf
    for combo in itertools.product(*scenario.bands):
        profile = scenario.speed_profile(combo)
        rho = np.stack([propagate(scenario, profile, s) for s in samples.samples])
        result = certificate(scenario, profile, TrajectoryBatch(rho=rho, u=profile.u))
        values[profile.u] = result.value if result.finite else -math.inf
        if result.finite and result.value > best:
            best_u, best = profile.u, result.value
    return Oracle(values=values, optimum=best, best_u=best_u)


def fresh_mean(path: Path, u: tuple, nval: int, seed: int) -> float:
    """Mean training-horizon objective of ``u`` over the fresh draws that
    ``validate --seed seed --nval nval`` compares with its certified value."""
    cfg = json.loads(Path(path).read_text())
    scenario = load_scenario(cfg)
    profile = scenario.speed_profile(u)
    fresh = generate_samples(load_generator(cfg, scenario.n), nval,
                             3 * scenario.T, seed + VALIDATION_SEED_OFFSET)
    total = 0.0
    for sample in fresh.samples:
        short = DisturbanceSample(sample.rho0, sample.omega[:, :scenario.T])
        total += average_flow(profile, propagate(scenario, profile, short))
    return total / nval

