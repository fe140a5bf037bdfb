"""Speed-limit certification toolkit for freeway cell-transmission models."""

from .certificate import CertificateResult, certificate
from .errors import ConfigError, InfeasibleScenarioError, NumericalError
from .network import (
    HighwayScenario,
    SegmentParams,
    SpeedProfile,
    admissible_speeds,
    critical_density,
    load_scenario,
)
from .sampling import (
    DisturbanceSample,
    SampleSet,
    generate_samples,
    load_generator,
    propagate,
    propagate_batch,
    read_samples,
    write_samples,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateResult",
    "ConfigError",
    "DisturbanceSample",
    "HighwayScenario",
    "InfeasibleScenarioError",
    "NumericalError",
    "SampleSet",
    "SegmentParams",
    "SpeedProfile",
    "admissible_speeds",
    "certificate",
    "critical_density",
    "generate_samples",
    "load_generator",
    "load_scenario",
    "propagate",
    "propagate_batch",
    "read_samples",
    "write_samples",
    "__version__",
]
