"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised when a scenario or sample file violates the documented schema.

    ``path`` identifies the offending key, e.g. ``"segments[2].u_bar"``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class ArgumentError(ValueError):
    """Raised when an argument is out of range or sizes an array that
    cannot be allocated; ``name`` is the argument's, e.g. ``"count"``."""

    def __init__(self, name: str, message: str):
        self.name = name
        super().__init__(message)


class DisturbanceOverflowError(ValueError):
    """Raised when finite disturbances propagate past the float range."""


class InfeasibleScenarioError(RuntimeError):
    """Raised when no admissible speed profile exists for a scenario."""


class NumericalError(RuntimeError):
    """Raised when a solver fails for numerical reasons (not infeasibility)."""
