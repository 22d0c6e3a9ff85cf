"""Exception hierarchy shared across the package."""


class DDQuadError(Exception):
    """Base class for all package errors."""


class ConfigError(DDQuadError):
    """Invalid or unknown configuration content."""


class SimulationError(DDQuadError):
    """A sequence or campaign could not be executed."""


class FitError(DDQuadError):
    """Base class for estimation failures."""


class DegenerateDataError(FitError):
    """Data carry no information about the parameter of interest."""


class FitConvergenceError(FitError):
    """Optimizer failed to converge; diagnostics attached."""

    def __init__(self, message, diagnostics=None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)


class NonIdentifiableError(FitError):
    """The likelihood is flat in the parameter of interest."""
