"""Exception types shared across the package."""


class NCKeplerError(Exception):
    """Base class for all package errors."""


class InvalidDeformationError(NCKeplerError):
    """Deformation matrices fail antisymmetry or produce a zero theta weight."""


class ChartDomainError(NCKeplerError):
    """A coordinate violates its chart domain (names the offending coordinate)."""


class SingularConfigurationError(NCKeplerError):
    """The deformed radius vanished (collision configuration)."""


class TurningPointError(NCKeplerError):
    """An angle formula was evaluated outside its arcsin domain."""


class NonCompactError(NCKeplerError):
    """Bound-state machinery was invoked at non-negative energy."""


class DegenerateMapError(NCKeplerError):
    """A chart map is not invertible for the given parameters."""


class StepFailureError(NCKeplerError):
    """An implicit integrator stage iteration failed to converge."""


class SamplingError(NCKeplerError):
    """A rejection sampler found no admissible draw for its parameters."""
