"""Exception types shared across the package, and the checks that config
parsers use to reject malformed input with a message."""

import math
import numbers


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


def is_number(v) -> bool:
    """A finite real number and not a bool: what a numeric config value must be."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def config_object(doc, what: str) -> dict:
    """``doc`` itself if it is a JSON object; ``ValueError`` naming ``what`` if not."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be an object, got {doc!r}")
    return doc


def config_number(doc: dict, key: str, default, block: str, error=ValueError):
    """``doc[key]`` (``default`` when absent), unconverted, if it is a number."""
    v = doc.get(key, default)
    if not is_number(v):
        raise error(f"{block} {key} must be a finite number, got {v!r}")
    return v
