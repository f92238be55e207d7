"""Exception hierarchy shared by every module.

Each error carries a module-qualified code such as ``beta_dynamics.domain``
so the command line layer can emit machine readable failures.
``_as_float`` is the library's one scalar conversion: what float()
refuses becomes the calling module's DomainError.
"""
from __future__ import annotations

__all__ = [
    "BetaTargetsError",
    "DomainError",
    "DegenerateInputError",
    "ResourceLimitError",
    "ScaleRangeError",
    "ConsistencyError",
    "ConfigError",
]


class BetaTargetsError(Exception):
    """Base class. Subclasses fix ``kind``; raise sites may set ``module``."""

    kind = "error"

    def __init__(self, message: str, *, module: str = "core"):
        super().__init__(message)
        self.module = module

    @property
    def code(self) -> str:
        return f"{self.module}.{self.kind}"


class DomainError(BetaTargetsError):
    """An argument lies outside the documented domain of an operation."""

    kind = "domain"


class DegenerateInputError(BetaTargetsError):
    """Input is rank deficient or otherwise geometrically degenerate."""

    kind = "degenerate_input"


class ResourceLimitError(BetaTargetsError):
    """A configured node or cell budget would be exceeded."""

    kind = "resource_limit"


class ScaleRangeError(BetaTargetsError):
    """Doubles would under- or overflow; use the log-domain or extended
    precision entry points instead."""

    kind = "scale_range"


class ConsistencyError(BetaTargetsError):
    """An internally asserted, theorem-backed identity failed.

    These indicate a bug (or a numerically hostile input), never a user
    error, and are therefore kept distinct from DomainError.
    """

    kind = "consistency"


class ConfigError(BetaTargetsError):
    """A run configuration failed schema or domain validation."""

    kind = "config"


def _as_float(x, what: str, module: str) -> float:
    """float(x); a value float() refuses (a string, None, an int past
    float range) raises the module's DomainError."""
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} must be a number in float range",
                          module=module) from None


def _as_floats(xs, what: str, module: str) -> tuple:
    """_as_float of each x in xs; an xs that is no sequence is refused."""
    try:
        return tuple(_as_float(x, what, module) for x in xs)
    except TypeError:  # iter(xs): _as_float itself raises none
        raise DomainError(f"{what} must be a number in a sequence",
                          module=module) from None
