"""Exception types shared across the package, and the one bound rule."""

import math


class QlvError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QlvError, ValueError):
    """An input violates a documented precondition or parameter invariant."""


def check_bounds(owner, *names, low=None, strict=True) -> None:
    """DomainError unless each named field of ``owner`` is finite and, when
    ``low`` is given, > low (>= low when not ``strict``).  An int is finite
    and is compared as an int, however many digits it has."""
    for name in names:
        x = getattr(owner, name)
        if not (isinstance(x, int) or math.isfinite(x)):
            raise DomainError(f"{name} must be finite, got {x!r}")
        if low is not None and not (x > low if strict else x >= low):
            raise DomainError(f"{name} must be {'>' if strict else '>='} "
                              f"{low}, got {x}")


class StabilityError(QlvError, ValueError):
    """A stiffness/flexibility matrix failed the principal-minor screening.

    ``minor_index`` is the 1-based order of the first non-positive leading
    principal minor.
    """

    def __init__(self, message: str, minor_index: int | None = None):
        super().__init__(message)
        self.minor_index = minor_index


class NumericalError(QlvError, RuntimeError):
    """An iterative numerical procedure failed to converge."""


class FitError(QlvError, ValueError):
    """A parameter-identification problem is degenerate or under-determined."""


class ConfigError(QlvError, ValueError):
    """Configuration validation failed; ``errors`` lists every violation."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)
