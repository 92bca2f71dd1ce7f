"""Exception types shared across the package, and the one bound rule."""

import math

import numpy as np


class QlvError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QlvError, ValueError):
    """An input violates a documented precondition or parameter invariant."""


def check_range(name: str, x, low=None, strict=True, integer=False) -> None:
    """DomainError unless ``x``, a number or an array, is finite and, when
    ``low`` is given, > low (>= low when not ``strict``), and with
    ``integer`` a Python or numpy int other than a bool.  An int is compared
    as an int, however many digits it has; a non-number is read as an array,
    whose fault names its first non-finite entry or its minimum."""
    if isinstance(x, (int, float, np.integer)):
        if not (isinstance(x, int) or math.isfinite(x)):
            raise DomainError(f"{name} must be finite, got {float(x)}")
        least, got = x, ""
    elif not integer:           # which a non-number fails below
        x = np.asarray(x, dtype=float)
        if not (finite := np.isfinite(x)).all():
            raise DomainError(f"{name} must be finite, "
                              f"got {float(x.flat[finite.argmin()])}")
        least, got = x.min(initial=math.inf), "min "
    if integer and (type(x) is bool or not isinstance(x, (int, np.integer))):
        raise DomainError(f"{name} must be an int, got {x!r}")
    if low is not None and not (least > low if strict else least >= low):
        raise DomainError(f"{name} must be {'>' if strict else '>='} {low}, "
                          f"got {got}{least}")


def check_bounds(owner, *names, low=None, strict=True, integer=False) -> None:
    """check_range of each named field of ``owner``."""
    for name in names:
        check_range(name, getattr(owner, name), low, strict, integer)


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
