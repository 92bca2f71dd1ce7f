"""Exception types shared across the package, and the one bound rule."""

import math

import numpy as np


class QlvError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QlvError, ValueError):
    """An input violates a documented precondition or parameter invariant."""


def check_range(name: str, x, low=None, strict=True, integer=False,
                increasing=False, high=None):
    """``x`` as np.asarray(x, dtype=float), or as given when ``integer``;
    DomainError unless ``x``, a number or an array, is finite, > low (>=
    low when not ``strict``) and <= high where given, with ``integer`` a
    Python or numpy int other than a bool, and with ``increasing`` an array
    that strictly increases (a number does).  An int is compared as an int,
    however many digits it has, and fails as not finite once its bounds
    pass if no float can hold it; a non-number is read as an array, whose
    fault names its first non-finite entry, its minimum or maximum, or
    where it stalls."""
    if array := not isinstance(x, (int, float, np.integer)):
        if not integer:         # else it fails the int check below
            x = np.asarray(x, dtype=float)
            if not (finite := np.isfinite(x)).all():
                raise DomainError(f"{name} must be finite, "
                                  f"got {float(x.flat[finite.argmin()])}")
    elif not (isinstance(x, int) or math.isfinite(x)):
        raise DomainError(f"{name} must be finite, got {float(x)}")
    if integer and (type(x) is bool or not isinstance(x, (int, np.integer))):
        raise DomainError(f"{name} must be an int, got {x!r}")
    if low is not None:
        least = x.min(initial=math.inf) if array else x
        if not (least > low if strict else least >= low):
            raise DomainError(f"{name} must be {'>' if strict else '>='} "
                              f"{low}, got {'min ' * array}{_shown(least)}")
    if high is not None:
        most = x.max(initial=-math.inf) if array else x
        if not most <= high:
            raise DomainError(f"{name} must be <= {high}, "
                              f"got {'max ' * array}{_shown(most)}")
    if increasing and np.ndim(x) and (stalls := np.diff(x) <= 0).any():
        raise DomainError(f"{name} must be strictly increasing "
                          f"(index {int(stalls.argmax()) + 1})")
    try:
        return x if integer else np.asarray(x, dtype=float)
    except OverflowError:       # an int past float's range
        raise DomainError(f"{name} must be finite, got {_shown(x)}") from None


def _shown(x) -> str:
    """str(x), but an int of over 17 digits in e-notation, as no float can."""
    if isinstance(x, (int, np.integer)) and abs(x := int(x)) >= 10 ** 17:
        from decimal import Context, Decimal    # lazy: only such a fault
        return f"{Decimal(x).normalize(Context(prec=17)):e}"
    return str(x)


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
