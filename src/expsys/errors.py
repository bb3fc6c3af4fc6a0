"""Exception hierarchy shared across the package, and the readers of every
value argument: `_integer` for counts, sizes, levels, seeds and thread
counts, `_real` for scalar numbers, `_finite` for arrays.  Each refuses a
value outside its type or range with DomainError, so a library caller and
the CLI see the same refusal."""

import numpy as np


class ExpSysError(Exception):
    """Base class for all package errors."""


class SchemeMismatchError(ExpSysError, ValueError):
    """Quadrature scheme is not valid for the given measure kind."""


class QuadratureError(ExpSysError, RuntimeError):
    """Quadrature failed: non-finite integrand or error above tolerance."""


class DomainError(ExpSysError, ValueError):
    """Argument outside its domain: a point off a phase map's domain, a bad
    measure bound, or an invalid size, level, mode or parameter at construction."""


def _integer(value, what, lo=None, hi=None):
    """int(value) for an integral number in [lo, hi] (a None bound is open);
    DomainError for 2.5, inf, nan, "3", None or True, and outside the bounds."""
    try:
        v = int(value)
    except (TypeError, ValueError, OverflowError):
        v = None
    if v is None or v != value or isinstance(value, (bool, np.bool_)):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if lo is not None and v < lo or hi is not None and v > hi:
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise DomainError(f"{what} must be {bound}, got {v!r}")
    return v


def _finite(values, what):
    """A float array of finite numbers; numeric strings are read, booleans refused."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be numeric") from None
    except OverflowError:  # a Python integer past the double range
        raise DomainError(f"{what} must be finite") from None
    raw = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if raw.dtype == bool or raw.dtype == object and any(
        isinstance(v, (bool, np.bool_)) for v in raw.flat
    ):
        raise DomainError(f"{what} must be numbers, not booleans")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} must be finite")
    return arr


def _real(value, what, lo=None):
    """float(value) for one finite number >= lo (a None bound is open), read
    as `_finite` reads it: "2.5" is 2.5; None, True, [1.0] and nan are refused."""
    try:
        v = _finite(value, what)
    except DomainError:
        v = None
    if v is None or v.shape != ():
        raise DomainError(f"{what} must be a finite number, got {value!r}")
    if lo is not None and not v >= lo:
        raise DomainError(f"{what} must be >= {lo}, got {value!r}")
    return float(v)


class ProductFormulaError(ExpSysError, RuntimeError):
    """Self-similar Fourier product formula failed its cross-validation gate."""


class InversionError(ExpSysError, RuntimeError):
    """Numerical inversion of a phase map failed."""


class ConfigError(ExpSysError, ValueError):
    """Invalid experiment configuration (strict schema)."""


class ExprError(ConfigError):
    """Expression grammar error; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
