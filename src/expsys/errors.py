"""Exception hierarchy shared across the package, and the one reader of
integer arguments."""

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
