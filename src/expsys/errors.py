"""Exception hierarchy shared across the package."""


class ExpSysError(Exception):
    """Base class for all package errors."""


class SchemeMismatchError(ExpSysError, ValueError):
    """Quadrature scheme is not valid for the given measure kind."""


class QuadratureError(ExpSysError, RuntimeError):
    """Quadrature failed: non-finite integrand or error above tolerance."""


class DomainError(ExpSysError, ValueError):
    """Argument outside its domain: a point off a phase map's domain, a bad
    measure bound, or an invalid size, level, mode or parameter at construction."""


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
