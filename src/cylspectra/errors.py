"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Inconsistent domain/boundary-condition/experiment configuration."""


class DimensionMismatchError(ValueError):
    """Field and mesh (or two grids) do not share the expected sizes."""


class UnsupportedExponentError(ValueError):
    """Exponent p outside the supported range p >= 2, raised by the one
    check of that floor, `discretization.check_exponent`: every solve and
    the CLI config call it before any solve."""


class AdmissibilityError(ValueError):
    """Requested field violates the essential boundary conditions."""


class QuotientUndefinedError(ZeroDivisionError):
    """Rayleigh quotient of the zero field."""


class SolverError(RuntimeError):
    """Linear or nonlinear solve broke down."""
