"""Exception types shared across the package."""


class NllcError(Exception):
    """Base class for all package errors."""

    tag = "error"


class ConfigError(NllcError):
    """Bad experiment configuration; carries the offending field name."""

    tag = "config_error"

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class QuadratureUnderresolved(NllcError):
    """Successive quadrature refinements disagree beyond tolerance."""

    tag = "quadrature_underresolved"


class ResolutionMismatch(NllcError):
    """Lattice spacing too coarse for the requested kernel scale or region."""

    tag = "resolution_mismatch"


class DumpFormatError(NllcError, ValueError):
    """A field dump has the wrong magic or a size its header does not declare."""

    tag = "dump_format_error"


class OutsideMomentDomain(NllcError):
    """An order-parameter value is at or outside the boundary of the moment set."""

    tag = "outside_moment_domain"


class MaxIterations(NllcError):
    """An iterative solve stopped short of tolerance; carries its partial result."""

    tag = "max_iterations"

    def __init__(self, message: str, result):
        self.result = result
        super().__init__(message)


class PreconditionNotMet(NllcError):
    """A diagnostic's small-energy (or similar) hypothesis fails; reported, not fatal."""

    tag = "precondition_not_met"
