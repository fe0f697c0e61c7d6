"""Exception hierarchy shared across the package."""


class SliceMeanError(Exception):
    """Base class for all errors raised by slicemean."""


class RankDeficient(SliceMeanError):
    """A matrix that must have full row rank does not, at the working tolerance."""


class ProjectionNotOnto(SliceMeanError):
    """The first-k-coordinates projection restricted to the constraint kernel
    fails to cover all of R^k: at the support width no limiting Gaussian
    exists, at a truncation below it no slice geometry."""


class Infeasible(SliceMeanError):
    """No admissible truncation dimension exists below the configured cap."""


class BelowMinN(SliceMeanError):
    """A per-dimension operation was requested below the minimal valid N."""


class SliceEmpty(SliceMeanError):
    """The sphere does not meet the truncated affine subspace at this N."""


class UnsupportedDimension(SliceMeanError):
    """Deterministic quadrature was requested for a cylinder dimension it
    does not support (k > 3); use Monte Carlo instead."""


class NonFinite(SliceMeanError):
    """An integrand evaluated to NaN or infinity inside the integration domain."""


class InadmissibleFunction(SliceMeanError):
    """The test function's declared integrability class does not satisfy the
    hypothesis needed for the requested computation."""


class ConfigError(SliceMeanError):
    """The JSON configuration is malformed, contains unknown keys, or fails
    validation."""
