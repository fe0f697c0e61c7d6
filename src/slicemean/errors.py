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
    """No admissible truncation dimension exists up to 2**53, or the one
    requested exceeds 2**53: beyond it N is not exact as a float."""


class BelowMinN(SliceMeanError):
    """A slice was requested at N < k + m + 2, where the disintegration
    weight exponent would be negative."""


class SliceEmpty(SliceMeanError):
    """The sphere does not meet the truncated affine subspace at this N."""


class UnsupportedDimension(SliceMeanError):
    """A deterministic rule was requested for a cylinder dimension it does
    not support (k > 3). For the slice mean the library's ``slice_mean_mc``
    has no k limit; for the limit, ``gaussian_limit`` takes an ``McConfig``
    and ``slicemean limit`` falls back to Monte Carlo."""


class NonFinite(SliceMeanError):
    """An integrand evaluated to NaN or infinity inside the integration domain."""


class InadmissibleFunction(SliceMeanError):
    """The test function does not suit the requested computation: its
    declared integrability class does not satisfy the hypothesis needed, or
    its parameters (a direction, a center, monomial exponents) do not fit
    the problem's k (see ``TestFunction.fits``)."""


class ConfigError(SliceMeanError):
    """The JSON configuration is malformed, contains unknown keys, or fails
    validation."""
