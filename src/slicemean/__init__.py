"""Means of cylinder functions over affine slices of high-dimensional
spheres, computed three independent ways: a deterministic disintegration
quadrature, Monte Carlo on the slice sphere, and the limiting Gaussian
integral the slice means converge to."""

from .affine_model import (
    INF,
    AffineProblem,
    ValidatedProblem,
    validate,
)
from .errors import (
    BelowMinN,
    ConfigError,
    InadmissibleFunction,
    Infeasible,
    NonFinite,
    NotSPD,
    ProjectionNotOnto,
    RankDeficient,
    SliceEmpty,
    SliceMeanError,
    UnsupportedDimension,
)
from .integrators import (
    IntegralResult,
    McConfig,
    QuadConfig,
    counterexample_probe,
    gaussian_limit,
    slice_mean_mc,
    slice_mean_quadrature,
)
from .numlin import (
    kernel_onb,
    log_surface_constant,
)
from .projections import (
    ProjectionData,
    build_projection,
    kernel_projection_norm_sq,
    preimage_norm_sq,
)
from .slice_geometry import SliceGeometry, build_slice, weight
from .testfns import (
    BoundedCutoff,
    CosLinear,
    CounterexampleG,
    IndicatorBall,
    Monomial,
    SinLinear,
    TestFunction,
    known_limit,
)

__version__ = "0.1.0"

__all__ = [
    "AffineProblem",
    "BelowMinN",
    "BoundedCutoff",
    "ConfigError",
    "CosLinear",
    "CounterexampleG",
    "INF",
    "InadmissibleFunction",
    "Infeasible",
    "IndicatorBall",
    "IntegralResult",
    "McConfig",
    "Monomial",
    "NonFinite",
    "NotSPD",
    "ProjectionData",
    "ProjectionNotOnto",
    "QuadConfig",
    "RankDeficient",
    "SinLinear",
    "SliceEmpty",
    "SliceGeometry",
    "SliceMeanError",
    "TestFunction",
    "UnsupportedDimension",
    "ValidatedProblem",
    "build_projection",
    "build_slice",
    "counterexample_probe",
    "gaussian_limit",
    "kernel_onb",
    "kernel_projection_norm_sq",
    "known_limit",
    "log_surface_constant",
    "preimage_norm_sq",
    "slice_mean_mc",
    "slice_mean_quadrature",
    "validate",
    "weight",
]
