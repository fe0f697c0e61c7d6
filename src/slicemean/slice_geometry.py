"""Per-N geometry of the sphere slice.

The sphere of radius sqrt(N) in R^N meets the truncated constraint set in a
sphere of dimension N - 1 - m centered at the truncated closest point, with
radius a = sqrt(N - |center|^2). Averaging a cylinder function over that
slice reduces to a k-dimensional integral of the function against the weight

    (1 - r^2 / a^2) ** exponent,   exponent = (N - k - m - 2) / 2,

over the ball of radius a in whitened coordinates, times a normalization
constant kept in log domain (the linear-domain sphere-surface constants
overflow float64 near N ~ 350).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .affine_model import ValidatedProblem, least_norm_center
from .errors import BelowMinN, RankDeficient, SliceEmpty
from .numlin import log_surface_constant
from .projections import ProjectionData, build_projection


@dataclass(frozen=True)
class SliceGeometry:
    """Geometry of one slice: center, radius, weight exponent, normalization.

    ``log_prefactor`` is the log of the constant multiplying the whitened
    k-dimensional integral; it tends to -(k/2) ln(2 pi) as N grows. ``pd``
    is the projection data at this N.
    """

    n: int
    d: int
    m: int
    k: int
    z0n: np.ndarray
    x0: np.ndarray
    a_z: float
    exponent: float
    log_prefactor: float
    pd: ProjectionData


def _log_prefactor(d: int, k: int, m: int, a_z: float) -> float:
    return (
        log_surface_constant(d - k - m)
        - log_surface_constant(d - m)
        - k * math.log(a_z)
    )


def build_slice(validated: ValidatedProblem, n: int) -> SliceGeometry:
    """Slice geometry at truncation dimension n.

    Raises BelowMinN for n < n_min, SliceEmpty when the sphere does not
    reach the constraint set (n <= |center|^2), and RankDeficient when the
    truncated constraints lose numerical rank at an n >= n_min (see
    ``validate``).
    """
    n = int(n)
    problem = validated.problem
    # Emptiness is diagnosed before the min-N gate so that a skipped sweep
    # row names the geometric obstruction when both conditions fail.
    z0n = None
    if n >= problem.width:
        z0n = validated.z0
    else:
        try:
            z0n = least_norm_center(problem, n)
        except RankDeficient:
            if n >= validated.n_min:
                raise
    if z0n is not None:
        center_sq = float(z0n @ z0n)
        if n <= center_sq:
            raise SliceEmpty(f"N = {n} <= |z0_N|^2 = {center_sq:g}: empty slice")
    if n < validated.n_min:
        raise BelowMinN(f"N = {n} < n_min = {validated.n_min}")
    z0n = z0n.copy()
    k, m = validated.k, validated.m
    d = n - 1
    a_z = math.sqrt(n - center_sq)
    exponent = 0.5 * (d - k - m - 1)
    return SliceGeometry(
        n=n,
        d=d,
        m=m,
        k=k,
        z0n=z0n,
        x0=z0n[:k].copy(),
        a_z=a_z,
        exponent=exponent,
        log_prefactor=_log_prefactor(d, k, m, a_z),
        pd=build_projection(validated, n),
    )


def weight(geom: SliceGeometry, r) -> float | np.ndarray:
    """Disintegration weight (1 - r^2/a^2)^exponent at radius r, 0 beyond a.

    Evaluated as exp(exponent * log1p(-r^2/a^2)): near the boundary the
    bracket is at round-off scale and the direct power would cancel
    catastrophically.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    ratio = np.square(r / geom.a_z)
    # both where-branches are evaluated: silence the log1p(-1) = -inf of the
    # discarded one (and 0 * -inf when the exponent is 0 at N = n_min)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            ratio < 1.0,
            np.exp(geom.exponent * np.log1p(-np.minimum(ratio, 1.0))),
            0.0,
        )
    return float(out) if out.ndim == 0 else out
