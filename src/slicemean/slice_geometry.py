"""Per-N geometry of the sphere slice.

The sphere of radius sqrt(N) in R^N meets the truncated constraint set in a
sphere of dimension N - 1 - m centered at the truncated closest point, with
radius a = sqrt(N - |center|^2). Averaging a cylinder function over that
slice reduces to a k-dimensional integral of the function against the weight

    (1 - r^2 / a^2) ** exponent,   exponent = (N - k - m - 2) / 2,

over the ball of radius a in whitened coordinates, times a normalization
constant kept in log domain (the linear-domain sphere-surface constants
overflow float64 near N ~ 350).

Whitening uses the Cholesky factor C of G, the leading k x k block of the
projector onto ker Q_N. For N >= width that projector is diag(P_w, I), so
C is the one ``validate`` took at the width; below it, one thin QR of Q_N
(``numlin.StackedQR``) gives C and the center.

The slice at N depends on the validated problem and N alone, so
``build_slice`` builds it once: each ``ValidatedProblem`` keeps its last
_SLICES geometries, keyed by N, and a repeated N returns the same object.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import numlin
from .affine_model import _MAX_COUNT, ValidatedProblem, truncated_matrix
from .errors import BelowMinN, Infeasible, SliceEmpty
from .numlin import log_surface_constant


@dataclass(frozen=True)
class SliceGeometry:
    """Geometry of one slice in the whitened picture x = x0 + C y.

    ``x0`` is the first k coordinates of the slice center, the closest
    point of the width-N truncation (``affine_model.least_norm_center``);
    at N >= width it is the validated problem's read-only ``z0_cyl``;
    ``a_z`` is the slice radius. ``log_prefactor`` is the log of the
    constant multiplying the whitened k-dimensional integral; it tends to
    -(k/2) ln(2 pi) as N grows. ``chol`` is C, the lower-triangular Cholesky
    factor, with positive diagonal, of the Gram matrix G at this N. Both
    arrays are read-only.

    A geometry is shared: ``build_slice`` returns the same object for a
    repeated (problem, N). Quadrature keeps the placed nodes of its steps in
    the private ``_steps`` (see ``integrators._quad_step``), so a geometry
    made by ``dataclasses.replace`` starts with none of its source's nodes.
    """

    n: int
    m: int
    k: int
    x0: np.ndarray
    a_z: float
    exponent: float
    log_prefactor: float
    chol: np.ndarray
    _steps: dict = field(default_factory=dict, init=False, repr=False, compare=False)


#: Geometries each validated problem keeps, the oldest dropped first. The
#: ``slice_batch`` benchmark deck asks for 6 N per problem.
_SLICES = 16

#: Guards insertion into and eviction from every problem's memo: sweep rows
#: build slices from worker threads.
_SLICES_LOCK = threading.Lock()


def _log_prefactor(d: int, k: int, m: int, a_z: float) -> float:
    # ln |S^(d-m-k)| - ln |S^(d-m)| - k ln a
    return log_surface_constant(d - m - k) - log_surface_constant(d - m) - k * math.log(a_z)


def build_slice(validated: ValidatedProblem, n: int) -> SliceGeometry:
    """Slice geometry at truncation dimension n, judged by n's own rules.

    Raises, in this order: Infeasible for n > 2**53 (beyond it n is not
    exact as a float); BelowMinN for n < k + m + 2 (the weight exponent would
    be negative), before any factorization; below the support width,
    RankDeficient when the truncated constraints lose numerical rank;
    SliceEmpty when the sphere does not reach the constraint set (n <=
    |center|^2); and below the width, RankDeficient or ProjectionNotOnto when
    the stacked rank rule fails at this n (see ``validate``). The rank errors
    come from the QR's own ``center`` and ``gram_factor``. ``validated.n_min``
    is not enforced here (BelowMinN only quotes it): every n below it fails
    one of these rules.

    A built geometry is kept on ``validated`` (its last _SLICES, by n) and
    returned again for a repeated n, so a repeat takes no QR; a refusal is
    not kept, and a repeated bad n raises again, with the same error. Two
    threads that miss on one n both build it, and both get the geometry
    that was kept first.
    """
    n = int(n)
    memo = validated._slices
    kept = memo.get(n)
    if kept is not None:
        return kept
    geom = _build_slice(validated, n)
    with _SLICES_LOCK:
        kept = memo.get(n)
        if kept is None:
            if len(memo) >= _SLICES:
                del memo[next(iter(memo))]
            memo[n] = kept = geom
    return kept


def _build_slice(validated: ValidatedProblem, n: int) -> SliceGeometry:
    if n > _MAX_COUNT:
        raise Infeasible(f"N = {n} exceeds 2**53, the largest supported N")
    problem = validated.problem
    k, m = validated.k, validated.m
    if n < k + m + 2:
        # n_min >= k + m + 2, so the message holds
        raise BelowMinN(f"N = {n} < n_min = {validated.n_min}")
    qr = None
    if n < problem.width:
        qr = numlin.StackedQR(truncated_matrix(problem, n), k)
        z0n = qr.center(problem.w0)
        x0, center_sq = z0n[:k].copy(), float(z0n @ z0n)
        x0.flags.writeable = False
    else:
        x0, center_sq = validated.z0_cyl, validated.z0_norm_sq
    if n <= center_sq:
        raise SliceEmpty(f"N = {n} <= |z0_N|^2 = {center_sq:g}: empty slice")
    if qr is None:
        chol = validated.chol
    else:
        chol = qr.gram_factor()
        chol.flags.writeable = False
    d = n - 1
    a_z = math.sqrt(n - center_sq)
    exponent = 0.5 * (d - k - m - 1)
    return SliceGeometry(
        n=n,
        m=m,
        k=k,
        x0=x0,
        a_z=a_z,
        exponent=exponent,
        log_prefactor=_log_prefactor(d, k, m, a_z),
        chol=chol,
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
