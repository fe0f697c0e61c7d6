"""Small dense linear algebra and log-domain special functions.

Matrices are plain 2-D float64 ``numpy.ndarray`` objects in row-major
layout; vectors are 1-D arrays. Every rank decision is taken on the
triangle of one thin QR, ``StackedQR``, with one relative singular-value
cutoff, DEFAULT_TOL; callers never pass their own. ``kernel_onb`` (a full
SVD) is kept as the independent reference that the checks compare against.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import ProjectionNotOnto, RankDeficient

#: The one relative rank cutoff: singular values below DEFAULT_TOL times the
#: largest singular value count as zero.
DEFAULT_TOL = 1e-10


def as_matrix(rows: int, cols: int, entries) -> np.ndarray:
    """Build an (rows, cols) float64 matrix from a flat row-major sequence.

    Raises ValueError when the entry count does not match or any entry is
    not finite.
    """
    a = np.asarray(entries, dtype=float).reshape(-1)
    if a.size != rows * cols:
        raise ValueError(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {a.size}"
        )
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must all be finite")
    return a.reshape(rows, cols)


def kernel_onb(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of ``m``.

    Returns an (n, n - r) matrix whose columns are orthonormal and span
    ker(m), where r is the numerical rank of ``m`` at the relative cutoff
    DEFAULT_TOL. The basis may be empty (zero columns) for full column rank.
    Column order and signs are arbitrary; callers must only rely on the
    spanned subspace.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    _, s, vh = scipy.linalg.svd(m, full_matrices=True)
    rank = int(np.sum(s > DEFAULT_TOL * (s[0] if s.size else 0.0)))
    return vh[rank:].T.copy()


class StackedQR:
    """Thin Householder QR [q^T | E_k^T] = U R of an m x n constraint block q
    and the first k coordinate rows E_k (Golub & Van Loan, *Matrix
    Computations*, 5.2). Split R = [[R11, R12], [0, R22]] after row and
    column m. R11 has the singular values of q and R those of [q; E_k], so
    ker q projects onto R^k iff R has rank m + k. The minimal-norm solution
    of q x = w is U1 R11^-T w. The leading k x k block of the projector onto
    ker q is G = R22^T R22, so R22^T with its column signs fixed is G's
    Cholesky factor, obtained without squaring the condition number. QR is
    backward stable, so a block has full rank iff its sigma_min / sigma_max
    exceeds DEFAULT_TOL, as for the matrices R stands for.
    """

    def __init__(self, q: np.ndarray, k: int):
        self.m = q.shape[0]
        self.u, self.r = np.linalg.qr(np.hstack([q.T, np.eye(q.shape[1], k)]))

    @property
    def margin(self) -> float:
        """sigma_(m+k) / sigma_1 of [q; E_k]. By interlacing it is at most
        sigma_m / sigma_1 of q, so margin > DEFAULT_TOL implies full row rank."""
        return _singular_ratio(self.r)

    def require_rank(self):
        """Raise RankDeficient unless q has full row rank."""
        if _singular_ratio(self.r[: self.m, : self.m]) <= DEFAULT_TOL:
            raise RankDeficient(f"rank < {self.m} on the first {len(self.u)} column(s) of Q")

    def require_onto(self):
        """Raise unless margin > DEFAULT_TOL. The margin is at most both q's
        sigma_m / sigma_1 (of R11) and sigma_min of R22 (scale-free: G =
        R22^T R22 is a block of a projector), so it can fail while each
        passes. RankDeficient when q's ratio is at the cutoff or the smaller,
        else ProjectionNotOnto; the message names both."""
        if self.margin > DEFAULT_TOL:
            return
        m, n = self.m, len(self.u)
        rank = _singular_ratio(self.r[:m, :m])
        onto = _sigma_min(self.r[m:, m:])
        ratios = f"sigma_m/sigma_1 of Q {rank:.2g}, sigma_min of R22 {onto:.2g}"
        if rank <= DEFAULT_TOL or rank < onto:
            raise RankDeficient(f"rank < {m} on the first {n} column(s) of Q ({ratios})")
        raise ProjectionNotOnto(
            f"the kernel of the first {n} column(s) of Q does not project onto the "
            f"first {self.r.shape[1] - m} coordinate(s) ({ratios})"
        )

    def center(self, w) -> np.ndarray:
        """Minimal-norm solution of q x = w; q must have full row rank."""
        y = scipy.linalg.solve_triangular(self.r[: self.m, : self.m], w, trans="T", check_finite=False)
        return self.u[:, : self.m] @ y

    def gram_factor(self) -> np.ndarray:
        """Lower-triangular C with positive diagonal and C C^T = G; needs margin > 0."""
        r22 = self.r[self.m :, self.m :]
        return r22.T * np.sign(np.diag(r22))


def _singular_ratio(r: np.ndarray) -> float:
    # sigma_min / sigma_max; 0 for a zero block or a wide one (fewer rows)
    s = np.linalg.svd(r, compute_uv=False)
    return float(s[-1] / s[0]) if s.size == r.shape[1] and s[0] > 0 else 0.0


def _sigma_min(r: np.ndarray) -> float:
    # 0 for a wide block (fewer rows than columns)
    s = np.linalg.svd(r, compute_uv=False)
    return float(s[-1]) if s.size == r.shape[1] else 0.0


def log_surface_constant(j: int) -> float:
    """ln of the total surface measure of the unit j-sphere.

    The j-dimensional unit sphere has measure 2 pi^((j+1)/2) / Gamma((j+1)/2);
    the computation stays in log domain so it cannot overflow for any j that
    fits in memory (the linear-domain value overflows float64 near j ~ 350).
    """
    if j < 0:
        raise ValueError("sphere dimension must be >= 0")
    half = 0.5 * (j + 1)
    return math.log(2.0) + half * math.log(math.pi) - math.lgamma(half)
