"""Small dense linear algebra and log-domain special functions.

Matrices are plain 2-D float64 ``numpy.ndarray`` objects in row-major
layout; vectors are 1-D arrays. Every rank decision is taken on the
triangle of one thin QR, ``StackedQR``, with one relative singular-value
cutoff, DEFAULT_TOL; callers never pass their own. ``kernel_onb`` (a full
SVD) is kept as the independent reference that the checks compare against.
Everything here runs on numpy alone: the triangles that are solved are
m x m or k x k, so ``solve_lower`` substitutes one row at a time.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ProjectionNotOnto, RankDeficient

#: The one relative rank cutoff: singular values below DEFAULT_TOL times the
#: largest singular value count as zero.
DEFAULT_TOL = 1e-10


def as_matrix(rows: int, cols: int, entries) -> np.ndarray:
    """Arrange a flat row-major sequence as a (rows, cols) array.

    Raises ValueError when the entry count does not match. The entries stay
    as given: ``AffineProblem`` converts them and refuses any that is not a
    finite number.
    """
    a = np.asarray(entries, dtype=object).reshape(-1)
    if a.size != rows * cols:
        raise ValueError(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {a.size}"
        )
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
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    rank = int(np.sum(s > DEFAULT_TOL * (s[0] if s.size else 0.0)))
    return vh[rank:].T.copy()


def solve_lower(low: np.ndarray, b) -> np.ndarray:
    """x with low x = b, for a lower-triangular ``low`` with nonzero
    diagonal, by forward substitution."""
    b = np.asarray(b, dtype=float).reshape(-1)
    if low.shape != (b.size, b.size):
        raise ValueError(f"a {low.shape} triangle cannot solve for {b.size} entries")
    x = np.empty(b.size)
    for i in range(b.size):
        x[i] = (b[i] - low[i, :i] @ x[:i]) / low[i, i]
    return x


#: Entries of ``a`` up to which ``_matmul`` keeps numpy's ``@`` for an inner
#: dimension of 1 (the two cost the same near 256 rows on one core).
_MATMUL_ROWS = 256


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a vector or matrix ``b``, with the same shape and bytes.

    numpy runs a product over an inner dimension of 1 on a slow path; here it
    is a broadcast multiply. Adding 0.0 turns the multiply's -0.0 into the
    +0.0 that matmul's sum gives. Up to _MATMUL_ROWS entries of ``a`` the
    slow path still costs less than the two ufunc calls, so the small arrays
    of a quadrature pass go to ``@``. So do wider products: BLAS fuses
    multiply-adds, so a sum in any other order can differ in its bytes.
    """
    if a.size <= _MATMUL_ROWS or a.shape[-1:] != (1,) or b.shape[:1] != (1,) or b.ndim > 2:
        return a @ b
    out = a[..., 0] * b[0] if b.ndim == 1 else a * b[0]
    out += 0.0
    return out


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
    exceeds DEFAULT_TOL, as for the matrices R stands for. Each result checks
    the rule it rests on: ``center`` raises unless q has full row rank, and
    ``gram_factor`` unless the margin clears the cutoff.
    """

    def __init__(self, q: np.ndarray, k: int):
        self.m = q.shape[0]
        self.u, self.r = np.linalg.qr(_stacked(q, k))

    @functools.cached_property
    def margin(self) -> float:
        """sigma_(m+k) / sigma_1 of [q; E_k]. By interlacing it is at most
        sigma_m / sigma_1 of q, so margin > DEFAULT_TOL implies full row rank."""
        return _singular_ratio(self.r)

    def center(self, w) -> np.ndarray:
        """Minimal-norm solution of q x = w. Raises RankDeficient unless q has
        full row rank: sigma_m / sigma_1 of R11 above DEFAULT_TOL."""
        r11 = self.r[: self.m, : self.m]
        if _singular_ratio(r11) <= DEFAULT_TOL:
            raise RankDeficient(f"rank < {self.m} on the first {len(self.u)} column(s) of Q")
        return self.u[:, : self.m] @ solve_lower(r11.T, w)

    def gram_factor(self) -> np.ndarray:
        """Lower-triangular C with positive diagonal and C C^T = G.

        Raises unless margin > DEFAULT_TOL. The margin is at most both q's
        sigma_m / sigma_1 (of R11) and sigma_min of R22 (scale-free: G =
        R22^T R22 is a block of a projector), so it can fail while each
        passes. RankDeficient when q's ratio is at the cutoff or the smaller,
        else ProjectionNotOnto; the message names both.
        """
        m, n = self.m, len(self.u)
        r22 = self.r[m:, m:]
        if self.margin <= DEFAULT_TOL:
            rank = _singular_ratio(self.r[:m, :m])
            onto = _sigma_min(r22)
            ratios = f"sigma_m/sigma_1 of Q {rank:.2g}, sigma_min of R22 {onto:.2g}"
            if rank <= DEFAULT_TOL or rank < onto:
                raise RankDeficient(f"rank < {m} on the first {n} column(s) of Q ({ratios})")
            raise ProjectionNotOnto(
                f"the kernel of the first {n} column(s) of Q does not project onto the "
                f"first {self.r.shape[1] - m} coordinate(s) ({ratios})"
            )
        return r22.T * np.sign(np.diag(r22))


def _stacked(q: np.ndarray, k: int) -> np.ndarray:
    return np.hstack([q.T, np.eye(q.shape[1], k)])


def _stacked_margin(q: np.ndarray, k: int) -> float:
    """``StackedQR(q, k).margin`` from R alone, without forming U: mode "r"
    runs the Householder pass that the reduced mode runs before it forms U,
    so R, and the margin, have the same bytes."""
    return _singular_ratio(np.linalg.qr(_stacked(q, k), mode="r"))


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
