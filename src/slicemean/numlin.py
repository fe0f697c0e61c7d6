"""Small dense linear algebra and log-domain special functions.

Everything here is a pure function of its arguments. Matrices are plain
2-D float64 ``numpy.ndarray`` objects in row-major layout; vectors are 1-D
arrays. Every rank decision uses one relative singular-value cutoff,
DEFAULT_TOL; callers never pass their own.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import NotSPD, RankDeficient

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


def matrix_rank(m: np.ndarray) -> int:
    """Numerical rank at the relative cutoff DEFAULT_TOL."""
    s = scipy.linalg.svd(np.atleast_2d(np.asarray(m, dtype=float)), compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.sum(s > DEFAULT_TOL * s[0]))


def least_norm_solution(m: np.ndarray, w) -> np.ndarray:
    """Minimal-Euclidean-norm solution x of m @ x = w.

    Equals m.T @ inv(m @ m.T) @ w for full row rank; computed through the
    SVD so near-degenerate rows are detected rather than amplified.

    Raises RankDeficient when the numerical row rank of ``m`` is below the
    number of rows.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    w = np.asarray(w, dtype=float).reshape(-1)
    nrows = m.shape[0]
    if w.size != nrows:
        raise ValueError(f"rhs length {w.size} does not match {nrows} rows")
    u, s, vh = scipy.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(s > DEFAULT_TOL * (s[0] if s.size else 0.0)))
    if rank < nrows:
        raise RankDeficient(f"row rank {rank} < {nrows} at tol {DEFAULT_TOL:g}")
    return vh.T @ ((u.T @ w) / s)


def cholesky_spd(g: np.ndarray) -> np.ndarray:
    """Lower-triangular factor C with C @ C.T = g, raising NotSPD on failure."""
    g = np.atleast_2d(np.asarray(g, dtype=float))
    try:
        return scipy.linalg.cholesky(0.5 * (g + g.T), lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotSPD(str(exc)) from exc


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
