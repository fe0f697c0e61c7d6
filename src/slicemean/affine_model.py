"""Affine constraint model: the subspace cut out by finitely supported
linear constraints, its closest point to the origin at each truncation,
and the minimal admissible truncation dimension.

A problem is a triple (Q, w0, k): an m x s constraint matrix whose rows
are the constraint vectors (coordinates beyond s are implicitly
unconstrained), the target vector w0, and the cylinder dimension k on
which test functions act. The truncation to the first N coordinates keeps
the first N columns of Q, padding with zero columns for N > s.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import numlin
from .errors import Infeasible

#: Largest truncation dimension tried when searching for n_min.
DEFAULT_N_CAP = 10**6


@dataclass(frozen=True)
class AffineProblem:
    """Constraint matrix Q (m x s), target w0 (length m), cylinder dimension k."""

    q: np.ndarray
    w0: np.ndarray
    k: int

    def __post_init__(self):
        q = np.atleast_2d(np.asarray(self.q, dtype=float))
        w0 = np.asarray(self.w0, dtype=float).reshape(-1)
        if q.ndim != 2 or q.shape[0] < 1 or q.shape[1] < 1:
            raise ValueError("Q must be a non-empty 2-D matrix")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(w0))):
            raise ValueError("Q and w0 entries must be finite")
        if w0.size != q.shape[0]:
            raise ValueError(f"w0 length {w0.size} != {q.shape[0]} constraint rows")
        if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral):
            raise ValueError(f"cylinder dimension k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ValueError("cylinder dimension k must be >= 1")
        q = q.copy()
        w0 = w0.copy()
        q.flags.writeable = False
        w0.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "w0", w0)

    @property
    def m(self) -> int:
        return self.q.shape[0]

    @property
    def s(self) -> int:
        """Support width: constraints involve only the first s coordinates."""
        return self.q.shape[1]

    @property
    def width(self) -> int:
        """Width at which every derived quantity has stabilized."""
        return max(self.s, self.k)


@dataclass(frozen=True)
class ValidatedProblem:
    """An AffineProblem whose standing hypotheses have been verified.

    z0 is the closest point to the origin on the constraint set, zero-padded
    to the stabilization width; n_min is the smallest truncation dimension at
    which every per-N requirement holds (see ``validate`` for how a rank
    decision can fail again above n_min). ``chol`` is the read-only
    lower-triangular Cholesky factor, with positive diagonal, of the Gram
    matrix G at the width: the covariance of the limiting Gaussian, and the
    per-N factor for every N >= width.
    """

    problem: AffineProblem
    z0: np.ndarray
    n_min: int
    chol: np.ndarray = field(repr=False)
    rank_checks: dict = field(repr=False)

    def __post_init__(self):
        self.chol.flags.writeable = False

    @property
    def k(self) -> int:
        return self.problem.k

    @property
    def m(self) -> int:
        return self.problem.m

    @property
    def z0_cyl(self) -> np.ndarray:
        """First k coordinates of z0: the mean of the limiting Gaussian."""
        return self.z0[: self.k]

    @property
    def g(self) -> np.ndarray:
        """The stabilized Gram matrix G = chol chol^T, symmetrized."""
        g = self.chol @ self.chol.T
        return 0.5 * (g + g.T)


def truncated_matrix(problem: AffineProblem, n: int) -> np.ndarray:
    """First-n-columns truncation of Q, zero-padded on the right for n > s."""
    q = problem.q
    if n <= problem.s:
        return q[:, :n]
    out = np.zeros((problem.m, n))
    out[:, : problem.s] = q
    return out


def least_norm_center(problem: AffineProblem, n: int) -> np.ndarray:
    """Closest point to the origin on the width-n truncated constraint set.

    Valid for any n at which the truncated matrix still has full row rank,
    including n below n_min; the verify checks' reference for the centers of
    the pre-stabilization regime. Raises RankDeficient otherwise.
    """
    qr = numlin.StackedQR(truncated_matrix(problem, n), problem.k)
    qr.require_rank()
    return qr.center(problem.w0)


def validate(problem: AffineProblem) -> ValidatedProblem:
    """Check the standing hypotheses and precompute z0 and n_min.

    Every decision is read off one thin QR of [Q_N^T | E_k^T]
    (``numlin.StackedQR``, E_k the first k coordinate rows) with the one
    cutoff of ``numlin``, which ``rank_checks["tol"]`` reports. At the
    stabilization width, the stacked [Q; E_k] must have rank m + k: Q has
    full row rank and ker Q projects onto R^k (else RankDeficient or
    ProjectionNotOnto, see ``StackedQR.require_onto``). That QR also gives
    z0 and the limit factor ``chol``. Then finds the smallest N such that

      * the stacked rank rule holds at N (it implies full row rank of Q_N),
      * N >= k + m + 2 (keeps the disintegration weight exponent >= 1/2),
      * N exceeds the squared norm of the truncated closest point
        (the slice sphere has positive radius).

    ``rank_checks["rank_margin"]`` is the stacked sigma_(m+k) / sigma_1 at
    min(n_min, width): how far the accepted truncation sits above the cutoff.

    In exact arithmetic each condition is monotone in N, so all would hold
    for every N >= n_min. In floating point either ratio of a truncation
    can dip below the cutoff at some N between n_min and the support width
    (rows that are nearly dependent on their first N columns only);
    build_slice raises RankDeficient or ProjectionNotOnto at such an N.
    From the support width on, every condition holds.

    Raises RankDeficient, ProjectionNotOnto, or Infeasible (no N <=
    DEFAULT_N_CAP).
    """
    m, k, w = problem.m, problem.k, problem.width
    qr = numlin.StackedQR(truncated_matrix(problem, w), k)
    qr.require_onto()
    margin = qr.margin
    z0 = qr.center(problem.w0)
    chol = qr.gram_factor()

    n_min = None
    for n in range(k + m + 2, w + 1):
        qr = numlin.StackedQR(truncated_matrix(problem, n), k)
        ratio = qr.margin
        if ratio <= numlin.DEFAULT_TOL:
            continue
        zn = qr.center(problem.w0)
        if n > float(zn @ zn):
            n_min, margin = n, ratio
            break
    if n_min is None:
        # Beyond the stabilization width only the radius condition can bind.
        z0_sq = float(z0 @ z0)
        n_min = max(w + 1, k + m + 2, math.floor(z0_sq) + 1)
        if n_min > DEFAULT_N_CAP:
            raise Infeasible(
                f"no admissible N <= {DEFAULT_N_CAP}: need N > |z0|^2 = {z0_sq:g}"
            )

    checks = {
        "rank_q": m,
        "projection_onto": True,
        "n_min": n_min,
        "z0_norm_sq": float(z0 @ z0),
        "tol": numlin.DEFAULT_TOL,
        "rank_margin": margin,
    }
    return ValidatedProblem(problem=problem, z0=z0, n_min=n_min, chol=chol, rank_checks=checks)
