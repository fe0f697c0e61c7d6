"""Affine constraint model: the subspace cut out by finitely supported
linear constraints, its closest points, and the minimal admissible
truncation dimension.

A problem is a triple (Q, w0, k): an m x s constraint matrix whose rows
are the constraint vectors (coordinates beyond s are implicitly
unconstrained), the target vector w0, and the cylinder dimension k on
which test functions act. The truncation to the first N coordinates keeps
the first N columns of Q, padding with zero columns for N > s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numlin
from .errors import BelowMinN, Infeasible, ProjectionNotOnto, RankDeficient

#: Sentinel for "no truncation": the stabilized infinite-dimensional object.
INF = math.inf

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
    which every per-N requirement holds (and keeps holding for larger N).
    """

    problem: AffineProblem
    z0: np.ndarray
    n_min: int
    rank_checks: dict = field(repr=False)

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


def truncated_matrix(problem: AffineProblem, n: int) -> np.ndarray:
    """First-n-columns truncation of Q, zero-padded on the right for n > s."""
    q = problem.q
    if n <= problem.s:
        return q[:, :n]
    out = np.zeros((problem.m, n))
    out[:, : problem.s] = q
    return out


def least_norm_center(problem: AffineProblem, n: int, tol: float = numlin.DEFAULT_TOL) -> np.ndarray:
    """Closest point to the origin on the width-n truncated constraint set.

    Valid for any n at which the truncated matrix still has full row rank,
    including n below n_min; used by the n_min search and by diagnostics of
    the pre-stabilization regime.
    """
    return numlin.least_norm_solution(truncated_matrix(problem, n), problem.w0, tol)


def _projection_onto_rank(problem: AffineProblem, n: int, tol: float) -> bool:
    # The first-k projection of ker Q_n covers R^k iff the k coordinate rows
    # are independent of the rows of Q_n, i.e. the stacked matrix has rank m+k.
    k = problem.k
    if n - problem.m < k:
        return False
    stacked = np.vstack([truncated_matrix(problem, n), np.eye(k, n)])
    return numlin.matrix_rank(stacked, tol) == problem.m + k


def validate(
    problem: AffineProblem,
    tol: float = numlin.DEFAULT_TOL,
    n_cap: int = DEFAULT_N_CAP,
) -> ValidatedProblem:
    """Check the standing hypotheses and precompute z0 and n_min.

    Verifies that Q has full row rank (the constraints are independent) and
    that the first-k-coordinates projection restricted to ker Q is onto R^k,
    the latter as a rank-k check on the k-row submatrix of a kernel basis at
    the stabilization width. Then finds the smallest N such that

      * the truncated constraints still have rank m,
      * the truncated kernel still projects onto R^k,
      * N >= k + m + 2 (keeps the disintegration weight exponent >= 1/2),
      * N exceeds the squared norm of the truncated closest point
        (the slice sphere has positive radius).

    Each condition is monotone in N, so all hold for every N >= n_min.

    Raises RankDeficient, ProjectionNotOnto, or Infeasible (no N <= n_cap).
    """
    m, k, w = problem.m, problem.k, problem.width
    q_w = truncated_matrix(problem, w)
    if numlin.matrix_rank(q_w, tol) < m:
        raise RankDeficient(f"constraint matrix has rank < {m}")
    basis = numlin.kernel_onb(q_w, tol)
    if numlin.matrix_rank(basis[:k, :], tol) < k:
        raise ProjectionNotOnto(
            "kernel of the constraints does not project onto the first "
            f"{k} coordinate(s)"
        )

    z0 = np.zeros(w)
    z0_small = numlin.least_norm_solution(q_w, problem.w0, tol)
    z0[: z0_small.size] = z0_small

    n_min = None
    for n in range(k + m + 2, w + 1):
        if numlin.matrix_rank(truncated_matrix(problem, n), tol) < m:
            continue
        if not _projection_onto_rank(problem, n, tol):
            continue
        zn = least_norm_center(problem, n, tol)
        if n > float(zn @ zn):
            n_min = n
            break
    if n_min is None:
        # Beyond the stabilization width only the radius condition can bind.
        z0_sq = float(z0 @ z0)
        n_min = max(w + 1, k + m + 2, math.floor(z0_sq) + 1)
        if n_min > n_cap:
            raise Infeasible(
                f"no admissible N <= {n_cap}: need N > |z0|^2 = {z0_sq:g}"
            )

    checks = {
        "rank_q": m,
        "projection_onto": True,
        "n_min": n_min,
        "z0_norm_sq": float(z0 @ z0),
        "tol": tol,
    }
    return ValidatedProblem(problem=problem, z0=z0, n_min=n_min, rank_checks=checks)


def closest_point(validated: ValidatedProblem, n) -> np.ndarray:
    """Closest point to the origin on the width-n truncation (z0 for n = INF).

    For finite n the result has length min(n, width); truncation beyond the
    support width is lossless, so the stored z0 is returned there directly.

    Raises BelowMinN for finite n < n_min.
    """
    problem = validated.problem
    if n == INF:
        return validated.z0.copy()
    n = int(n)
    if n < validated.n_min:
        raise BelowMinN(f"N = {n} < n_min = {validated.n_min}")
    if n >= problem.width:
        return validated.z0.copy()
    return least_norm_center(problem, n)
