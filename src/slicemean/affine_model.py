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
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import numlin
from .errors import Infeasible

#: Largest truncation dimension and sample count: every float computed from
#: an integer up to 2**53 is exact.
_MAX_COUNT = 2**53


def _is_int(value) -> bool:
    # numpy integers pass; JSON true/false load as bool, a subclass of int
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_int(value) and 1 <= value <= _MAX_COUNT


def _is_finite_number(value) -> bool:
    # NaN fails the comparison, and a 400-digit int compares exactly; bool and
    # str are not numbers here
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _finite_array(values, name: str) -> np.ndarray:
    """``values`` as a new float array of the same shape; ValueError unless
    every entry is a finite number in the sense of ``_is_finite_number``.

    A real, non-bool ndarray is judged after its cast: an entry is finite
    there exactly when its float is, a longdouble beyond the float64 range
    casting to inf. Anything else (lists from a config, object arrays) is
    walked entry by entry.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        with np.errstate(over="ignore"):
            out = np.asarray(values).astype(float)
        if np.isfinite(out).all():
            return out
    else:
        entries = np.asarray(values, dtype=object)
        if all(_is_finite_number(v) for v in entries.reshape(-1)):
            return entries.astype(float)
    raise ValueError(f"{name} must hold finite numbers, got {values!r}")


@dataclass(frozen=True)
class AffineProblem:
    """Constraint matrix Q (m x s), target w0 (length m), cylinder dimension k.

    Every entry of Q and w0 is a finite real number (not bool or str), w0 is
    flat, and k is an integer >= 1; anything else raises ValueError."""

    q: np.ndarray
    w0: np.ndarray
    k: int

    def __post_init__(self):
        q = np.atleast_2d(_finite_array(self.q, "Q"))
        w0 = _finite_array(self.w0, "w0")
        if q.ndim != 2 or q.shape[0] < 1 or q.shape[1] < 1:
            raise ValueError("Q must be a non-empty 2-D matrix")
        if w0.ndim != 1:
            raise ValueError(f"w0 must be a flat list of numbers, got {self.w0!r}")
        if w0.size != q.shape[0]:
            raise ValueError(f"w0 length {w0.size} != {q.shape[0]} constraint rows")
        if not (_is_int(self.k) and self.k >= 1):
            raise ValueError(f"cylinder dimension k must be an integer >= 1, got {self.k!r}")
        # both are new arrays (see _finite_array), so no caller holds them
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
    which every per-N requirement holds, a report that ``build_slice`` does
    not consult (see ``validate`` for how a rank decision can fail again
    above n_min). ``chol`` is the read-only lower-triangular Cholesky factor,
    with positive diagonal, of the Gram matrix G at the width: the covariance
    of the limiting Gaussian, and the per-N factor for every N >= width.
    ``rank_margin`` is the stacked sigma_(m+k) / sigma_1 at min(n_min, width).
    ``z0`` and ``chol`` are read-only: the cached ``z0_cyl`` and
    ``z0_norm_sq`` and the slices ``build_slice`` keeps in the private
    ``_slices`` (by N) are computed from them once.
    """

    problem: AffineProblem
    z0: np.ndarray
    n_min: int
    chol: np.ndarray = field(repr=False)
    rank_margin: float
    _slices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.z0.flags.writeable = False
        self.chol.flags.writeable = False

    @property
    def k(self) -> int:
        return self.problem.k

    @property
    def m(self) -> int:
        return self.problem.m

    @cached_property
    def z0_cyl(self) -> np.ndarray:
        """First k coordinates of z0, a read-only copy: the mean of the
        limiting Gaussian, and the slice center's at every N >= width."""
        x0 = self.z0[: self.k].copy()
        x0.flags.writeable = False
        return x0

    @cached_property
    def z0_norm_sq(self) -> float:
        """|z0|^2, the slice center's squared norm at every N >= width."""
        return float(self.z0 @ self.z0)

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
    return numlin.StackedQR(truncated_matrix(problem, n), problem.k).center(problem.w0)


def validate(problem: AffineProblem) -> ValidatedProblem:
    """Check the standing hypotheses and precompute z0 and n_min.

    Every decision is read off one thin QR of [Q_N^T | E_k^T]
    (``numlin.StackedQR``, E_k the first k coordinate rows) with the one
    cutoff, ``numlin.DEFAULT_TOL``. At the
    stabilization width, the stacked [Q; E_k] must have rank m + k: Q has
    full row rank and ker Q projects onto R^k (else RankDeficient or
    ProjectionNotOnto, raised by ``StackedQR.gram_factor`` as it gives the
    limit factor ``chol``). That QR also gives z0. Then finds the smallest N
    such that

      * the stacked rank rule holds at N (it implies full row rank of Q_N),
      * N >= k + m + 2 (keeps the disintegration weight exponent >= 1/2),
      * N exceeds the squared norm of the truncated closest point
        (the slice sphere has positive radius).

    The scan takes one QR per N; after a failed rank rule it takes R alone
    until the rule passes again. It starts at the first N at which every row
    of Q has a nonzero entry (below it [Q_N^T | E_k^T] has a zero column, so
    the rank rule fails) and stops below the width, where the QR above
    decides: the width is factored once.

    ``rank_margin`` is the stacked sigma_(m+k) / sigma_1 at min(n_min,
    width): how far the accepted truncation sits above the cutoff.

    n_min is reported, not enforced: ``build_slice`` judges each N by that
    N's own rules, and fails at every N below n_min. In exact arithmetic
    each condition is monotone in N, so all would hold for every N >= n_min.
    In floating point either ratio of a truncation can dip below the cutoff
    at some N between n_min and the support width (rows that are nearly
    dependent on their first N columns only); build_slice raises
    RankDeficient or ProjectionNotOnto at such an N. From the support width
    on, every condition holds.

    Raises RankDeficient, ProjectionNotOnto, or Infeasible (n_min would
    exceed 2**53, the largest supported N).
    """
    m, k, w = problem.m, problem.k, problem.width
    qr = numlin.StackedQR(truncated_matrix(problem, w), k)
    chol = qr.gram_factor()
    margin = qr.margin
    z0 = qr.center(problem.w0)

    # the first N at which every row of Q has a nonzero entry
    first = int((problem.q != 0).argmax(axis=1).max()) + 1
    n_min = None
    failed = False
    for n in range(max(k + m + 2, first), w):
        q_n = truncated_matrix(problem, n)
        # after a failed margin the next is likely to fail too: read it from
        # R alone, and form U only once one passes
        if failed and numlin._stacked_margin(q_n, k) <= numlin.DEFAULT_TOL:
            continue
        qr = numlin.StackedQR(q_n, k)
        ratio = qr.margin
        failed = ratio <= numlin.DEFAULT_TOL
        if failed:
            continue
        zn = qr.center(problem.w0)
        if n > float(zn @ zn):
            n_min, margin = n, ratio
            break
    if n_min is None:
        # From the stabilization width on only the radius condition can bind.
        z0_sq = float(z0 @ z0)
        n_min = max(w, k + m + 2, math.floor(z0_sq) + 1)
        if n_min > _MAX_COUNT:
            raise Infeasible(f"no admissible N <= 2**53: need N > |z0|^2 = {z0_sq:g}")
    return ValidatedProblem(problem=problem, z0=z0, n_min=n_min, chol=chol, rank_margin=margin)
