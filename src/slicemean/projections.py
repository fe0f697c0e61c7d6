"""Finite Gram data of the first-k-coordinates projection restricted to the
constraint kernel.

For a truncation dimension N the kernel of the truncated constraints is an
(N - m)-dimensional subspace; the projection of that subspace onto the first
k coordinates is described completely by the k x k Gram matrix
G = M M^T, where M holds the first k rows of any orthonormal kernel basis.
G is basis-invariant (it is the leading k x k block of the orthogonal
projector onto the kernel), and everything downstream consumes only G, its
Cholesky factor, and its log-determinant.

Beyond the support width the data stop changing: for N >= width the kernel
of [Q_w, 0] is ker Q_w x R^(N - width), its projector is diag(P_w, I), and
the leading k x k block is that of P_w. So a kernel basis is never needed
at more than width columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import numlin
from .affine_model import INF, ValidatedProblem, truncated_matrix
from .errors import BelowMinN, RankDeficient


@dataclass(frozen=True)
class ProjectionData:
    """Per-N projection data: Gram matrix, factor, and the kernel basis.

    ``n`` is a finite truncation dimension or INF. ``kernel_basis`` is an
    orthonormal kernel basis at min(n, width) columns (width for INF); for
    n >= width, G is therefore exactly the limiting one, because constraint
    rows are finitely supported. ``log_det_l0`` is half the log-determinant
    of G: the log of the absolute determinant of the restricted projection
    as a map between k-dimensional spaces. ``chol`` is lower-triangular with
    chol @ chol.T = G.
    """

    n: float
    g: np.ndarray
    log_det_l0: float
    chol: np.ndarray
    kernel_basis: np.ndarray

    @property
    def k(self) -> int:
        return self.g.shape[0]


def build_projection(validated: ValidatedProblem, n) -> ProjectionData:
    """Kernel basis, Gram matrix and factor at truncation n (or INF).

    The basis is taken at min(n, width) columns, so the cost does not grow
    with n. Raises BelowMinN for finite n below n_min, RankDeficient when
    the truncated constraints lose rank at this n (a numerical dip that
    validation cannot exclude between n_min and the width), and NotSPD if
    the projection fails to be onto at this n.
    """
    problem = validated.problem
    width = problem.width
    if n != INF:
        n = int(n)
        if n < validated.n_min:
            raise BelowMinN(f"N = {n} < n_min = {validated.n_min}")
        width = min(n, width)
    basis = numlin.kernel_onb(truncated_matrix(problem, width))
    if basis.shape[1] > width - problem.m:
        raise RankDeficient(
            f"N = {n}: the truncated constraints have rank < {problem.m}"
        )
    m_top = basis[: problem.k, :]
    g = m_top @ m_top.T
    g = 0.5 * (g + g.T)
    chol = numlin.cholesky_spd(g)
    log_det = float(np.sum(np.log(np.diag(chol))))
    return ProjectionData(
        n=n,
        g=g,
        log_det_l0=log_det,
        chol=chol,
        kernel_basis=basis,
    )


def preimage_norm_sq(pd: ProjectionData, x) -> float:
    """Squared norm of the minimal-norm kernel preimage of x.

    The restricted projection maps its domain isometrically onto R^k after
    whitening by G; the minimal-norm point of the preimage of x has squared
    norm <x, G^{-1} x>, computed through the Cholesky factor.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    v = scipy.linalg.solve_triangular(pd.chol, x, lower=True)
    return float(v @ v)


def kernel_projection_norm_sq(validated: ValidatedProblem, t) -> float:
    """Squared norm of the orthogonal projection of (t, 0, 0, ...) onto the
    constraint kernel.

    t lives on the first k coordinates; the projection is onto the kernel of
    the full (stabilized-width) constraint matrix. This is the quadratic
    form in the characteristic function of the limiting measure, and equals
    <G_inf t, t> -- an identity the verification suite checks through two
    independent code paths.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    if not np.all(np.isfinite(t)):
        raise ValueError("t must be finite")
    problem = validated.problem
    if t.size != problem.k:
        raise ValueError(f"t must have length k = {problem.k}")
    width = problem.width
    basis = numlin.kernel_onb(truncated_matrix(problem, width))
    t_hat = np.zeros(width)
    t_hat[: t.size] = t
    coeff = basis.T @ t_hat
    return float(coeff @ coeff)
