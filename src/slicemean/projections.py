"""Finite Gram data of the first-k-coordinates projection restricted to the
constraint kernel.

For a truncation dimension N the projection of ker Q_N onto the first k
coordinates is described completely by the k x k Gram matrix G, the leading
k x k block of the orthogonal projector onto ker Q_N. Everything downstream
consumes only G, its Cholesky factor and its log-determinant, and all three
come from the block R22 of one thin QR (``numlin.StackedQR``): G = R22^T R22.

Beyond the support width the data stop changing: for N >= width the kernel
of [Q_w, 0] is ker Q_w x R^(N - width), its projector is diag(P_w, I), and
the leading k x k block is that of P_w. So the factorization is never taken
at more than width columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import numlin
from .affine_model import INF, ValidatedProblem, truncated_matrix
from .errors import BelowMinN, NotSPD


@dataclass(frozen=True)
class ProjectionData:
    """Per-N projection data: Gram matrix, factor and log-determinant.

    ``n`` is a finite truncation dimension or INF. ``constraints`` is Q
    truncated to min(n, width) columns (width for INF), where the data are
    taken. ``log_det_l0`` is half the log-determinant of G: the log of the
    absolute determinant of the restricted projection as a map between
    k-dimensional spaces. ``chol`` is lower-triangular with positive
    diagonal and chol @ chol.T = G.
    """

    n: float
    g: np.ndarray
    log_det_l0: float
    chol: np.ndarray
    constraints: np.ndarray = field(repr=False)

    @property
    def k(self) -> int:
        return self.g.shape[0]

    @property
    def kernel_basis(self) -> np.ndarray:
        """Kernel basis of ``constraints`` by a full SVD on each access. Only the
        basis-size counter of ``perfbench/spans.py`` and two shape tests read
        it; it goes with ROADMAP item 1."""
        return numlin.kernel_onb(self.constraints)


def build_projection(validated: ValidatedProblem, n) -> ProjectionData:
    """Gram matrix, factor and log-determinant at truncation n (or INF).

    The QR is taken at min(n, width) columns, so the cost does not grow
    with n. Raises BelowMinN for finite n below n_min, and applies
    validate's two rank decisions at this n (a numerical dip that validation
    cannot exclude between n_min and the width): RankDeficient when the
    truncated constraints lose rank, NotSPD when the kernel is not onto R^k.
    """
    problem = validated.problem
    width = problem.width
    if n != INF:
        n = int(n)
        if n < validated.n_min:
            raise BelowMinN(f"N = {n} < n_min = {validated.n_min}")
        width = min(n, width)
    q_n = truncated_matrix(problem, width)
    qr = numlin.StackedQR(q_n, problem.k)
    if qr.margin <= numlin.DEFAULT_TOL:
        qr.require_rank()
        raise NotSPD(
            f"N = {n}: the kernel does not project onto the first {problem.k} coordinate(s)"
        )
    chol = qr.gram_factor()
    g = chol @ chol.T
    log_det = float(np.sum(np.log(np.diag(chol))))
    return ProjectionData(n=n, g=0.5 * (g + g.T), log_det_l0=log_det, chol=chol, constraints=q_n)


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
