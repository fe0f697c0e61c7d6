"""Exact quantities of the first-k-coordinates projection restricted to the
constraint kernel.

The projection is described completely by the k x k Gram matrix G, the
leading k x k block of the orthogonal projector onto ker Q_N; its Cholesky
factor C comes from ``build_slice`` (per N) or ``ValidatedProblem.chol``
(the limit). This module holds the two quantities that read it: the
minimal-norm preimage norm <x, G^-1 x> through C, and the kernel projection
norm of (t, 0, ...) from a full SVD kernel basis, the independent reference
for <G t, t> that the verify checks use.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from . import numlin
from .affine_model import ValidatedProblem, truncated_matrix


def preimage_norm_sq(chol: np.ndarray, x) -> float:
    """Squared norm of the minimal-norm kernel preimage of x.

    The restricted projection maps its domain isometrically onto R^k after
    whitening by G; the minimal-norm point of the preimage of x has squared
    norm <x, G^{-1} x>, computed through the Cholesky factor ``chol`` of G.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    v = scipy.linalg.solve_triangular(chol, x, lower=True)
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
