"""Quadrature node/weight construction.

The radial rule is the heart of the deterministic evaluator. After the
substitution r = a * sqrt(u), the slice weight times the volume element
becomes the Beta(k/2, exponent + 1) kernel u^(k/2-1) (1-u)^exponent on
(0, 1), and the radial rule is the Gauss rule for that kernel. The
exponents in play grow like N/2, where library Gauss-Jacobi routines
overflow because they scale weights by the zeroth moment
2^(alpha+beta+1) B(alpha+1, beta+1), and where weights taken from
eigenvectors (Golub-Welsch) are accurate only in absolute terms: the tail
weights, far below 1e-16, come back as round-off.

So the rule is built in the u variable from quantities that keep their
relative accuracy. The Jacobi matrix of the normalized Beta distribution
is L L^T with L bidiagonal, and the entries of L come in closed form from
the distribution's canonical moments (Dette & Studden, *The Theory of
Canonical Moments*, 1997), all of them positive. The nodes are the
eigenvalues of that positive definite matrix, computed to high relative
accuracy (LAPACK ``dpteqr``), so nodes near u = 0, where the mass sits for
large exponents, keep their leading digits. The weights are the Christoffel
function at the nodes, w_i = 1 / sum_j p_j(u_i)^2, with the orthonormal
polynomials p_j run by their three-term recurrence (Gautschi, *Orthogonal
Polynomials: Computation and Approximation*, 2004, section 3.1; Hale &
Townsend, SISC 35, 2013), so each weight is accurate in relative terms,
however small. The zeroth moment is normalized to 1: the weights are the
probabilities of the Beta distribution placed on the nodes and sum to 1
for every exponent.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import lapack

# Values below 2**448 leave room for sums of their squares over any node
# count that fits in memory.
_RESCALE_BITS = 448.0


def beta_radial_rule(k: int, exponent: float, n_nodes: int):
    """Nodes u in (0, 1) and weights of the normalized Beta(k/2, exponent+1)
    Gauss rule; weights sum to 1.

    Exact for polynomial integrands of degree <= 2 n_nodes - 1 with respect
    to the Beta distribution. Nodes near u = 0 are accurate in relative
    terms. Each weight is w_i = 1 / sum_{j < n_nodes} p_j(u_i)^2 for the
    orthonormal polynomials p_j, so it is accurate in relative terms too,
    down to the tail weights far below 1e-16; weights below the smallest
    double come back as 0. The relative error of a weight grows like
    n_nodes^2 * eps only near u = 1, where the node itself carries an
    absolute error of order eps.
    """
    if n_nodes < 1:
        raise ValueError("need at least one radial node")
    p, q = k / 2.0, float(exponent) + 1.0
    if not (p > 0.0 and 0.0 < q < np.inf):
        raise ValueError("Beta parameters k/2 and exponent + 1 must be positive and finite")
    n = int(n_nodes)
    # zeta_{2j+1} and zeta_{2j+2} from the canonical moments of Beta(p, q);
    # the Jacobi matrix has diagonal zeta_{2j} + zeta_{2j+1} and off-diagonal
    # sqrt(zeta_{2j+1} zeta_{2j+2}), all sums and products of positives.
    j = np.arange(n, dtype=float)
    s = p + q + 2.0 * j
    zeta_odd = (p + j) / s
    zeta_odd[1:] *= (p + q + j[:-1]) / (s[:-1] + 1.0)
    zeta_even = (j + 1.0) / (s + 1.0) * (q + j) / s
    diag = zeta_odd.copy()
    diag[1:] += zeta_even[:-1]
    if n == 1:
        return diag, np.ones(1)
    off = np.sqrt(zeta_odd[:-1] * zeta_even[:-1])
    desc, _, _, info = lapack.dpteqr(diag, off, np.zeros((0, 0)))
    if info != 0:
        raise np.linalg.LinAlgError(f"dpteqr failed with info = {info}")
    u = desc[::-1].copy()
    return u, _christoffel_weights(u, diag, off)


def _christoffel_weights(u, diag, off):
    """Normalized 1 / sum_j p_j(u)^2 for the Jacobi matrix (diag, off).

    The recurrence runs on q_j = c_j p_j, with the constants c_j chosen so
    that q_(j+1) = A_j q_j - q_(j-1): one multiply and one subtract per
    degree for all nodes at once. Where the bound on growth since the last
    rescaling would pass 2**_RESCALE_BITS, each node's two latest values are
    divided by a power of two, which is exact; the powers are kept per node
    and put back when the sum is inverted.
    """
    n = u.size
    c = np.ones(n)
    ratio = off[1:] / off[:-1]
    c[2::2] = np.cumprod(ratio[0::2])
    c[3::2] = np.cumprod(ratio[1::2])
    step = c[1:] / (c[:-1] * off)
    A = (u - diag[:-1, None]) * step[:, None]
    # |u - diag_j| < 1, so max(|q_(j+1)|, |q_j|) <= (1 + step_j) max(|q_j|, |q_(j-1)|)
    growth = np.log2(1.0 + step).tolist()
    inv_c2 = c**-2.0
    Q = np.empty((n, n))
    rows = list(Q)
    rows[0].fill(1.0)
    rows[1][:] = A[0]
    total = np.zeros(n)
    shifts = np.zeros(n, dtype=int)
    start, bits = 0, growth[0]
    for i in range(1, n - 1):
        bits += growth[i]
        if bits > _RESCALE_BITS:
            top = np.maximum(np.abs(rows[i - 1]), np.abs(rows[i]))
            shift = np.maximum(np.frexp(top)[1], 0)
            block = Q[start : i - 1]
            done = np.einsum("j,ji,ji->i", inv_c2[start : i - 1], block, block)
            total = np.ldexp(total + done, -2 * shift)
            Q[i - 1 : i + 1] = np.ldexp(Q[i - 1 : i + 1], -shift)
            shifts += shift
            start, bits = i - 1, growth[i]
        np.multiply(A[i], rows[i], out=rows[i + 1])
        np.subtract(rows[i + 1], rows[i - 1], out=rows[i + 1])
    # einsum, not BLAS: the sum's order, and so its bits, must not depend on threads
    total += np.einsum("j,ji,ji->i", inv_c2[start:], Q[start:], Q[start:])
    w = np.ldexp(1.0 / total, -2 * shifts)
    return w / w.sum()


def sphere_directions(k: int, angular_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions on S^(k-1) with normalized weights (sum 1), k <= 3.

    k = 1: the two half-lines with weight 1/2 each.
    k = 2: ``angular_nodes`` equispaced points on the circle, exact for
           trigonometric polynomials of degree < angular_nodes.
    k = 3: Gauss-Legendre in the polar cosine times an equispaced azimuth,
           with side = max(4, round(sqrt(angular_nodes))) nodes each, so
           ``angular_nodes`` is the direction budget and side^2 directions
           are returned.
    """
    if k == 1:
        return np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])
    if k == 2:
        n = int(angular_nodes)
        theta = 2.0 * np.pi * np.arange(n) / n
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        return pts, np.full(n, 1.0 / n)
    if k == 3:
        n_polar = n_az = max(4, int(round(np.sqrt(int(angular_nodes)))))
        c, w_polar = leggauss(n_polar)
        phi = 2.0 * np.pi * np.arange(n_az) / n_az
        sin_polar = np.sqrt(1.0 - c**2)
        pts = np.empty((n_polar * n_az, 3))
        wts = np.empty(n_polar * n_az)
        for i in range(n_polar):
            sl = slice(i * n_az, (i + 1) * n_az)
            pts[sl, 0] = sin_polar[i] * np.cos(phi)
            pts[sl, 1] = sin_polar[i] * np.sin(phi)
            pts[sl, 2] = c[i]
            wts[sl] = 0.5 * w_polar[i] / n_az
        return pts, wts
    raise ValueError(f"no deterministic direction rule for k = {k}")


def gauss_legendre_panel(lo: float, hi: float, n_nodes: int):
    """Gauss-Legendre nodes/weights mapped to the interval [lo, hi]."""
    x, w = leggauss(n_nodes)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def gauss_hermite_prob(n_nodes: int):
    """Probabilists' Gauss-Hermite rule normalized to total weight 1.

    Integrates polynomials of degree <= 2 n_nodes - 1 exactly against the
    standard normal density.
    """
    x, w = np.polynomial.hermite_e.hermegauss(n_nodes)
    return x, w / w.sum()
