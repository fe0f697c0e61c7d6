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
is B^T B with B upper bidiagonal, and the entries of B come in closed form
from the distribution's canonical moments (Dette & Studden, *The Theory of
Canonical Moments*, 1997), all of them positive. The eigenvalues of the
assembled tridiagonal J = B^T B (``numpy.linalg.eigvalsh``) are accurate
to about eps in absolute terms only, so the small ones near u = 0, where
the mass sits for large exponents, may lose digits. One Newton step from
each of them, with det(B^T B - u I) and its derivative run on B's entries
by the differential stationary qd recurrence, which keeps relative
accuracy (Demmel & Kahan, SISC 11, 1990; Fernando & Parlett, Numer. Math.
67, 1994), squares that error away: the smallest node is within about
1e-15 relative of a 60-digit reference. The eigenvalues cost O(n^3) on
the dense n x n matrix, the Newton step O(n^2) in a Python loop: a
512-node rule takes about 25 ms on one core, once per (k, exponent, node
count), and the exponent follows N (see the memo below). The build's
working memory is that one n x n matrix plus LAPACK's copy of it, 2 MB
each at 512 nodes; the Newton step and the weights run in O(n) memory.
The weights are the Christoffel function at the nodes,
w_i = 1 / sum_j p_j(u_i)^2, with the orthonormal polynomials p_j run by
their three-term recurrence (Gautschi, *Orthogonal Polynomials:
Computation and Approximation*, 2004, section 3.1; Hale & Townsend,
SISC 35, 2013), so each weight is accurate in relative terms, however
small. The zeroth moment is normalized to 1:
the weights are the probabilities of the Beta distribution placed on the
nodes and sum to 1 for every exponent.

The radial rule depends only on (k, exponent, node count) and the
direction set only on (k, direction count), never on the problem or the
function, and the slice evaluator asks for the same few keys on every
pass of every request. So each key is built once per process and kept
in a ``functools.lru_cache`` on a private builder, which marks the arrays
it returns read-only: every caller gets the same arrays, and an in-place
write to one raises instead of corrupting the rule for the next caller.
The public names stay plain functions that call their builder. Two threads
that miss on one key (sweep rows run on a thread pool) both build the
same value, bit for bit, so whichever insert lands last is harmless.

Each memo has a fixed cap, with the least recently used entry dropped
first. At the node counts the library asks for, full caches hold at most
about 4.5 MB: 512 radial rules of at most 8 KB each (4 to 512 nodes) and
64 direction sets of at most 8 KB each (at most 256 directions). The
Gauss-Hermite rule is built on each call: the Gaussian limit asks for two
per evaluation, so a memo would rarely be hit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

# Values below 2**448 leave room for sums of their squares over any node
# count that fits in memory.
_RESCALE_BITS = 448.0

#: Entries each memo keeps. Quadrature takes at most eight radial rules (4
#: to 512 nodes) per (k, N); a smooth request mostly takes two (4 and 8), a
#: kinked one starts on two more (16 and 32). So the radial cap holds 64 to
#: 256 slices' rules; the direction sets the library asks for number 9.
_RADIAL_RULES = 512
_DIRECTION_SETS = 64


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


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
    absolute error of order eps. The arrays are shared and read-only.
    """
    return _beta_radial_rule(k, float(exponent), int(n_nodes))


@lru_cache(maxsize=_RADIAL_RULES)
def _beta_radial_rule(k, exponent, n):
    if n < 1:
        raise ValueError("need at least one radial node")
    p, q = k / 2.0, exponent + 1.0
    if not (p > 0.0 and 0.0 < q < np.inf):
        raise ValueError("Beta parameters k/2 and exponent + 1 must be positive and finite")
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
        return _read_only(diag, np.ones(1))
    off = np.sqrt(zeta_odd[:-1] * zeta_even[:-1])
    # J = B^T B for the upper bidiagonal B with diagonal sqrt(zeta_odd) and
    # superdiagonal sqrt(zeta_even); eigvalsh reads J's lower triangle. The
    # one n x n array is written through strided views of its flat buffer
    # and freed before the Newton step
    jac = np.zeros((n, n))
    flat = jac.reshape(-1)
    flat[:: n + 1] = diag
    flat[n :: n + 1] = off
    u = np.linalg.eigvalsh(jac)
    del jac, flat
    u = _newton_step(u, zeta_odd, zeta_even[:-1])
    return _read_only(u, _christoffel_weights(u, diag, off))


def _newton_step(u, q, e):
    """One Newton step from each u_i towards a zero of det(B^T B - u I).

    B is upper bidiagonal with squared diagonal q and squared superdiagonal
    e. The pivots of B^T B - u I = L D L^T come from the differential
    stationary qd recurrence d_i = s_i + q_i, s_(i+1) = e_i s_i / d_i - u,
    s_1 = -u, which loses no relative accuracy; det'/det = sum_i s_i' / d_i,
    with s_1' = -1 and s_(i+1)' = e_i q_i s_i' / d_i^2 - 1. A last pivot of
    exactly 0 makes the step 0 (u_i is a zero already); an earlier one, where
    u_i is also an eigenvalue of a leading block, makes it not finite, and
    then u_i is kept as it is.
    """
    s = -u
    ds = np.full(u.size, -1.0)
    total = np.zeros(u.size)
    eq = (e * q[:-1]).tolist()
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, (q_i, e_i) in enumerate(zip(q[:-1].tolist(), e.tolist())):
            d = s + q_i
            r = ds / d
            total += r
            ds = eq[i] * r / d - 1.0
            s = e_i / d * s - u
        total += ds / (s + q[-1])
        step = 1.0 / total
    return np.where(np.isfinite(step), u - step, u)


def _christoffel_weights(u, diag, off):
    """Normalized 1 / sum_j p_j(u)^2 for the Jacobi matrix (diag, off).

    The recurrence runs on q_j = c_j p_j, with the constants c_j chosen so
    that q_(j+1) = (u - diag_j) step_j q_j - q_(j-1): one multiply and one
    subtract per degree for all nodes at once, on two rolling rows, so the
    working memory is a few arrays of n. Each row, once no rescaling can
    touch it, is added as c_j^-2 * q_j * q_j (in that product order) into a
    block sum, in j order: plain adds, not BLAS, so the bits do not depend
    on threads. The block joins the total at each rescaling and at the end.
    Where the bound on growth since the last rescaling would pass
    2**_RESCALE_BITS, each node's two latest values are divided by a power
    of two, which is exact; the powers are kept per node and put back when
    the sum is inverted.
    """
    n = u.size
    c = np.ones(n)
    ratio = off[1:] / off[:-1]
    c[2::2] = np.cumprod(ratio[0::2])
    c[3::2] = np.cumprod(ratio[1::2])
    step = c[1:] / (c[:-1] * off)
    # |u - diag_j| < 1, so max(|q_(j+1)|, |q_j|) <= (1 + step_j) max(|q_j|, |q_(j-1)|)
    growth = np.log2(1.0 + step).tolist()
    step, diag, inv_c2 = step.tolist(), diag.tolist(), (c**-2.0).tolist()
    prev, cur = np.ones(n), (u - diag[0]) * step[0]
    total, block = np.zeros(n), np.zeros(n)
    shifts = np.zeros(n, dtype=int)
    bits = growth[0]
    for i in range(1, n - 1):
        bits += growth[i]
        if bits > _RESCALE_BITS:
            top = np.maximum(np.abs(prev), np.abs(cur))
            shift = np.maximum(np.frexp(top)[1], 0)
            total = np.ldexp(total + block, -2 * shift)
            block.fill(0.0)
            prev, cur = np.ldexp(prev, -shift), np.ldexp(cur, -shift)
            shifts += shift
            bits = growth[i]
        block += inv_c2[i - 1] * prev * prev
        nxt = (u - diag[i]) * step[i]
        nxt *= cur
        nxt -= prev
        prev, cur = cur, nxt
    block += inv_c2[n - 2] * prev * prev
    block += inv_c2[n - 1] * cur * cur
    total += block
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

    The arrays are shared and read-only.
    """
    return _sphere_directions(k, angular_nodes)


@lru_cache(maxsize=_DIRECTION_SETS)
def _sphere_directions(k, angular_nodes):
    if k == 1:
        return _read_only(np.array([[1.0], [-1.0]]), np.array([0.5, 0.5]))
    if k == 2:
        n = int(angular_nodes)
        theta = 2.0 * np.pi * np.arange(n) / n
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        return _read_only(pts, np.full(n, 1.0 / n))
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
        return _read_only(pts, wts)
    raise ValueError(f"no deterministic direction rule for k = {k}")


def gauss_hermite_prob(n_nodes: int):
    """Probabilists' Gauss-Hermite rule normalized to total weight 1.

    Integrates polynomials of degree <= 2 n_nodes - 1 exactly against the
    standard normal density.
    """
    x, w = np.polynomial.hermite_e.hermegauss(n_nodes)
    return x, w / w.sum()
