"""Exact finite-N slice means, computed without the library.

The slice {x in R^N : Q_N x = w0, |x|^2 = N} is a sphere of radius a around
the closest point z_N, inside the (N - m)-dimensional constraint kernel.
Its first k coordinates are x0 + P v with v uniform on that sphere, and
everything needed about P is the k x k Gram block of the kernel projector,

    G_N = I_k - Q_{N,:k}^T (Q_N Q_N^T)^{-1} Q_{N,:k},

an m x m solve instead of the library's N x N SVD. From it:

    E[cos<t,x>] = cos<t,x0> * 0F1(; (N-m)/2; -a^2 <t,G_N t> / 4)
    E[sin<t,x>] = sin<t,x0> * (the same factor)
    E[x x^T]    = x0 x0^T + G_N a^2 / (N - m)

The non-smooth functions use the same picture. With d = N - m, one
coordinate is x_i = x0_i + a sqrt(G_ii) u, where u is a coordinate of a
uniform point of S^(d-1) and u^2 ~ Beta(1/2, (d-1)/2); a bounded cutoff of
x_i^2 and a k = 1 indicator ball then have closed forms in incomplete beta
functions. For k = 2, 3 write x = x0 + C y with C C^T = G_N, y = a rho theta,
theta uniform on S^(k-1) and rho^2 ~ Beta(k/2, (d-k)/2): along each direction
the ball is one interval of rho, so its probability is an incomplete-beta
difference averaged over directions, which a product rule integrates.

Functions are given as the benchmark's own input dicts
({"kind": ..., "params": ...}), never as library objects.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

#: Direction counts of the k = 2, 3 ball average (per axis); the rule is
#: run at both the coarse and the fine count and their difference is the
#: reference's own error.
BALL_NODES = {2: (4096, 8192), 3: (256, 512)}


def hyp0f1(b: float, z: float) -> float:
    """0F1(; b; z) by direct summation of its convergent series.

    scipy.special.hyp0f1 returns NaN near b ~ 2048, where the slices of
    interest live; here the terms stop growing once (b + j)(j + 1) > |z|,
    and the benchmark's arguments keep |z| / b below about 5, so the sum
    loses at most a few digits to cancellation.
    """
    terms = [1.0]
    term = 1.0
    j = 0
    while True:
        term *= z / ((b + j) * (j + 1.0))
        j += 1
        terms.append(term)
        if (b + j) * (j + 1.0) > abs(z) and abs(term) < 1e-18:
            return math.fsum(terms)
        if j > 100_000:
            raise ArithmeticError(f"0F1 series did not converge (b={b}, z={z})")


class SliceOracle:
    """Exact means over the slices of one problem (Q, w0, k)."""

    def __init__(self, q, w0, k: int):
        self.q = np.atleast_2d(np.asarray(q, dtype=float))
        self.w0 = np.asarray(w0, dtype=float).reshape(-1)
        self.k = int(k)
        self._geometry = {}

    @property
    def width(self) -> int:
        return max(self.q.shape[1], self.k)

    def geometry(self, n: int):
        """(x0, G_N, a^2, N - m) at truncation n."""
        if n not in self._geometry:
            m, s = self.q.shape
            q_n = np.zeros((m, max(n, self.k)))
            cols = min(n, s)
            q_n[:, :cols] = self.q[:, :cols]
            gram = q_n @ q_n.T
            center = q_n.T @ np.linalg.solve(gram, self.w0)
            lead = q_n[:, : self.k]
            g = np.eye(self.k) - lead.T @ np.linalg.solve(gram, lead)
            self._geometry[n] = (center[: self.k], g, n - float(center @ center), n - m)
        return self._geometry[n]

    def mean(self, spec: dict, n: int):
        """(slice mean at truncation n, bound on its own error), or None
        when there is no reference for the function."""
        kind, params = spec["kind"], spec.get("params", {})
        x0, g, a2, d = self.geometry(n)
        if kind in ("cos_linear", "sin_linear"):
            t = np.asarray(params["t"], dtype=float)
            damp = hyp0f1(0.5 * d, -0.25 * a2 * float(t @ g @ t))
            phase = float(t @ x0)
            return damp * (math.cos(phase) if kind == "cos_linear" else math.sin(phase)), 0.0
        if kind == "monomial":
            value = _second_moment(params["alpha"], x0, g * (a2 / d))
            return None if value is None else (value, 0.0)
        if kind == "indicator_ball":
            center, radius = np.asarray(params["center"], dtype=float), float(params["radius"])
            if self.k == 1:
                scale = math.sqrt(a2 * g[0, 0])
                lo = (center[0] - radius - x0[0]) / scale
                hi = (center[0] + radius - x0[0]) / scale
                return _coordinate_cdf(hi, d) - _coordinate_cdf(lo, d), 0.0
            coarse, fine = (_ball_probability(x0, g, a2, d, center, radius, nodes)
                            for nodes in BALL_NODES[self.k])
            return fine, abs(fine - coarse)
        if kind == "bounded_cutoff":
            inner = params["inner"]
            alpha = list(inner["params"]["alpha"])
            if inner["kind"] != "monomial" or sorted(alpha) != [0] * (len(alpha) - 1) + [2]:
                return None
            i = alpha.index(2)
            return _clipped_square(x0[i], math.sqrt(a2 * g[i, i]), d, float(params["cap"])), 0.0
        return None

    def limit(self, spec: dict):
        """Mean under the limiting Gaussian N(z0[:k], G_inf), or None."""
        kind, params = spec["kind"], spec.get("params", {})
        # Constraints are supported on the first s coordinates, so every
        # quantity is already at its limit at the stabilization width.
        x0, g, _, _ = self.geometry(self.width)
        if kind in ("cos_linear", "sin_linear"):
            t = np.asarray(params["t"], dtype=float)
            damp = math.exp(-0.5 * float(t @ g @ t))
            phase = float(t @ x0)
            return damp * (math.cos(phase) if kind == "cos_linear" else math.sin(phase))
        if kind == "monomial":
            return _second_moment(params["alpha"], x0, g)
        return None


def _second_moment(alpha, mean, cov):
    """E[prod x_i^alpha_i] for total degree <= 2 given mean and covariance."""
    active = [i for i, a in enumerate(alpha) for _ in range(int(a))]
    if len(active) == 0:
        return 1.0
    if len(active) == 1:
        return float(mean[active[0]])
    if len(active) == 2:
        i, j = active
        return float(mean[i] * mean[j] + cov[i, j])
    return None


def _coordinate_cdf(u: float, d: int) -> float:
    """P(U <= u) for a coordinate U of a uniform point of S^(d-1)."""
    u = min(1.0, max(-1.0, u))
    return 0.5 + math.copysign(0.5, u) * float(special.betainc(0.5, 0.5 * (d - 1), u * u))


def _clipped_square(mean: float, scale: float, d: int, cap: float) -> float:
    """E[min((mean + scale U)^2, cap)] for a coordinate U of S^(d-1).

    Inside the interval where the square stays below the cap it is
    mean^2 + 2 mean scale U + scale^2 U^2, and the pieces of E[1], E[U] and
    E[U^2] over an interval have closed forms (U^2 ~ Beta(1/2, nu) with
    nu = (d-1)/2, and E[U^2] = 1/d).
    """
    root = math.sqrt(cap)
    lo = max(-1.0, (-root - mean) / scale)
    hi = min(1.0, (root - mean) / scale)
    if hi <= lo:
        return cap
    nu = 0.5 * (d - 1)
    log_norm = special.betaln(0.5, nu) + math.log(2.0 * nu)

    def first(u):  # integral of t p(t) dt from -1 to u
        return 0.0 if abs(u) >= 1.0 else -math.exp(nu * math.log1p(-u * u) - log_norm)

    def second(u):  # integral of t^2 p(t) dt from -1 to u
        return (0.5 + math.copysign(0.5, u) * float(special.betainc(1.5, nu, u * u))) / d

    inside = _coordinate_cdf(hi, d) - _coordinate_cdf(lo, d)
    return float(cap * (1.0 - inside) + mean * mean * inside
            + 2.0 * mean * scale * (first(hi) - first(lo)) + scale * scale * (second(hi) - second(lo)))


def _ball_probability(x0, g, a2, d, center, radius, nodes: int) -> float:
    """P(|x - center| <= radius) for k = 2, 3 by a product rule over directions.

    Along the direction theta the condition is a quadratic in rho; between
    its roots (clipped to [0, 1]) the probability is a difference of the
    Beta(k/2, (d-k)/2) CDF at rho^2. k = 2 uses the midpoint rule in the
    angle (the integrand is periodic), k = 3 Gauss-Legendre in the polar
    cosine times the midpoint rule in the azimuth.
    """
    k = len(x0)
    if k == 2:
        phi = (np.arange(nodes) + 0.5) * (2.0 * math.pi / nodes)
        dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        weights = np.full(nodes, 1.0 / nodes)
    else:
        z, wz = np.polynomial.legendre.leggauss(nodes)
        phi = (np.arange(2 * nodes) + 0.5) * (math.pi / nodes)
        zz, pp = np.meshgrid(z, phi, indexing="ij")
        ring = np.sqrt(1.0 - zz * zz)
        dirs = np.stack([ring * np.cos(pp), ring * np.sin(pp), zz], axis=-1).reshape(-1, 3)
        weights = np.repeat(wz / (4.0 * nodes), 2 * nodes)
    v = dirs @ np.linalg.cholesky(g).T
    offset = center - x0
    quad = a2 * np.einsum("ij,ij->i", v, v)
    half = math.sqrt(a2) * (v @ offset)
    disc = half * half - quad * (offset @ offset - radius * radius)
    root = np.sqrt(np.maximum(disc, 0.0))
    lo = np.clip((half - root) / quad, 0.0, 1.0)
    hi = np.clip((half + root) / quad, 0.0, 1.0)
    cdf = special.betainc(0.5 * k, 0.5 * (d - k), hi * hi) - special.betainc(0.5 * k, 0.5 * (d - k), lo * lo)
    return float(weights @ np.where(disc > 0.0, cdf, 0.0))
