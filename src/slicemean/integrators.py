"""The three independent evaluators of slice means and limits.

* slice_mean_quadrature: deterministic disintegration quadrature in whitened
  radial coordinates (k <= 3). The radial Beta-kernel Gauss rule carries the
  entire weight; combined weights sum to 1, so the constant function
  integrates to 1 up to round-off by construction.
* slice_mean_mc: Monte Carlo directly on the slice sphere, sharded with
  counter-keyed streams and order-fixed reduction, so results are
  bit-identical for a given (seed, n_samples, shard_size) at any thread
  count.
* gaussian_limit: the limiting Gaussian expectation, by tensor
  Gauss-Hermite (k <= 3) or Monte Carlo with a divergence detector.
* counterexample_probe: truncated integrals of exp(x^2/2)/(1+x^2) against
  shifted unit Gaussians, exhibiting a finite centered limit and unbounded
  growth for any shift.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .affine_model import INF, ValidatedProblem
from .errors import InadmissibleFunction, NonFinite, UnsupportedDimension
from .projections import build_projection
from .rules import (
    beta_radial_rule,
    gauss_hermite_prob,
    gauss_legendre_panel,
    sphere_directions,
)
from .slice_geometry import SliceGeometry
from .testfns import TestFunction

#: Max elements drawn per RNG chunk inside a shard (memory bound only; the
#: chunking depends on fixed quantities, never on thread count).
_CHUNK_ELEMS = 1 << 22


@dataclass(frozen=True)
class QuadConfig:
    radial_nodes: int = 128
    angular_nodes: int | tuple = 64
    target_rel_err: float = 1e-9

    def __post_init__(self):
        counts = [self.radial_nodes]
        if isinstance(self.angular_nodes, (tuple, list)):
            counts += [int(a) for a in self.angular_nodes]
        else:
            counts.append(int(self.angular_nodes))
        if any(c < 8 for c in counts):
            raise ValueError("node counts must be >= 8")
        if not (0.0 < self.target_rel_err < 1e-2):
            raise ValueError("target_rel_err must lie in (0, 1e-2)")


@dataclass(frozen=True)
class McConfig:
    n_samples: int
    seed: int = 0
    shard_size: int = 1 << 16

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class GaussHermite:
    nodes: int = 64


@dataclass(frozen=True)
class IntegralResult:
    value: float
    err_estimate: float
    n_evals: int
    diverged: bool = False


def _halve_angular(angular_nodes):
    if isinstance(angular_nodes, (tuple, list)):
        return tuple(max(4, int(a) // 2) for a in angular_nodes)
    return max(4, int(angular_nodes) // 2)


def _quad_pass(geom: SliceGeometry, phi: TestFunction, n_radial, angular):
    u, lam = beta_radial_rule(geom.k, geom.exponent, n_radial)
    dirs, omega = sphere_directions(geom.k, angular)
    r = geom.a_z * np.sqrt(u)
    y = r[:, None, None] * dirs[None, :, :]
    x = geom.x0 + y @ geom.pd.chol.T
    vals = np.asarray(phi.eval(x), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NonFinite("integrand returned a non-finite value inside the slice")
    return float(lam @ vals @ omega), u.size * omega.size


def slice_mean_quadrature(
    geom: SliceGeometry, phi: TestFunction, cfg: QuadConfig = QuadConfig()
) -> IntegralResult:
    """Mean of phi over the slice by the radial disintegration rule.

    The weight's mass sits at radius O(1) while the slice radius grows like
    sqrt(N); the Beta-matched radial rule places its nodes accordingly, so
    node counts need not grow with N. The error estimate is the difference
    against a rule with half the nodes; if it misses target_rel_err the node
    counts are doubled (at most twice). Halving the doubled counts gives the
    previous rule back, so each refinement's coarse pass is the previous
    fine pass and is not evaluated again.
    """
    if geom.k > 3:
        raise UnsupportedDimension(
            f"deterministic rule supports k <= 3 (got k = {geom.k}); use Monte Carlo"
        )
    if geom.pd is None:
        raise ValueError("geometry was built without projection data")
    n_rad = int(cfg.radial_nodes)
    angular = cfg.angular_nodes
    coarse, total_evals = _quad_pass(geom, phi, max(4, n_rad // 2), _halve_angular(angular))
    for _ in range(3):
        value, n_evals = _quad_pass(geom, phi, n_rad, angular)
        total_evals += n_evals
        err = abs(value - coarse)
        if err <= cfg.target_rel_err * max(1.0, abs(value)):
            break
        coarse = value
        n_rad *= 2
        if not isinstance(angular, (tuple, list)):
            angular = int(angular) * 2
        else:
            angular = tuple(int(a) * 2 for a in angular)
    return IntegralResult(value=value, err_estimate=err, n_evals=total_evals)


def _shard_sizes(n_samples: int, shard_size: int):
    full, rem = divmod(n_samples, shard_size)
    return [shard_size] * full + ([rem] if rem else [])


def _shard_rng(seed: int, shard_index: int) -> Generator:
    # 128-bit Philox key = (seed, shard); streams are independent and
    # reproducible regardless of how shards are scheduled.
    return Generator(Philox(key=(int(seed) << 64) | shard_index))


def _sphere_shard(shard_index, size, seed, mat_top, a_z, x0, phi):
    rng = _shard_rng(seed, shard_index)
    dim = mat_top.shape[1]
    chunk = max(1, _CHUNK_ELEMS // dim)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < size:
        b = min(chunk, size - done)
        gmat = rng.standard_normal((b, dim))
        norms = np.sqrt(np.einsum("ij,ij->i", gmat, gmat))
        xk = x0 + (a_z / norms)[:, None] * (gmat @ mat_top.T)
        vals = np.asarray(phi.eval(xk), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NonFinite("integrand returned a non-finite value on the slice")
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += b
    return total, total_sq


def _reduce_moments(moments, n: int):
    # Shard partials are combined in shard order; the summation order is part
    # of the determinism contract.
    total = 0.0
    total_sq = 0.0
    for s, ss in moments:
        total += s
        total_sq += ss
    mean = total / n
    if n > 1:
        var = max(0.0, (total_sq / n - mean * mean)) * (n / (n - 1.0))
        stderr = math.sqrt(var / n)
    else:
        stderr = 0.0
    return mean, stderr


def slice_mean_mc(
    geom: SliceGeometry, phi: TestFunction, cfg: McConfig, threads: int = 1
) -> IntegralResult:
    """Mean of phi over the slice by uniform sampling of the slice sphere.

    Each sample draws a standard normal vector in the kernel coordinates,
    scales it to the slice radius, and maps it through the kernel basis;
    only the first k coordinates of the result feed the integrand. Works
    for any k.
    """
    if geom.pd is None:
        raise ValueError("geometry was built without projection data")
    mat_top = geom.pd.kernel_basis[: geom.k, :]
    sizes = _shard_sizes(cfg.n_samples, cfg.shard_size)
    args = [
        (i, size, cfg.seed, mat_top, geom.a_z, geom.x0, phi)
        for i, size in enumerate(sizes)
    ]
    if threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            moments = list(pool.map(lambda a: _sphere_shard(*a), args))
    else:
        moments = [_sphere_shard(*a) for a in args]
    mean, stderr = _reduce_moments(moments, cfg.n_samples)
    return IntegralResult(value=mean, err_estimate=stderr, n_evals=cfg.n_samples)


def _gauss_hermite_limit(mu, chol, phi, nodes: int):
    k = mu.size

    def tensor_value(n):
        x1, w1 = gauss_hermite_prob(n)
        grids = np.meshgrid(*([x1] * k), indexing="ij")
        pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
        wts = np.ones(pts.shape[0])
        for wg in np.meshgrid(*([w1] * k), indexing="ij"):
            wts = wts * wg.reshape(-1)
        x = mu + pts @ chol.T
        vals = np.asarray(phi.eval(x), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NonFinite("integrand returned a non-finite value")
        return float(wts @ vals), pts.shape[0]

    value, n1 = tensor_value(nodes)
    coarse, n2 = tensor_value(max(4, nodes // 2))
    return IntegralResult(value=value, err_estimate=abs(value - coarse), n_evals=n1 + n2)


def _gaussian_mc(mu, chol, phi, cfg: McConfig):
    """Gaussian-expectation Monte Carlo with a Cauchy stabilization check.

    The running estimate is compared each time the sample count doubles: a
    checkpoint strikes when the estimate has moved by more than 10 of the
    standard errors that were current when the doubling window opened, and
    two consecutive strikes declare divergence. (The expectation of a
    non-integrable integrand grows without bound as samples accumulate, so
    doublings keep shifting the estimate past its recorded uncertainty;
    comparing against the newest stderr instead would be blind here, since a
    heavy sample inflates the estimate and its stderr together.)
    """
    k = mu.size
    sizes = _shard_sizes(cfg.n_samples, cfg.shard_size)
    moments = []
    done = 0
    prev_est = None
    prev_stderr = None
    next_checkpoint = sizes[0]
    strikes = 0
    for i, size in enumerate(sizes):
        rng = _shard_rng(cfg.seed, i)
        gmat = rng.standard_normal((size, k))
        x = mu + gmat @ chol.T
        vals = np.asarray(phi.eval(x), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NonFinite("integrand returned a non-finite value")
        moments.append((float(vals.sum()), float((vals * vals).sum())))
        done += size
        if done >= next_checkpoint:
            est, stderr = _reduce_moments(moments, done)
            if prev_est is not None:
                if prev_stderr > 0.0 and abs(est - prev_est) > 10.0 * prev_stderr:
                    strikes += 1
                else:
                    strikes = 0
                if strikes >= 2:
                    return IntegralResult(
                        value=est, err_estimate=stderr, n_evals=done, diverged=True
                    )
            prev_est, prev_stderr = est, stderr
            next_checkpoint = 2 * done
    mean, stderr = _reduce_moments(moments, done)
    return IntegralResult(value=mean, err_estimate=stderr, n_evals=done)


def gaussian_limit(
    validated: ValidatedProblem,
    phi: TestFunction,
    method: GaussHermite | McConfig = GaussHermite(),
) -> IntegralResult:
    """Expectation of phi under the limiting Gaussian on R^k.

    The measure has mean z0 restricted to the first k coordinates and
    covariance the stabilized Gram matrix; sampling (or placing Hermite
    nodes) happens in whitened coordinates through its Cholesky factor.
    """
    pd = build_projection(validated, INF)
    mu = validated.z0_cyl
    if isinstance(method, GaussHermite):
        if validated.k > 3:
            raise UnsupportedDimension(
                "tensor Gauss-Hermite supports k <= 3; use Monte Carlo"
            )
        if not phi.gauss_hermite_ok:
            raise InadmissibleFunction(
                f"{phi.kind} grows too fast for Gauss-Hermite quadrature; "
                "use the Monte Carlo method"
            )
        return _gauss_hermite_limit(mu, pd.chol, phi, method.nodes)
    return _gaussian_mc(mu, pd.chol, phi, method)


def _graded_edges(r: float, nodes: int, z: float):
    # Geometric grading resolves the 1/(1+x^2) factor near the origin; the
    # panel width is capped so that |z| * width stays below the node count,
    # keeping the exp(z x) factor resolvable per panel.
    cap = nodes / max(abs(z), 1e-12)
    edges = [0.0]
    width = 1.0
    while edges[-1] < r:
        edges.append(min(r, edges[-1] + width))
        width = min(2.0 * width, cap)
    return edges


def _probe_pass(z: float, r: float, nodes: int) -> float:
    edges = _graded_edges(r, nodes, z)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        for sign in (1.0, -1.0):
            x, w = gauss_legendre_panel(lo, hi, nodes)
            vals = np.exp(z * (sign * x) - 0.5 * z * z) / (1.0 + x * x)
            total += float(w @ vals)
    return total / math.sqrt(2.0 * math.pi)


def counterexample_probe(z: float, r: float, nodes: int = 48) -> float:
    """Integral over [-r, r] of exp(x^2/2)/(1+x^2) against the unit-variance
    Gaussian density with mean z.

    The Gaussian factor cancels the exp(x^2/2) growth algebraically, leaving
    exp(z x - z^2/2)/(1 + x^2): evaluating that form avoids overflowing
    exp(x^2/2) at large |x|. For z = 0 the truncated integrals converge (to
    sqrt(pi/2)); for z != 0 they grow without bound in r. Large finite
    values are legitimate output. Composite Gauss-Legendre on graded panels,
    refined once if the half-node check misses relative 1e-8.
    """
    if r <= 0:
        raise ValueError("truncation radius must be positive")
    nodes = max(8, int(nodes))
    value = _probe_pass(z, r, nodes)
    check = _probe_pass(z, r, max(4, nodes // 2))
    if abs(value - check) > 1e-8 * max(1.0, abs(value)):
        value = _probe_pass(z, r, 2 * nodes)
    return value
