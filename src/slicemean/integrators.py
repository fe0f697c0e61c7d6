"""The three independent evaluators of slice means and limits.

* slice_mean_quadrature: deterministic disintegration quadrature in whitened
  radial coordinates (k <= 3). The radial Beta-kernel Gauss rule carries the
  entire weight; combined weights sum to 1, so the constant function
  integrates to 1 up to round-off by construction.
* slice_mean_mc: Monte Carlo of uniform points on the slice sphere, drawn
  in the same whitened coordinates (k normals and one chi-square per
  sample, whatever N is), sharded with counter-keyed streams and
  order-fixed reduction, so results are bit-identical for a given
  (seed, n_samples, shard_size) at any thread count.
* gaussian_limit: the limiting Gaussian expectation, by tensor
  Gauss-Hermite with 64 nodes per axis (k <= 3) or Monte Carlo with a
  divergence detector.
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

from .affine_model import ValidatedProblem
from .errors import InadmissibleFunction, NonFinite, UnsupportedDimension
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
    """Node counts of the finest first pass and the refinement target.

    ``angular_nodes`` is the number of circle points for k = 2 and the
    direction budget for k = 3 (see ``sphere_directions``).
    """

    radial_nodes: int = 128
    angular_nodes: int = 64
    target_rel_err: float = 1e-9

    def __post_init__(self):
        if min(int(self.radial_nodes), int(self.angular_nodes)) < 8:
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
class IntegralResult:
    value: float
    err_estimate: float
    n_evals: int
    diverged: bool = False


def _quad_pass(geom: SliceGeometry, phi: TestFunction, n_radial, angular):
    u, lam = beta_radial_rule(geom.k, geom.exponent, n_radial)
    dirs, omega = sphere_directions(geom.k, angular)
    r = geom.a_z * np.sqrt(u)
    # one (radial, direction, k) array, shifted in place: the node set is
    # several MB at refined counts, and each extra temporary of that size
    # is a fresh mmap with its page faults on every pass
    x = r[:, None, None] * (dirs @ geom.chol.T)
    x += geom.x0
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
    n_rad, n_ang = int(cfg.radial_nodes), int(cfg.angular_nodes)
    coarse, total_evals = _quad_pass(geom, phi, max(4, n_rad // 2), max(4, n_ang // 2))
    for _ in range(3):
        value, n_evals = _quad_pass(geom, phi, n_rad, n_ang)
        total_evals += n_evals
        err = abs(value - coarse)
        if err <= cfg.target_rel_err * max(1.0, abs(value)):
            break
        coarse = value
        n_rad *= 2
        n_ang *= 2
    return IntegralResult(value=value, err_estimate=err, n_evals=total_evals)


def _shard_sizes(n_samples: int, shard_size: int):
    full, rem = divmod(n_samples, shard_size)
    return [shard_size] * full + ([rem] if rem else [])


def _shard_rng(seed: int, shard_index: int) -> Generator:
    # 128-bit Philox key = (seed, shard); streams are independent and
    # reproducible regardless of how shards are scheduled.
    return Generator(Philox(key=(int(seed) << 64) | shard_index))


def _mc_shard(seed, shard_index, size, k, draw, phi):
    """Sum and sum of squares of phi over one shard of ``size`` samples.

    ``draw(rng, b)`` returns b sample points of shape (b, k), taking at most
    k + 1 numbers per sample from rng; the shard is drawn in chunks of at
    most _CHUNK_ELEMS numbers, so its memory does not grow with its size.
    """
    rng = _shard_rng(seed, shard_index)
    chunk = max(1, _CHUNK_ELEMS // (k + 1))
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < size:
        b = min(chunk, size - done)
        vals = np.asarray(phi.eval(draw(rng, b)), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NonFinite("integrand returned a non-finite value at a sample")
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += b
        # free this chunk before the next draw: the peak stays one chunk's
        del vals
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

    A uniform point on the slice is z0_N + a g/|g| with g standard normal
    in an orthonormal kernel basis (dimension N - m). Its first k
    coordinates are x0 + C a z / sqrt(|z|^2 + chi2), where z = C^-1 M g is
    standard normal in R^k (M the first k rows of the basis, M M^T = C C^T)
    and chi2 = |g|^2 - |z|^2 is an independent chi-square with N - m - k
    degrees of freedom. So each sample costs k normals and one chi-square
    draw at any N. Works for any k.
    """
    k = geom.k
    df = geom.n - geom.m - k

    def draw(rng, b):
        z = rng.standard_normal((b, k))
        norms = np.sqrt(np.einsum("ij,ij->i", z, z) + rng.chisquare(df, b))
        return geom.x0 + (geom.a_z / norms)[:, None] * (z @ geom.chol.T)

    sizes = _shard_sizes(cfg.n_samples, cfg.shard_size)
    args = [(cfg.seed, i, size, k, draw, phi) for i, size in enumerate(sizes)]
    if threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            moments = list(pool.map(lambda a: _mc_shard(*a), args))
    else:
        moments = [_mc_shard(*a) for a in args]
    mean, stderr = _reduce_moments(moments, cfg.n_samples)
    return IntegralResult(value=mean, err_estimate=stderr, n_evals=cfg.n_samples)


def _gauss_hermite_limit(mu, chol, phi):
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

    value, n1 = tensor_value(64)
    coarse, n2 = tensor_value(32)
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

    def draw(rng, b):
        return mu + rng.standard_normal((b, k)) @ chol.T

    sizes = _shard_sizes(cfg.n_samples, cfg.shard_size)
    moments = []
    done = 0
    prev_est = None
    prev_stderr = None
    next_checkpoint = sizes[0]
    strikes = 0
    for i, size in enumerate(sizes):
        moments.append(_mc_shard(cfg.seed, i, size, k, draw, phi))
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
    validated: ValidatedProblem, phi: TestFunction, mc: McConfig | None = None
) -> IntegralResult:
    """Expectation of phi under the limiting Gaussian on R^k.

    The measure has mean z0 restricted to the first k coordinates and
    covariance the stabilized Gram matrix; sampling (or placing Hermite
    nodes) happens in whitened coordinates through its Cholesky factor.
    With ``mc`` None the value is tensor Gauss-Hermite with 64 nodes per
    axis (k <= 3), its error estimate the difference against 32 nodes;
    otherwise it is Monte Carlo with the divergence detector.
    """
    mu = validated.z0_cyl
    if mc is not None:
        return _gaussian_mc(mu, validated.chol, phi, mc)
    if validated.k > 3:
        raise UnsupportedDimension("tensor Gauss-Hermite supports k <= 3; use Monte Carlo")
    if not phi.gauss_hermite_ok:
        raise InadmissibleFunction(
            f"{phi.kind} grows too fast for Gauss-Hermite quadrature; "
            "use the Monte Carlo method"
        )
    return _gauss_hermite_limit(mu, validated.chol, phi)


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
    # one exponential per node: exp(z x - z^2/2) alone overflows near
    # z x ~ 710 while the quotient by 1 + x^2 is still representable
    with np.errstate(over="ignore"):
        for lo, hi in zip(edges[:-1], edges[1:]):
            for sign in (1.0, -1.0):
                x, w = gauss_legendre_panel(lo, hi, nodes)
                vals = np.exp(z * (sign * x) - 0.5 * z * z - np.log1p(x * x))
                total += float(w @ vals)
    value = total / math.sqrt(2.0 * math.pi)
    if not math.isfinite(value):
        raise NonFinite(
            f"truncated integral at z = {z:g}, R = {r:g} exceeds the float64 range"
        )
    return value


def counterexample_probe(z: float, r: float, nodes: int = 48) -> float:
    """Integral over [-r, r] of exp(x^2/2)/(1+x^2) against the unit-variance
    Gaussian density with mean z.

    The Gaussian factor cancels the exp(x^2/2) growth algebraically, leaving
    exp(z x - z^2/2)/(1 + x^2): evaluating that form avoids overflowing
    exp(x^2/2) at large |x|. For z = 0 the truncated integrals converge (to
    sqrt(pi/2)); for z != 0 they grow without bound in r. Large finite
    values are legitimate output; a value beyond the float64 range raises
    NonFinite. Composite Gauss-Legendre on graded panels, refined once if
    the half-node check misses relative 1e-8.
    """
    if r <= 0:
        raise ValueError("truncation radius must be positive")
    nodes = max(8, int(nodes))
    value = _probe_pass(z, r, nodes)
    check = _probe_pass(z, r, max(4, nodes // 2))
    if abs(value - check) > 1e-8 * max(1.0, abs(value)):
        value = _probe_pass(z, r, 2 * nodes)
    return value
