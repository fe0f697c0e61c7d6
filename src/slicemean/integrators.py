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
  growth for any nonzero shift up to PROBE_MAX_SHIFT.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random import Generator, Philox

from .affine_model import ValidatedProblem, _is_count, _is_int
from .errors import InadmissibleFunction, NonFinite, UnsupportedDimension
from .numlin import _matmul
from .rules import beta_radial_rule, gauss_hermite_prob, sphere_directions
from .slice_geometry import SliceGeometry
from .testfns import TestFunction

#: Max elements drawn per RNG chunk inside a shard (memory bound only; the
#: chunking depends on fixed quantities, never on thread count).
_CHUNK_ELEMS = 1 << 22

#: Rows of the block sample points and quadrature nodes are shifted by
#: (``_shift_rows``).
_SHIFT_ROWS = 256

#: Node counts of the first fine quadrature pass: radial nodes, and circle
#: points for k = 2 or the direction budget for k = 3 (see
#: ``sphere_directions``). Each axis is checked against a pass with its own
#: count halved, and an axis that misses doubles, up to its cap. An analytic
#: integrand (``TestFunction.analytic``) starts radially at 8 nodes: its Gauss
#: error falls geometrically, so 8 against 4 already bounds it. A kinked one
#: starts at 32, where a coarse pair can agree while both miss the kink.
_RADIAL_NODES = 32
_ANALYTIC_RADIAL_NODES = 8
_ANGULAR_NODES = 64
_RADIAL_CAP = 512
_ANGULAR_CAP = 256

#: Floats of placed nodes each geometry keeps (``_step_nodes``), 512 KB: all
#: three steps of an analytic k = 3 request that refines its directions
#: twice (12,216 floats), or a kinked k = 3 first step (12,672).
_STEP_FLOATS = 1 << 16

#: Guards the node sets' budget: threads may share a geometry.
_STEPS_LOCK = threading.Lock()

#: Largest array ``_require_finite`` tests by its sum of squares first. The
#: sum is one BLAS dot, a fixed cost below the element test's; above 10,000
#: entries OpenBLAS runs a dot on its own threads, which then spin and take
#: the cores from the draws of a threaded MC (a 2 x slower default
#: ``verify`` on 2 cores), while the saving there is a few percent.
_SUM_FIRST_MAX = 10_000

#: Largest |z| the counterexample probe takes. Up to it exp(z x - z^2/2) is
#: formed to about 1e-10 relative, and a pass needs at most about z^2/48
#: panels before its sum passes the float64 range.
PROBE_MAX_SHIFT = 1000.0


@dataclass(frozen=True)
class QuadConfig:
    """The relative error quadrature refines towards (see
    ``slice_mean_quadrature``)."""

    target_rel_err: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.target_rel_err < 1e-2):
            raise ValueError("target_rel_err must lie in (0, 1e-2)")


@dataclass(frozen=True)
class McConfig:
    n_samples: int
    seed: int = 0
    shard_size: int = 1 << 16

    def __post_init__(self):
        for name in ("n_samples", "shard_size"):
            count = getattr(self, name)
            if not _is_count(count):
                raise ValueError(f"{name} must be an integer in [1, 2**53], got {count!r}")
        if not (_is_int(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    err_estimate: float
    n_evals: int
    diverged: bool = False
    converged: bool = True


def _require_fit(phi: TestFunction, k: int):
    if not phi.fits(k):
        raise InadmissibleFunction(f"{phi} does not fit k = {k} (see TestFunction.fits)")


def _require_lp(phi: TestFunction):
    if not phi.in_lp_above_one:
        raise InadmissibleFunction(
            f"function {phi.kind!r} is declared {phi.lp_class} with respect to the limiting "
            "Gaussian; the limit theorem needs L^p for some p > 1, so it is refused")


def _place(geom: SliceGeometry, r, dirs, out):
    """Write the nodes x0 + r_i C d_j for the radii r and directions d into
    ``out``, a C-contiguous (r.size, directions, k) array, and return it.
    The nodes are built in place: the node set is several MB at refined
    counts, and each extra temporary of that size is a fresh mmap with its
    page faults. The shift by x0 goes through ``_shift_rows`` on the (points,
    k) view of ``out``, in place: a plain add of x0 doubles the cost of a
    step above _STEP_FLOATS, which is placed again on every request."""
    offsets = dirs @ geom.chol.T
    np.multiply(r[:, None, None], offsets, out=out)
    _shift_rows(out.reshape(-1, geom.k), geom.x0)
    return out


def _require_finite(vals, message):
    # up to _SUM_FIRST_MAX values (a quadrature step, mostly) the sum of
    # squares comes first: any NaN or inf makes it non-finite, so the element
    # test runs only then, and finite values whose squares overflow pass it.
    # np.vdot reports no floating-point warnings, where a sum would warn on
    # overflow and on inf - inf
    if vals.size <= _SUM_FIRST_MAX and math.isfinite(np.vdot(vals, vals)):
        return
    if not np.isfinite(vals).all():
        raise NonFinite(message)


def _step_nodes(geom: SliceGeometry, radial_counts, angular, angular_check):
    """The nodes of one quadrature step and the weights that reduce its
    values: (x, lams, omega, check_omega), check_omega None unless the step
    evaluates a k = 3 angular check. ``x`` is read-only and kept in the
    geometry's ``_steps``, by (radial_counts, angular, angular_check), while
    the steps kept there total at most _STEP_FLOATS floats; nodes are placed
    only for a step not kept. The radii are a_z sqrt(u), u the nodes of the
    ``beta_radial_rule`` of each count concatenated in order, and ``lams``
    the tuple of those rules' weights."""
    key = (radial_counts, angular, angular_check)
    step = geom._steps.get(key)
    if step is not None:
        return step
    nodes, lams = zip(*(beta_radial_rule(geom.k, geom.exponent, n) for n in radial_counts))
    r = geom.a_z * np.sqrt(nodes[0] if len(nodes) == 1 else np.concatenate(nodes))
    dirs, omega = sphere_directions(geom.k, angular)
    shape = (r.size, omega.size, geom.k)
    check_omega = None
    if angular_check and geom.k == 3:
        n = lams[0].size
        check_dirs, check_omega = sphere_directions(3, angular // 2)
        split = r.size * omega.size
        x = np.empty((split + n * check_omega.size, 3))
        _place(geom, r, dirs, x[:split].reshape(shape))
        _place(geom, r[:n], check_dirs, x[split:].reshape(n, check_omega.size, 3))
    else:
        x = _place(geom, r, dirs, np.empty(shape))
    x.flags.writeable = False
    step = (x, lams, omega, check_omega)
    steps = geom._steps
    with _STEPS_LOCK:
        if key not in steps and sum(s[0].size for s in steps.values()) + x.size <= _STEP_FLOATS:
            steps[key] = step
    return step


def _quad_step(geom: SliceGeometry, phi: TestFunction, radial_counts, angular,
               angular_check=False):
    """The passes (n, angular) for each n in ``radial_counts`` (a tuple),
    from one call of phi: they share their directions, so their nodes are
    one (sum of n, directions, k) array built from one ``dirs @ C^T``
    product. With ``angular_check`` (k >= 2) the pass (radial_counts[0],
    angular // 2) comes last: at k = 2 it is read from the first pass's
    values, because the half-count circle points are every other point; at
    k = 3 its nodes go into the same call, both blocks written into one flat
    (points, k) buffer, each built and shifted as a block of its own and
    each pass reduced from its own reshaped block. The nodes come from
    ``_step_nodes``, so a step repeated on one geometry (another function
    on a shared slice) places none: phi gets the kept read-only array.
    Returns the pass values in order and the number of points evaluated."""
    x, lams, omega, check_omega = _step_nodes(geom, radial_counts, angular, angular_check)
    vals = np.asarray(phi.eval(x), dtype=float)
    _require_finite(vals, "integrand returned a non-finite value inside the slice")
    n = lams[0].size
    if check_omega is None:
        fine = vals
    else:
        split = vals.size - n * check_omega.size
        fine = vals[:split].reshape(-1, omega.size)
    values = []
    start = 0
    for lam in lams:
        values.append(float(lam @ fine[start:start + lam.size] @ omega))
        start += lam.size
    if check_omega is not None:
        values.append(float(lams[0] @ vals[split:].reshape(n, -1) @ check_omega))
    elif angular_check:
        _, check_omega = sphere_directions(2, angular // 2)
        # contiguous, so the products run on the bytes a pass of its own has
        values.append(float(lams[0] @ np.ascontiguousarray(vals[:n, ::2]) @ check_omega))
    return values, vals.size


def _quad_pass(geom: SliceGeometry, phi: TestFunction, n_radial, angular):
    """One pass: the (n_radial, angular) rule's value and evaluation count."""
    (value,), n_evals = _quad_step(geom, phi, (n_radial,), angular)
    return value, n_evals


def slice_mean_quadrature(
    geom: SliceGeometry, phi: TestFunction, cfg: QuadConfig = QuadConfig()
) -> IntegralResult:
    """Mean of phi over the slice by the radial disintegration rule.

    The weight's mass sits at radius O(1) while the slice radius grows like
    sqrt(N); the Beta-matched radial rule places its nodes accordingly, so
    node counts need not grow with N. The first fine pass takes 64
    directions and 32 radial nodes, or 8 for an analytic integrand, whose
    Gauss error falls geometrically. The error is estimated per axis: the
    radial estimate is the difference against the pass with half the radial
    nodes, the angular one against half the angular count (k = 1 has none:
    its two half-lines do not depend on the count). err_estimate is their
    sum. While it misses target_rel_err, one axis doubles, the larger
    estimate first, up to 512 radial nodes and 256 directions: an axis whose
    own estimate is above half the target, or whose partner's estimate alone
    is within the target. That axis's new check is the previous fine pass,
    and the other axis keeps its estimate. A result that stops with every
    eligible axis at its cap has converged False.

    Each step evaluates each distinct node once, with one call of phi. The
    first fine pass and its checks are one step: the radial check shares
    the fine directions; at k = 2 the angular check is read from the fine
    values, because the half-count circle points are every other fine
    point; at k = 3 (whose Gauss-Legendre sets are not nested) its nodes
    are evaluated in the same call. n_evals counts the evaluations made, so
    a k = 2 result counts no angular check. A step's radii come from the
    memoized ``rules.beta_radial_rule``, and its nodes are placed once per
    geometry while they fit the geometry's budget (``_step_nodes``), so a
    request on a shared slice places only the steps no earlier request kept
    there.
    """
    _require_fit(phi, geom.k)
    if geom.k > 3:
        raise UnsupportedDimension(
            f"deterministic rule supports k <= 3 (got k = {geom.k}); the library's "
            "slice_mean_mc has no k limit, and `slicemean limit` gives the Gaussian limit"
        )
    counts = [_ANALYTIC_RADIAL_NODES if phi.analytic else _RADIAL_NODES, _ANGULAR_NODES]
    n_radial = counts[0]
    if geom.k == 1:
        (value, radial_check), total_evals = _quad_step(
            geom, phi, (n_radial, n_radial // 2), _ANGULAR_NODES)
        errs = [abs(value - radial_check), 0.0]
        axes = (0,)
    else:
        (value, radial_check, angular_check), total_evals = _quad_step(
            geom, phi, (n_radial, n_radial // 2), _ANGULAR_NODES, angular_check=True)
        errs = [abs(value - radial_check), abs(value - angular_check)]
        axes = (0, 1)
    caps = (_RADIAL_CAP, _ANGULAR_CAP)
    while True:
        tol = cfg.target_rel_err * max(1.0, abs(value))
        converged = errs[0] + errs[1] <= tol
        if converged:
            break
        # an axis refines while its own estimate is above half the target, or
        # while the other axis's estimate alone is within it (so a sum that
        # misses with one axis at its cap does not strand the other)
        missing = [axis for axis in axes if counts[axis] < caps[axis]
                   and (errs[axis] > 0.5 * tol or errs[1 - axis] <= tol)]
        if not missing:
            break
        axis = max(missing, key=errs.__getitem__)
        counts[axis] *= 2
        coarse = value
        value, n_evals = _quad_pass(geom, phi, *counts)
        total_evals += n_evals
        errs[axis] = abs(value - coarse)
    return IntegralResult(value=value, err_estimate=errs[0] + errs[1], n_evals=total_evals,
                          converged=converged)


def _ordered_map(fn, items, threads: int) -> list:
    """[fn(item) for item in items], run on a pool of ``threads`` workers when
    there is more than one item; the results are in item order either way."""
    items = list(items)
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


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
    The values are squared in place once their plain sum is taken, so a
    chunk holds one array of values.
    """
    rng = _shard_rng(seed, shard_index)
    chunk = max(1, _CHUNK_ELEMS // (k + 1))
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < size:
        b = min(chunk, size - done)
        vals = np.asarray(phi.eval(draw(rng, b)), dtype=float)
        _require_finite(vals, "integrand returned a non-finite value at a sample")
        total += float(vals.sum())
        vals *= vals
        total_sq += float(vals.sum())
        done += b
        # free this chunk before the next draw: the peak stays one chunk's
        del vals
    return total, total_sq


def _shift_rows(x, mu):
    """x += mu for a C-contiguous (b, k) array x, in place, with the same
    bytes. numpy adds a k-entry vector to every row in an inner loop of k;
    at k >= 2 and more than _SHIFT_ROWS rows, the rows are shifted by a
    (_SHIFT_ROWS, k) block of copies of mu, one loop over the block's
    entries per block, and the last b mod _SHIFT_ROWS rows by the block's
    leading rows."""
    b, k = x.shape
    if k == 1 or b <= _SHIFT_ROWS:
        x += mu
        return x
    block = np.empty((_SHIFT_ROWS, k))
    block[...] = mu
    full = b - b % _SHIFT_ROWS
    body = x[:full].reshape(-1, _SHIFT_ROWS, k)
    body += block
    x[full:] += block[:b - full]
    return x


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
    draw at any N. Works for any k. A chunk's points are built in place in
    the (b, k) array of z C^T, with one array of b for the scale; the RNG
    calls, and so the streams, are those of the plain formula. At k = 1,
    |z|^2 is a square and z C^T a broadcast multiply (``numlin._matmul``),
    with the bytes of the einsum and the matmul they stand for.
    """
    k = geom.k
    _require_fit(phi, k)
    df = geom.n - geom.m - k

    def draw(rng, b):
        z = rng.standard_normal((b, k))
        scale = rng.chisquare(df, b)
        scale += np.einsum("ij,ij->i", z, z) if k > 1 else np.square(z[:, 0])
        np.sqrt(scale, out=scale)
        np.divide(geom.a_z, scale, out=scale)
        x = _matmul(z, geom.chol.T)
        x *= scale[:, None]
        return _shift_rows(x, geom.x0)

    sizes = _shard_sizes(cfg.n_samples, cfg.shard_size)
    moments = _ordered_map(
        lambda i: _mc_shard(cfg.seed, i, sizes[i], k, draw, phi), range(len(sizes)), threads
    )
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
        _require_finite(vals, "integrand returned a non-finite value")
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

    A chunk is one (b, k) array of standard normals times C^T plus the
    mean; at k = 1 the product is a broadcast multiply (``numlin._matmul``)
    with the matmul's bytes.
    """
    k = mu.size

    def draw(rng, b):
        return _shift_rows(_matmul(rng.standard_normal((b, k)), chol.T), mu)

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
    axis (k <= 3, and only inside L^p for p > 1), its error estimate the
    difference against 32 nodes; otherwise it is Monte Carlo with the
    divergence detector.
    """
    _require_fit(phi, validated.k)
    mu = validated.z0_cyl
    if mc is not None:
        return _gaussian_mc(mu, validated.chol, phi, mc)
    if validated.k > 3:
        raise UnsupportedDimension("tensor Gauss-Hermite supports k <= 3; use Monte Carlo")
    _require_lp(phi)
    return _gauss_hermite_limit(mu, validated.chol, phi)


def _graded_panels(r: float, nodes: int, z: float):
    # Geometric grading resolves the 1/(1+x^2) factor near the origin; for
    # z != 0 the panel width is capped so that |z| * width stays below the
    # node count, keeping the exp(z x) factor resolvable per panel. At z = 0
    # the widths keep doubling, so a huge r takes only about log2(r) panels.
    # Panels are made as the sum asks for them: a pass that overflows stops
    # making them.
    cap = nodes / abs(z) if z else math.inf
    lo, width = 0.0, 1.0
    while lo < r:
        hi = min(r, lo + width)
        yield lo, hi
        lo, width = hi, min(2.0 * width, cap)


def _probe_pass(z: float, r: float, nodes: int) -> float:
    # one Gauss-Legendre rule per pass, shifted to [0, 2] and scaled onto
    # each panel
    offsets, unit_w = leggauss(nodes)
    offsets += 1.0
    total = 0.0
    # one exponential per node: exp(z x - z^2/2) alone overflows near
    # z x ~ 710 while the quotient by 1 + x^2 is still representable
    with np.errstate(over="ignore"):
        for lo, hi in _graded_panels(r, nodes, z):
            half = 0.5 * (hi - lo)
            x, w = lo + half * offsets, half * unit_w
            for sign in (1.0, -1.0):
                vals = np.exp(z * (sign * x) - 0.5 * z * z - np.log1p(x * x))
                total += float(w @ vals)
            # a partial sum never comes back from infinity: stop at the first
            if not math.isfinite(total):
                raise NonFinite(
                    f"truncated integral at z = {z:g}, R = {r:g} exceeds the float64 range"
                )
    return total / math.sqrt(2.0 * math.pi)


def counterexample_probe(z: float, r: float) -> float:
    """Integral over [-r, r] of exp(x^2/2)/(1+x^2) against the unit-variance
    Gaussian density with mean z.

    The Gaussian factor cancels the exp(x^2/2) growth algebraically, leaving
    exp(z x - z^2/2)/(1 + x^2): evaluating that form avoids overflowing
    exp(x^2/2) at large |x|. For z = 0 the truncated integrals converge (to
    sqrt(pi/2)); for z != 0 they grow without bound in r. Large finite
    values are legitimate output; a value beyond the float64 range raises
    NonFinite. Composite Gauss-Legendre on graded panels of 48 nodes,
    refined once if the half-node check misses relative 1e-8. The shift is
    bounded, |z| <= PROBE_MAX_SHIFT, so every finite R > 0 returns or raises
    within a bounded number of panels.
    """
    if not (abs(z) <= PROBE_MAX_SHIFT and 0 < r < math.inf):
        raise ValueError(
            f"need |z| <= {PROBE_MAX_SHIFT:g} and a finite R > 0, got z = {z!r}, R = {r!r}")
    nodes = 48
    value = _probe_pass(z, r, nodes)
    check = _probe_pass(z, r, nodes // 2)
    if abs(value - check) > 1e-8 * max(1.0, abs(value)):
        value = _probe_pass(z, r, 2 * nodes)
    return value
