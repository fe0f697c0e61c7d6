import hashlib
import inspect
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_jacobi

from slicemean import (
    AffineProblem,
    CosLinear,
    QuadConfig,
    build_slice,
    rules,
    slice_mean_quadrature,
    validate,
)
from slicemean.rules import beta_radial_rule, gauss_hermite_prob, sphere_directions

MEMOS = (rules._beta_radial_rule, rules._sphere_directions, rules._step_radii)


def beta_moment(k, exponent, p):
    """E[u^p] for u ~ Beta(k/2, exponent + 1), as the exact product
    prod_{i<p} (a+i)/(a+b+i) (independent of the canonical-moment recurrence
    the rule is built from, and free of the cancellation of log-Beta
    differences at large exponents)."""
    a, b = k / 2.0, exponent + 1.0
    return math.prod((a + i) / (a + b + i) for i in range(p))


def _jacobi_matrix(k, exponent, n):
    """Diagonal and squared off-diagonal of the Beta(k/2, exponent + 1)
    Jacobi matrix at the working mpmath precision, from the textbook monic
    Jacobi recurrence for (1-x)^exponent (1+x)^(k/2-1) on [-1, 1] mapped to
    u = (1 + x) / 2; independent of the canonical moments the rule is built
    from."""
    a, b = mpmath.mpf(exponent), mpmath.mpf(k) / 2 - 1
    diag = [(1 + (b - a) / (a + b + 2)) / 2]
    off2 = []
    for j in range(1, n):
        s = 2 * j + a + b
        diag.append((1 + (b * b - a * a) / (s * (s + 2))) / 2)
        off2.append(j * (j + a) * (j + b) * (j + a + b) / (s * s * (s + 1) * (s - 1)))
    return diag, off2


def _eigenvalues_below(diag, off2, x):
    # Sturm count: the negative pivots of the LDL^T factorization of J - x I
    d = diag[0] - x
    count = int(d < 0)
    for i in range(1, len(diag)):
        d = diag[i] - x - off2[i - 1] / d
        count += d < 0
    return count


class TestBetaRadialRule:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("exponent", [0.0, 0.5, 6.0, 48.0, 2046.5])
    def test_moments(self, k, exponent):
        u, w = beta_radial_rule(k, exponent, 48)
        assert_allclose(w.sum(), 1.0, rtol=1e-13)
        assert np.all((u > 0) & (u < 1))
        for p in range(1, 6):
            assert_allclose((w * u**p).sum(), beta_moment(k, exponent, p), rtol=1e-12)

    def test_matches_scipy_at_moderate_exponent(self):
        # same rule scipy produces, up to the normalization of the weights
        k, exponent, n = 1, 12.5, 24
        u, w = beta_radial_rule(k, exponent, n)
        x_ref, w_ref = roots_jacobi(n, exponent, k / 2.0 - 1.0)
        assert_allclose(u, 0.5 * (1.0 + x_ref), atol=1e-13)
        assert_allclose(w, w_ref / w_ref.sum(), rtol=1e-12)

    def test_tail_weights_match_scipy_at_large_exponent(self):
        # the smallest weights here are near 1e-41; each must be accurate in
        # relative terms, not just to round-off of the largest weight
        k, exponent, n = 2, 48.0, 48
        _, w = beta_radial_rule(k, exponent, n)
        _, w_ref = roots_jacobi(n, exponent, k / 2.0 - 1.0)
        assert_allclose(w, w_ref / w_ref.sum(), rtol=1e-10)

    @pytest.mark.parametrize("k, exponent, n", [
        (1, 0.5, 512), (1, 510.0, 512), (2, 2.0**52, 128), (3, 30.5, 256)])
    def test_nodes_match_high_precision_bisection(self, k, exponent, n):
        # nodes near u = 0 are accurate in relative terms: the smallest,
        # middle and largest node each to 5e-14 of a 60-digit bisection,
        # bracketed at 1e-9 relative around the node and checked by the
        # Sturm counts at both ends
        u, _ = beta_radial_rule(k, exponent, n)
        with mpmath.workdps(60):
            diag, off2 = _jacobi_matrix(k, exponent, n)
            for i in (0, n // 2, n - 1):
                node = mpmath.mpf(u[i])
                lo, hi = node * (1 - mpmath.mpf(1e-9)), node * (1 + mpmath.mpf(1e-9))
                assert _eigenvalues_below(diag, off2, lo) == i
                assert _eigenvalues_below(diag, off2, hi) == i + 1
                while hi - lo > 1e-17 * lo:
                    mid = (lo + hi) / 2
                    if _eigenvalues_below(diag, off2, mid) > i:
                        hi = mid
                    else:
                        lo = mid
                assert abs(node - (lo + hi) / 2) <= 5e-14 * lo

    @pytest.mark.parametrize("n", [8, 32])
    def test_chebyshev_nodes_in_closed_form(self, n):
        # Beta(3/2, 3/2) is the Chebyshev weight of the second kind, whose
        # Gauss nodes are sin^2(i pi / (2n + 2)); one of them, 0.25, is also an
        # eigenvalue of a leading block of the Jacobi matrix, so its Newton
        # step meets a zero pivot and the node must stay as eigvalsh gave it
        u, _ = beta_radial_rule(3, 0.5, n)
        ref = np.sin(np.arange(1, n + 1) * np.pi / (2 * n + 2)) ** 2
        assert_allclose(u, ref, rtol=2e-15)

    def test_huge_exponent_stays_finite(self):
        # library Jacobi weights overflow here; the normalized rule must not
        u, w = beta_radial_rule(1, 0.5 * (4096 - 4), 128)
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(u))
        assert_allclose((w * u).sum(), beta_moment(1, 0.5 * (4096 - 4), 1), rtol=1e-12)

    @pytest.mark.parametrize("k", [1, 3])
    def test_refined_rule_at_sweep_exponent_stays_finite(self, k):
        # quadrature refinement reaches 512 nodes; sweeps reach N = 8192
        exponent = 0.5 * (8192 - 4)
        u, w = beta_radial_rule(k, exponent, 512)
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(u))
        assert_allclose(w.sum(), 1.0, rtol=1e-13)
        assert_allclose((w * u).sum(), beta_moment(k, exponent, 1), rtol=1e-12)

    @pytest.mark.parametrize("k, exponent, n, digest", [
        (1, 0.5, 512, "f065e4b2d2336a6fb1b3d71de1ec7b31d3eca91964136a998806b08b187a337d"),
        (1, 510.0, 256, "bb1f4f1243336aa870f944a6c4e4b7e87052fbc137af77570c1684b8a53727e7"),
        (2, 2.0**52, 512, "88839ae814374231752d90a281e36cbbb2d228dbaf07ca043d87ff283c83657b"),
        (3, 30.5, 256, "36920a50e57aa521d97dd93dd9c6687444d33647837ab12413417717d6687dd9"),
        (3, 1e6, 64, "b6990105f4298ba0720bdae7dfb3c534eb9b95dff33bf81158c43c22241d7427"),
        (1, 3.0, 8, "b52a69c787002406f5c325df3528c854c11ea456d6c823713f830a669ccfce8a"),
    ], ids=["k1-0.5-512", "k1-510-256", "k2-2^52-512", "k3-30.5-256", "k3-1e6-64", "k1-3-8"])
    def test_rule_bits_are_pinned(self, k, exponent, n, digest):
        # how the rule is built may change; its bits may not
        u, w = beta_radial_rule(k, exponent, n)
        assert hashlib.sha256(u.tobytes() + w.tobytes()).hexdigest() == digest

    def test_single_node(self):
        u, w = beta_radial_rule(2, 3.0, 1)
        assert_allclose(w, [1.0])
        assert_allclose(u, beta_moment(2, 3.0, 1), rtol=1e-13)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            beta_radial_rule(1, -1.5, 8)
        with pytest.raises(ValueError):
            beta_radial_rule(1, 1.0, 0)


class TestBuildMemory:
    """Traced numpy memory of a cold 512-node build, on keys no other test
    builds, so the memo cannot hide the build."""

    def test_weights_work_in_arrays_of_n(self, monkeypatch):
        # an (n - 1) x n recurrence matrix and an n x n table of its rows
        # took 4.1 MB here
        inner, peaks = rules._christoffel_weights, []

        def traced(*args):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            w = inner(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return w

        monkeypatch.setattr(rules, "_christoffel_weights", traced)
        tracemalloc.start()
        try:
            beta_radial_rule(1, 4321.25, 512)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1 and peaks[0] <= 0.25e6

    def test_build_holds_one_n_by_n_matrix(self):
        # the Jacobi matrix is 2.1 MB at 512 nodes; a sum of np.diag
        # matrices and the weights' tables took the peak to 4.15 MB
        tracemalloc.start()
        try:
            beta_radial_rule(2, 333.25, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6


class TestSphereDirections:
    def test_k1(self):
        pts, w = sphere_directions(1, None)
        assert_allclose(np.sort(pts[:, 0]), [-1.0, 1.0])
        assert_allclose(w, [0.5, 0.5])

    def test_k2_unit_and_balanced(self):
        pts, w = sphere_directions(2, 16)
        assert_allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=1e-14)
        assert_allclose(w.sum(), 1.0, rtol=1e-14)
        # exactness on low-degree spherical harmonics: mean of coordinates
        # and of products vanishes
        assert_allclose(w @ pts, 0.0, atol=1e-15)
        assert_allclose(w @ (pts[:, 0] * pts[:, 1]), 0.0, atol=1e-16)
        assert_allclose(w @ pts[:, 0] ** 2, 0.5, rtol=1e-13)

    def test_k2_half_count_points_are_every_other_point(self):
        # quadrature reads its k = 2 angular check from the fine pass's
        # values at every other direction; that check is the half-count rule
        # only while these are the same points, byte for byte
        for n in range(8, 513, 2):
            half = sphere_directions(2, n // 2)[0]
            assert np.ascontiguousarray(sphere_directions(2, n)[0][::2]).tobytes() == half.tobytes()

    @pytest.mark.parametrize("budget", [36, 64, 100])
    def test_k3_moments(self, budget):
        pts, w = sphere_directions(3, budget)
        # a budget b gives round(sqrt(b))^2 directions
        assert len(w) == budget
        assert_allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=1e-13)
        assert_allclose(w.sum(), 1.0, rtol=1e-13)
        assert_allclose(w @ pts, 0.0, atol=1e-15)
        for i in range(3):
            assert_allclose(w @ pts[:, i] ** 2, 1.0 / 3.0, rtol=1e-12)
        assert_allclose(w @ pts[:, 0] ** 4, 0.2, rtol=1e-12)

    def test_unsupported_k(self):
        with pytest.raises(ValueError):
            sphere_directions(4, 8)


class TestGaussRules:
    def test_hermite_prob_moments(self):
        x, w = gauss_hermite_prob(32)
        assert_allclose(w.sum(), 1.0, rtol=1e-14)
        assert_allclose((w * x**2).sum(), 1.0, rtol=1e-12)
        assert_allclose((w * x**4).sum(), 3.0, rtol=1e-12)
        # characteristic function of the standard normal at t = 1
        assert_allclose((w * np.cos(x)).sum(), np.exp(-0.5), rtol=1e-12)


class TestMemo:
    RULES = {
        "beta_radial_rule": lambda: beta_radial_rule(2, 7.5, 64),
        "sphere_directions_k1": lambda: sphere_directions(1, 32),
        "sphere_directions_k2": lambda: sphere_directions(2, 64),
        "sphere_directions_k3": lambda: sphere_directions(3, 64),
    }

    @pytest.mark.parametrize("rule", list(RULES))
    def test_arrays_are_read_only(self, rule):
        for a in self.RULES[rule]():
            with pytest.raises(ValueError):
                a[0] = 0.5

    @pytest.mark.parametrize("rule", list(RULES))
    def test_repeat_call_returns_same_arrays(self, rule):
        first, again = self.RULES[rule](), self.RULES[rule]()
        assert all(a is b for a, b in zip(first, again, strict=True))

    def test_exponent_type_shares_one_entry(self):
        rules._beta_radial_rule.cache_clear()
        u, w = beta_radial_rule(1, 15, 64)
        u2, w2 = beta_radial_rule(1, np.float64(15.0), 64)
        assert u2 is u and w2 is w
        info = rules._beta_radial_rule.cache_info()
        assert (info.currsize, info.hits, info.misses) == (1, 1, 1)

    @pytest.mark.parametrize("counts", [(8,), (8, 4), (32, 16), (512,)])
    def test_step_radii_are_the_rules_read_only_roots(self, counts):
        root, weights = rules.step_radii(2, 333.25, counts)
        built = [beta_radial_rule(2, 333.25, n) for n in counts]
        assert root.tobytes() == np.sqrt(np.concatenate([u for u, _ in built])).tobytes()
        assert all(w is b for w, (_, b) in zip(weights, built, strict=True))
        assert rules.step_radii(2, 333.25, counts)[0] is root
        for a in (root, *weights):
            with pytest.raises(ValueError):
                a[0] = 0.5

    def test_step_radii_stay_within_cap(self):
        try:
            for i in range(2 * rules._STEP_RADII):
                rules.step_radii(1, 0.5 + i, (2, 1))
            assert rules._step_radii.cache_info().currsize == rules._STEP_RADII
        finally:
            rules._step_radii.cache_clear()
            rules._beta_radial_rule.cache_clear()

    def test_distinct_exponents_stay_within_cap(self):
        try:
            for i in range(10_000):
                beta_radial_rule(1, 0.5 + i, 2)
            assert rules._beta_radial_rule.cache_info().currsize <= rules._RADIAL_RULES
        finally:
            rules._beta_radial_rule.cache_clear()

    @pytest.mark.parametrize(
        "q, w0, t",
        [
            ([[3.0, 4.0]], [5.0], [0.9]),
            ([[1.0, 1.0, 1.0, 1.0]], [2.0], [0.8, -0.5]),
            ([[1.0, 1.0, 1.0, 1.0, 1.0]], [2.0], [0.6, -0.3, 0.4]),
        ],
        ids=["k1", "k2", "k3"],
    )
    def test_quadrature_bit_identical_after_clear(self, q, w0, t):
        validated = validate(AffineProblem(q=q, w0=w0, k=len(t)))
        geom, fn, cfg = build_slice(validated, 64), CosLinear(t=t), QuadConfig(1e-11)
        warm = slice_mean_quadrature(geom, fn, cfg)
        for memo in MEMOS:
            memo.cache_clear()
        cold = slice_mean_quadrature(geom, fn, cfg)
        assert (cold.value, cold.err_estimate) == (warm.value, warm.err_estimate)

    def test_racing_threads_get_equal_arrays(self):
        rules._beta_radial_rule.cache_clear()
        barrier = threading.Barrier(2, timeout=30)
        results = [None, None]

        def build(i):
            barrier.wait()
            results[i] = beta_radial_rule(3, 1234.5, 512)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        (u0, w0), (u1, w1) = results
        assert np.array_equal(u0, u1) and np.array_equal(w0, w1)
        u, w = beta_radial_rule(3, 1234.5, 512)
        assert np.array_equal(u, u0) and np.array_equal(w, w0)

    def test_radial_rules_bit_identical_at_any_blas_thread_count(self):
        # the starting eigenvalues come from LAPACK; the rule's bits must not
        # depend on how many threads BLAS runs
        script = (
            "import hashlib\n"
            "from slicemean.rules import beta_radial_rule\n"
            "h = hashlib.sha256()\n"
            "for n in (64, 128, 256, 512):\n"
            "    for arr in beta_radial_rule(3, 1234.5, n):\n"
            "        h.update(arr.tobytes())\n"
            "print(h.hexdigest())\n"
        )
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, timeout=300, env=env, check=True)
            digests.add(proc.stdout)
        assert len(digests) == 1

    @pytest.mark.parametrize(
        "name",
        ["beta_radial_rule", "sphere_directions", "gauss_hermite_prob", "step_radii"],
    )
    def test_public_names_stay_plain_functions(self, name):
        # the benchmark's tracer wraps only plain functions; a cache object
        # in their place would hide every call to the rule from the trace
        assert inspect.isfunction(getattr(rules, name))
