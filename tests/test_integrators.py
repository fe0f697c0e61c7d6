import math
import time
import tracemalloc

import dataclasses
import numpy as np
import pytest
from numpy.testing import assert_allclose

from slicemean import (
    AffineProblem,
    CosLinear,
    CounterexampleG,
    InadmissibleFunction,
    McConfig,
    Monomial,
    NonFinite,
    QuadConfig,
    SinLinear,
    UnsupportedDimension,
    build_slice,
    counterexample_probe,
    gaussian_limit,
    kernel_onb,
    known_limit,
    slice_mean_mc,
    slice_mean_quadrature,
    validate,
)
from slicemean.affine_model import truncated_matrix
from slicemean.integrators import _gaussian_mc, _quad_pass, _shard_rng


def _full_basis_mc(validated, geom, phi, n_samples, seed):
    """Reference slice MC: N - m normals per sample, pushed through an
    N-column orthonormal kernel basis and scaled to the slice radius."""
    mat_top = kernel_onb(truncated_matrix(validated.problem, geom.n))[: geom.k]
    g = np.random.default_rng(seed).standard_normal((n_samples, mat_top.shape[1]))
    scale = geom.a_z / np.linalg.norm(g, axis=1)
    vals = phi.eval(geom.x0 + scale[:, None] * (g @ mat_top.T))
    return vals.mean(), vals.std(ddof=1) / math.sqrt(n_samples)


class TestQuadrature:
    def test_constant_is_one(self, fix_b):
        res = slice_mean_quadrature(build_slice(fix_b, 64), Monomial(alpha=(0,)))
        assert abs(res.value - 1.0) < 1e-12

    def test_second_moment_fix_a3(self, fix_a3):
        # oracle: mean of a coordinate squared over a centered sphere of
        # radius a in R^(N-1) is a^2/(N-1); here a^2 = 100 - 9
        res = slice_mean_quadrature(build_slice(fix_a3, 100), Monomial(alpha=(2,)))
        assert_allclose(res.value, 91.0 / 99.0, atol=1e-10)

    @pytest.mark.parametrize("n", [4, 10, 100, 1000])
    def test_linear_averages_to_center(self, fix_b, n):
        res = slice_mean_quadrature(build_slice(fix_b, n), Monomial(alpha=(1,)))
        assert_allclose(res.value, 0.6, atol=1e-12)

    @pytest.mark.parametrize("n", [4, 16, 256, 4096])
    def test_fix_b_second_moment_exact(self, fix_b, n):
        res = slice_mean_quadrature(build_slice(fix_b, n), Monomial(alpha=(2,)))
        assert_allclose(res.value, 1.0, atol=1e-8)

    def test_k2_cosine(self, fix_c):
        # cross-check against Monte Carlo at matching tolerance
        fn = CosLinear(t=[1.0, -0.5])
        geom = build_slice(fix_c, 128)
        quad = slice_mean_quadrature(geom, fn)
        mc = slice_mean_mc(geom, fn, McConfig(n_samples=200_000, seed=5))
        assert abs(quad.value - mc.value) <= 4.0 * (quad.err_estimate + mc.err_estimate)

    def test_k3_normalization_and_moment(self):
        validated = validate(
            AffineProblem(q=[[0.0, 0.0, 0.0, 1.0]], w0=[1.0], k=3)
        )
        geom = build_slice(validated, 32)
        one = slice_mean_quadrature(geom, Monomial(alpha=(0, 0, 0)))
        assert abs(one.value - 1.0) < 1e-12
        # coordinate second moment on the slice sphere: a^2/(N-1)
        x2 = slice_mean_quadrature(geom, Monomial(alpha=(2, 0, 0)))
        assert_allclose(x2.value, (32.0 - 1.0) / 31.0, rtol=1e-10)

    def test_refinement_reuses_fine_pass(self):
        # halving a refinement's doubled node counts gives the previous fine
        # rule, so a request refined twice evaluates one coarse pass and
        # three fine passes, and its value and error are those of the last
        # two rules
        validated = validate(AffineProblem(q=[[0.0, 0.0, 0.0, 1.0]], w0=[1.0], k=3))
        geom = build_slice(validated, 64)
        points = []

        class Counted(CosLinear):
            def eval(self, x):
                points.append(int(np.prod(np.shape(x)[:-1])))
                return super().eval(x)

        fn = Counted(t=[0.8, -0.5, 0.3])
        res = slice_mean_quadrature(geom, fn, QuadConfig(target_rel_err=1e-11))
        # radial x direction nodes; a k = 3 budget b gives round(sqrt(b))^2 directions
        assert points == [64 * 36, 128 * 64, 256 * 121, 512 * 256]
        assert res.n_evals == sum(points)
        fine, _ = _quad_pass(geom, fn, 512, 256)
        coarse, _ = _quad_pass(geom, fn, 256, 128)
        assert res.value == fine
        assert res.err_estimate == abs(fine - coarse)

    def test_unsupported_dimension(self):
        validated = validate(
            AffineProblem(q=[[0.0, 0.0, 0.0, 0.0, 1.0]], w0=[0.0], k=4)
        )
        geom = build_slice(validated, 32)
        with pytest.raises(UnsupportedDimension):
            slice_mean_quadrature(geom, Monomial(alpha=(0, 0, 0, 0)))

    def test_factor_invariance(self, fix_c):
        fn = CosLinear(t=[0.8, -0.5])
        geom = build_slice(fix_c, 128)
        base = slice_mean_quadrature(geom, fn)
        rng = np.random.default_rng(17)
        a = rng.standard_normal((2, 2))
        q, r = np.linalg.qr(a)
        o = q * np.sign(np.diag(r))
        geom_rot = dataclasses.replace(geom, chol=geom.chol @ o)
        rot = slice_mean_quadrature(geom_rot, fn)
        assert abs(rot.value - base.value) < 10.0 * max(base.err_estimate, 1e-15)

    def test_nonfinite_detected(self, fix_b):
        class Bad(Monomial):
            def eval(self, x):
                return np.full(np.asarray(x).shape[:-1], np.nan)

        with pytest.raises(NonFinite):
            slice_mean_quadrature(build_slice(fix_b, 16), Bad(alpha=(1,)))

    def test_quad_config_validation(self):
        with pytest.raises(ValueError):
            QuadConfig(radial_nodes=4)
        with pytest.raises(ValueError):
            QuadConfig(target_rel_err=0.5)
        # the direction count is one int (the k = 3 budget), never a pair
        with pytest.raises(TypeError):
            QuadConfig(angular_nodes=(12, 16))


class TestMonteCarlo:
    def test_constant_exact(self, fix_b):
        res = slice_mean_mc(build_slice(fix_b, 64), Monomial(alpha=(0,)), McConfig(1000, seed=1))
        assert res.value == 1.0
        assert res.err_estimate == 0.0

    def test_center_by_symmetry(self, fix_b):
        res = slice_mean_mc(
            build_slice(fix_b, 64), Monomial(alpha=(1,)), McConfig(100_000, seed=2)
        )
        assert abs(res.value - 0.6) <= 4.0 * res.err_estimate

    def test_agrees_with_quadrature(self, fix_a3):
        geom = build_slice(fix_a3, 100)
        fn = Monomial(alpha=(2,))
        quad = slice_mean_quadrature(geom, fn)
        mc = slice_mean_mc(geom, fn, McConfig(100_000, seed=3))
        assert abs(quad.value - mc.value) <= 4.0 * (quad.err_estimate + mc.err_estimate)

    def test_bit_identical_across_threads(self, fix_b):
        geom = build_slice(fix_b, 128)
        fn = CosLinear(t=[1.0])
        cfg = McConfig(n_samples=50_000, seed=99, shard_size=4096)
        a = slice_mean_mc(geom, fn, cfg, threads=1)
        b = slice_mean_mc(geom, fn, cfg, threads=8)
        c = slice_mean_mc(geom, fn, cfg, threads=1)
        assert a.value == b.value == c.value
        assert a.err_estimate == b.err_estimate == c.err_estimate

    def test_shard_layout_changes_stream(self, fix_b):
        # different shard size means a different (still deterministic) result
        geom = build_slice(fix_b, 32)
        fn = CosLinear(t=[1.0])
        a = slice_mean_mc(geom, fn, McConfig(20_000, seed=4, shard_size=1024))
        b = slice_mean_mc(geom, fn, McConfig(20_000, seed=4, shard_size=2048))
        assert a.value != b.value

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("which_n", ["n_min", 16, 64])
    def test_matches_full_basis_sampler(self, k, which_n):
        # support width 20: n_min and 16 sample below it, 64 beyond it
        rng = np.random.default_rng(100 + k)
        validated = validate(
            AffineProblem(q=rng.standard_normal((2, 20)), w0=0.5 * rng.standard_normal(2), k=k)
        )
        n = validated.n_min if which_n == "n_min" else which_n
        geom = build_slice(validated, n)
        alpha = [0] * k
        alpha[0] += 1
        alpha[-1] += 1
        for fn in (CosLinear(t=[0.7, -0.4, 0.3][:k]), Monomial(alpha=tuple(alpha))):
            got = slice_mean_mc(geom, fn, McConfig(20_000, seed=k))
            want, want_se = _full_basis_mc(validated, geom, fn, 20_000, seed=k)
            assert abs(got.value - want) <= 5.0 * math.hypot(got.err_estimate, want_se)

    def test_million_dimensions(self, fix_b):
        fn = CosLinear(t=[1.0])
        start = time.perf_counter()
        geom = build_slice(fix_b, 10**6)
        quad = slice_mean_quadrature(geom, fn)
        mc = slice_mean_mc(geom, fn, McConfig(100_000, seed=10))
        assert time.perf_counter() - start < 1.0
        assert abs(quad.value - known_limit(fn, fix_b)) < 1e-5
        assert abs(mc.value - quad.value) <= 5.0 * mc.err_estimate

    def test_high_k_supported(self):
        validated = validate(AffineProblem(q=[[0.0] * 5 + [1.0]], w0=[0.5], k=5))
        geom = build_slice(validated, 64)
        res = slice_mean_mc(geom, Monomial(alpha=(0,) * 5), McConfig(1000, seed=6))
        assert res.value == 1.0


class TestGaussianLimit:
    def test_mean(self, fix_b):
        res = gaussian_limit(fix_b, Monomial(alpha=(1,)))
        assert_allclose(res.value, 0.6, atol=1e-12)

    def test_second_moment(self, fix_b):
        # mean^2 + variance = 0.36 + 0.64
        res = gaussian_limit(fix_b, Monomial(alpha=(2,)))
        assert_allclose(res.value, 1.0, rtol=1e-12)

    def test_cosine(self, fix_b):
        res = gaussian_limit(fix_b, CosLinear(t=[1.0]))
        assert_allclose(res.value, math.exp(-0.32) * math.cos(0.6), rtol=1e-12)

    def test_matches_known_limit(self, fix_c):
        fn = SinLinear(t=[0.7, 0.2])
        res = gaussian_limit(fix_c, fn)
        assert_allclose(res.value, known_limit(fn, fix_c), rtol=1e-11)

    def test_mc_route(self, fix_b):
        fn = CosLinear(t=[1.0])
        res = gaussian_limit(fix_b, fn, McConfig(n_samples=400_000, seed=8))
        assert not res.diverged
        assert abs(res.value - known_limit(fn, fix_b)) <= 4.0 * res.err_estimate

    def test_gh_refuses_counterexample(self, fix_a0):
        with pytest.raises(InadmissibleFunction):
            gaussian_limit(fix_a0, CounterexampleG())

    def test_gh_refuses_high_dimension(self):
        validated = validate(AffineProblem(q=[[0.0] * 4 + [1.0]], w0=[0.0], k=4))
        with pytest.raises(UnsupportedDimension):
            gaussian_limit(validated, Monomial(alpha=(0,) * 4))

    def test_divergence_detector_fires(self):
        # non-integrable case: variance 4 makes E[g(X)] infinite for the
        # counterexample integrand, so the running estimate never settles
        mu = np.array([0.5])
        chol = np.array([[2.0]])
        res = _gaussian_mc(
            mu, chol, CounterexampleG(), McConfig(2_000_000, seed=0, shard_size=2048)
        )
        assert res.diverged

    def test_gh_uses_64_nodes_checked_against_32(self, fix_b):
        res = gaussian_limit(fix_b, Monomial(alpha=(4,)))
        assert res.n_evals == 64 + 32
        # E[X^4] for X ~ N(0.6, 0.64): mu^4 + 6 mu^2 s^2 + 3 s^4
        assert_allclose(res.value, 0.6**4 + 6 * 0.36 * 0.64 + 3 * 0.64**2, rtol=1e-13)

    def test_mc_shard_drawn_whole_when_it_fits(self, fix_b):
        # a shard within one chunk is one draw of shard_size normals,
        # summed at once: the stream and sums of a single-draw sampler
        fn = CosLinear(t=[1.0])
        res = gaussian_limit(fix_b, fn, McConfig(50_000, seed=3, shard_size=8192))
        total = 0.0
        for i, size in enumerate([8192] * 6 + [50_000 - 6 * 8192]):
            g = _shard_rng(3, i).standard_normal((size, 1))
            total += float(fn.eval(fix_b.z0_cyl + g @ np.array([[0.8]]).T).sum())
        assert res.value == total / 50_000

    def test_mc_peak_memory_does_not_grow_with_shard_size(self, fix_b):
        # shards are drawn in chunks of at most 2^22 numbers, so a 2^23
        # sample shard (k = 1) peaks near a 2^21 one
        fn = CosLinear(t=[1.0])
        peaks = []
        for size in (1 << 21, 1 << 23):
            tracemalloc.start()
            try:
                gaussian_limit(fix_b, fn, McConfig(size, seed=1, shard_size=size))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_integrable_case_does_not_fire(self, fix_b):
        res = gaussian_limit(
            fix_b, CosLinear(t=[0.5]), McConfig(2_000_000, seed=14, shard_size=8192)
        )
        assert not res.diverged


class TestCounterexampleProbe:
    def test_arctan_oracle_moderate(self):
        # closed form 2 arctan(R) / sqrt(2 pi)
        assert_allclose(
            counterexample_probe(0.0, 1.0),
            2.0 * math.atan(1.0) / math.sqrt(2.0 * math.pi),
            rtol=1e-10,
        )

    def test_arctan_oracle_large(self):
        got = counterexample_probe(0.0, 1000.0)
        want = 2.0 * math.atan(1000.0) / math.sqrt(2.0 * math.pi)
        assert abs(got - want) < 1e-6
        assert abs(got - math.sqrt(math.pi / 2.0)) < 1e-3  # analytic tail ~8e-4

    def test_tail_vanishes_at_huge_radius(self):
        got = counterexample_probe(0.0, 10**6)
        assert abs(got - math.sqrt(math.pi / 2.0)) < 1e-6

    def test_shifted_mean_grows(self):
        v10 = counterexample_probe(0.3, 10.0)
        v30 = counterexample_probe(0.3, 30.0)
        assert v30 / v10 > 10.0

    def test_zero_shift_column_increases(self):
        vals = [counterexample_probe(0.0, r) for r in (1.0, 10.0, 100.0, 1000.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < math.sqrt(math.pi / 2.0)

    def test_large_shift_times_radius_stays_finite(self):
        # exp(z R - z^2/2) alone overflows here; the integrand peaks near
        # e^701. Oracle: endpoint Laplace asymptotics e^g(R) / g'(R) with
        # g(x) = z x - z^2/2 - log(1 + x^2), relative error ~ g''/g'^2 ~ 4e-6
        z, r = 1.0, 715.0
        g = z * r - 0.5 * z * z - math.log1p(r * r)
        slope = z - 2.0 * r / (1.0 + r * r)
        want = math.exp(g - math.log(slope) - 0.5 * math.log(2.0 * math.pi))
        assert_allclose(counterexample_probe(z, r), want, rtol=1e-5)

    def test_value_beyond_float64_raises(self):
        with pytest.raises(NonFinite):
            counterexample_probe(-1.5, 1000.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            counterexample_probe(0.0, -1.0)
