import math

import dataclasses
import numpy as np
import pytest
from numpy.testing import assert_allclose

from slicemean import (
    CosLinear,
    CounterexampleG,
    GaussHermite,
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
    known_limit,
    slice_mean_mc,
    slice_mean_quadrature,
)
from slicemean.integrators import _gaussian_mc, _quad_pass


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
        from slicemean import AffineProblem, validate

        validated = validate(
            AffineProblem(q=[[0.0, 0.0, 0.0, 1.0]], w0=[1.0], k=3)
        )
        geom = build_slice(validated, 32)
        one = slice_mean_quadrature(geom, Monomial(alpha=(0, 0, 0)))
        assert abs(one.value - 1.0) < 1e-12
        # coordinate second moment on the slice sphere: a^2/(N-1)
        x2 = slice_mean_quadrature(geom, Monomial(alpha=(2, 0, 0)))
        assert_allclose(x2.value, (32.0 - 1.0) / 31.0, rtol=1e-10)
        # explicit polar x azimuthal node counts give the same answer
        cfg = QuadConfig(radial_nodes=64, angular_nodes=(12, 16))
        x2_pair = slice_mean_quadrature(geom, Monomial(alpha=(2, 0, 0)), cfg)
        assert_allclose(x2_pair.value, x2.value, rtol=1e-10)

    def test_refinement_reuses_fine_pass(self):
        # halving a refinement's doubled node counts gives the previous fine
        # rule, so a request refined twice evaluates one coarse pass and
        # three fine passes, and its value and error are those of the last
        # two rules
        from slicemean import AffineProblem, validate

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
        from slicemean import AffineProblem, validate

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
        geom_rot = dataclasses.replace(
            geom, pd=dataclasses.replace(geom.pd, chol=geom.pd.chol @ o)
        )
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

    def test_high_k_supported(self):
        from slicemean import AffineProblem, validate

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
        res = gaussian_limit(fix_c, fn, GaussHermite(48))
        assert_allclose(res.value, known_limit(fn, fix_c), rtol=1e-11)

    def test_mc_route(self, fix_b):
        fn = CosLinear(t=[1.0])
        res = gaussian_limit(fix_b, fn, McConfig(n_samples=400_000, seed=8))
        assert not res.diverged
        assert abs(res.value - known_limit(fn, fix_b)) <= 4.0 * res.err_estimate

    def test_gh_refuses_counterexample(self, fix_a0):
        with pytest.raises(InadmissibleFunction):
            gaussian_limit(fix_a0, CounterexampleG(), GaussHermite(32))

    def test_gh_refuses_high_dimension(self):
        from slicemean import AffineProblem, validate

        validated = validate(AffineProblem(q=[[0.0] * 4 + [1.0]], w0=[0.0], k=4))
        with pytest.raises(UnsupportedDimension):
            gaussian_limit(validated, Monomial(alpha=(0,) * 4), GaussHermite(16))

    def test_divergence_detector_fires(self):
        # non-integrable case: variance 4 makes E[g(X)] infinite for the
        # counterexample integrand, so the running estimate never settles
        mu = np.array([0.5])
        chol = np.array([[2.0]])
        res = _gaussian_mc(
            mu, chol, CounterexampleG(), McConfig(2_000_000, seed=0, shard_size=2048)
        )
        assert res.diverged

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

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            counterexample_probe(0.0, -1.0)
