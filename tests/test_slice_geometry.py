import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slicemean import (
    BelowMinN,
    CosLinear,
    Monomial,
    ProjectionNotOnto,
    QuadConfig,
    RankDeficient,
    SliceEmpty,
    build_slice,
    gaussian_limit,
    known_limit,
    slice_mean_quadrature,
    weight,
)
from slicemean import numlin


class TestBuildSlice:
    def test_fix_a3_radius(self, fix_a3):
        geom = build_slice(fix_a3, 10)
        assert_allclose(geom.a_z, 1.0, rtol=1e-14)  # sqrt(10 - 9)

    def test_fix_b_radius(self, fix_b):
        geom = build_slice(fix_b, 100)
        assert_allclose(geom.a_z, math.sqrt(99.0), rtol=1e-14)

    def test_empty_slice(self, fix_a3):
        with pytest.raises(SliceEmpty):
            build_slice(fix_a3, 9)

    def test_below_min_n(self, fix_b):
        with pytest.raises(BelowMinN):
            build_slice(fix_b, 3)

    def test_rank_dip_above_n_min(self, rank_dip):
        # validate's n_min is 5, yet the rows lose numerical rank at N = 6
        assert rank_dip.n_min == 5
        with pytest.raises(RankDeficient):
            build_slice(rank_dip, 6)
        for n in (5, 7, 8):
            assert build_slice(rank_dip, n).n == n

    def test_onto_dip_above_n_min(self, onto_dip):
        # the rows keep rank 2 at N = 6, but their kernel is not onto R^1
        with pytest.raises(ProjectionNotOnto):
            build_slice(onto_dip, 6)
        for n in (5, 7, 8):
            assert build_slice(onto_dip, n).n == n

    def test_one_factorization_per_truncation(self, monkeypatch, rank_dip):
        # below the support width (7) one StackedQR gives every per-N
        # quantity; from the width on, and for the limit, validate's is reused
        counts = []

        class Counting(numlin.StackedQR):
            def __init__(self, *args):
                counts[-1] += 1
                super().__init__(*args)

        monkeypatch.setattr(numlin, "StackedQR", Counting)

        def taken(call):
            counts.append(0)
            result = call()
            return counts[-1], result

        fn = CosLinear(t=[1.0])
        assert taken(lambda: build_slice(rank_dip, 5))[0] == 1
        count, geom = taken(lambda: build_slice(rank_dip, 8))
        assert count == 0 and geom.chol is rank_dip.chol
        assert not rank_dip.chol.flags.writeable
        assert taken(lambda: known_limit(fn, rank_dip))[0] == 0
        assert taken(lambda: gaussian_limit(rank_dip, fn))[0] == 0

    def test_exponent(self, fix_b):
        geom = build_slice(fix_b, 100)
        assert geom.exponent == (100 - 1 - 1 - 1 - 1) / 2.0
        assert geom.d == 99

    def test_center_fields(self, fix_b):
        geom = build_slice(fix_b, 64)
        assert_allclose(geom.z0n, [0.6, 0.8], atol=1e-14)
        assert_allclose(geom.x0, [0.6], atol=1e-14)


class TestWeight:
    def test_endpoints(self, fix_b):
        geom = build_slice(fix_b, 64)
        assert weight(geom, 0.0) == 1.0
        assert weight(geom, geom.a_z) == 0.0
        assert weight(geom, 2.0 * geom.a_z) == 0.0

    def test_gaussian_limit_of_weight(self, fix_a0):
        # (1 - 1/N)^((N-4)/2) -> exp(-1/2); log expansion oracle at N = 1e6
        geom = build_slice(fix_a0, 10**6)
        assert abs(weight(geom, 1.0) - math.exp(-0.5)) < 1e-5

    def test_non_increasing_and_boundary_continuous(self, fix_a3):
        geom = build_slice(fix_a3, 64)
        r = np.linspace(0.0, geom.a_z, 1001)
        w = weight(geom, r)
        assert np.all(np.diff(w) <= 1e-15)
        assert w[-1] == 0.0

    def test_accurate_near_boundary(self, fix_a0):
        # log1p form: the bracket is ~1e-16 at the boundary and must not
        # collapse to 0/1 garbage just inside it
        geom = build_slice(fix_a0, 256)
        r = geom.a_z * (1.0 - 1e-12)
        expected = math.exp(geom.exponent * math.log1p(-((r / geom.a_z) ** 2)))
        assert_allclose(weight(geom, r), expected, rtol=1e-10)

    def test_rejects_negative_radius(self, fix_b):
        geom = build_slice(fix_b, 16)
        with pytest.raises(ValueError):
            weight(geom, -1.0)

    def test_exponent_zero_at_minimal_n(self, fix_b):
        # at N = n_min = k+m+2 the weight exponent degenerates to 0: flat
        # weight inside the ball, still 0 at the rim
        geom = build_slice(fix_b, 4)
        assert geom.exponent == 0.0
        assert weight(geom, 0.5 * geom.a_z) == 1.0
        assert weight(geom, geom.a_z) == 0.0


class TestLogNormPrefactor:
    def test_small_dimension_closed_form(self, fix_a0):
        # d = 3, k = m = 1: c1/(c2 a) = 2 pi/(4 pi a) = 1/(2 a)
        geom = build_slice(fix_a0, 4)
        assert_allclose(
            geom.log_prefactor, math.log(1.0 / (2.0 * geom.a_z)), rtol=1e-12
        )

    @pytest.mark.parametrize("k,m", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)])
    def test_tends_to_gaussian_constant(self, k, m):
        from slicemean import AffineProblem, validate

        q = np.zeros((m, k + m))
        for i in range(m):
            q[i, k + i] = 1.0
        validated = validate(AffineProblem(q=q, w0=0.5 * np.ones(m), k=k))
        geom = build_slice(validated, 10**6)
        got = math.exp(geom.log_prefactor)
        want = (2.0 * math.pi) ** (-k / 2.0)
        assert abs(got - want) / want < 1e-3

    def test_degenerate_k0_identity(self):
        # internal identity check: with no cylinder coordinates the prefactor
        # reduces to c_{d-m}/c_{d-m} = 1
        from slicemean.slice_geometry import _log_prefactor

        assert _log_prefactor(d=9, k=0, m=1, a_z=3.0) == 0.0


class TestNormalization:
    @pytest.mark.parametrize("n", [16, 64, 256, 1024, 4096])
    def test_constant_integrates_to_one_fix_a3(self, fix_a3, n):
        geom = build_slice(fix_a3, n)
        res = slice_mean_quadrature(geom, Monomial(alpha=(0,)), QuadConfig())
        assert abs(res.value - 1.0) <= max(res.err_estimate, 1e-12)

    @pytest.mark.parametrize("n", [16, 64, 256, 1024, 4096])
    def test_constant_integrates_to_one_fix_b(self, fix_b, n):
        geom = build_slice(fix_b, n)
        res = slice_mean_quadrature(geom, Monomial(alpha=(0,)), QuadConfig())
        assert abs(res.value - 1.0) <= max(res.err_estimate, 1e-12)
