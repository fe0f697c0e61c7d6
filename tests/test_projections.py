import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slicemean import (
    BelowMinN,
    RankDeficient,
    build_projection,
    kernel_onb,
    kernel_projection_norm_sq,
    preimage_norm_sq,
)
from slicemean.affine_model import INF, truncated_matrix
from slicemean.harness import random_validated


class TestBuildProjection:
    def test_fix_a_identity_gram(self, fix_a0):
        for n in (4, 16, 64):
            pd = build_projection(fix_a0, n)
            assert_allclose(pd.g, [[1.0]], atol=1e-12)
            assert abs(pd.log_det_l0) < 1e-12

    def test_fix_b_gram(self, fix_b):
        # oracle: hand projection, kernel direction (0.8, -0.6), first coord 0.8
        pd = build_projection(fix_b, INF)
        assert_allclose(pd.g, [[0.64]], atol=1e-14)
        assert_allclose(pd.log_det_l0, math.log(0.8), atol=1e-14)
        assert_allclose(pd.chol, [[0.8]], atol=1e-14)

    def test_fix_b_stabilized_at_support_width(self, fix_b):
        # from the full N-column kernel basis: build_projection takes its
        # basis at the support width, so it matches INF by construction
        pd_inf = build_projection(fix_b, INF)
        for n in (4, 8, 32):
            m_top = kernel_onb(truncated_matrix(fix_b.problem, n))[:1]
            assert_allclose(m_top @ m_top.T, pd_inf.g, atol=1e-14)

    def test_fix_c_gram(self, fix_c):
        # kernel projector of the all-ones row is I - J/4 on the support
        pd = build_projection(fix_c, INF)
        assert_allclose(pd.g, [[0.75, -0.25], [-0.25, 0.75]], atol=1e-13)

    def test_kernel_basis_shape(self, fix_b):
        # taken at the support width 2, whatever N >= width is
        pd = build_projection(fix_b, 16)
        assert pd.kernel_basis.shape == (2, 1)

    def test_below_min_n(self, fix_b):
        with pytest.raises(BelowMinN):
            build_projection(fix_b, 3)

    def test_rank_dip_raises(self, rank_dip):
        # at N = 6 the truncated rows are numerically dependent, so the
        # kernel has 5 columns where two constraints leave 4
        with pytest.raises(RankDeficient):
            build_projection(rank_dip, 6)
        for n in (5, 7, 8):
            assert build_projection(rank_dip, n).kernel_basis.shape[1] == min(n, 7) - 2

    def test_logdet_matches_det(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            validated = random_validated(rng)
            pd = build_projection(validated, INF)
            assert_allclose(
                math.exp(2.0 * pd.log_det_l0), np.linalg.det(pd.g), rtol=1e-10
            )


class TestPreimageNormSq:
    def test_identity_gram(self, fix_a0):
        pd = build_projection(fix_a0, 16)
        assert_allclose(preimage_norm_sq(pd, [1.0]), 1.0, rtol=1e-14)

    def test_scalar_inverse(self, fix_b):
        pd = build_projection(fix_b, INF)
        assert_allclose(preimage_norm_sq(pd, [1.0]), 1.5625, rtol=1e-14)

    def test_zero(self, fix_c):
        pd = build_projection(fix_c, INF)
        assert preimage_norm_sq(pd, [0.0, 0.0]) == 0.0


class TestPushCoordinates:
    """The whitening x = x0 + C y that every evaluator computes inline."""

    def test_norm_compatibility(self, fix_c):
        pd = build_projection(fix_c, INF)
        rng = np.random.default_rng(0)
        x0 = fix_c.z0_cyl
        for _ in range(20):
            y = rng.standard_normal(2)
            x = x0 + y @ pd.chol.T
            assert_allclose(preimage_norm_sq(pd, x - x0), y @ y, rtol=1e-10)


class TestKernelProjection:
    def test_free_coordinate(self, fix_a0):
        assert_allclose(kernel_projection_norm_sq(fix_a0, [1.0]), 1.0, rtol=1e-14)

    def test_oblique(self, fix_b):
        # oracle: P e1 = e1 - (3/25)(3, 4); squared norm 400/625 = 0.64
        assert_allclose(kernel_projection_norm_sq(fix_b, [1.0]), 0.64, rtol=1e-13)

    def test_zero(self, fix_c):
        assert kernel_projection_norm_sq(fix_c, [0.0, 0.0]) == 0.0
