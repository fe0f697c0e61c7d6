import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from slicemean import (
    ProjectionNotOnto,
    RankDeficient,
    build_slice,
    kernel_onb,
    kernel_projection_norm_sq,
    preimage_norm_sq,
)
from slicemean.affine_model import truncated_matrix
from slicemean.harness import random_validated


def _half_log_det(chol):
    # half the log-determinant of G = chol chol^T
    return float(np.sum(np.log(np.diag(chol))))


class TestBuildProjection:
    """The projection's Gram data: per N from ``build_slice``, in the limit
    from ``validate`` (``ValidatedProblem.chol`` and ``.g``)."""

    def test_fix_a_identity_gram(self, fix_a0):
        for n in (4, 16, 64):
            chol = build_slice(fix_a0, n).chol
            assert_allclose(chol @ chol.T, [[1.0]], atol=1e-12)
            assert abs(_half_log_det(chol)) < 1e-12

    def test_fix_b_gram(self, fix_b):
        # oracle: hand projection, kernel direction (0.8, -0.6), first coord 0.8
        assert_allclose(fix_b.g, [[0.64]], atol=1e-14)
        assert_allclose(_half_log_det(fix_b.chol), math.log(0.8), atol=1e-14)
        assert_allclose(fix_b.chol, [[0.8]], atol=1e-14)

    def test_fix_b_stabilized_at_support_width(self, fix_b):
        # from the full N-column kernel basis: validate takes G at the
        # support width, so the library matches the limit by construction
        for n in (4, 8, 32):
            m_top = kernel_onb(truncated_matrix(fix_b.problem, n))[:1]
            assert_allclose(m_top @ m_top.T, fix_b.g, atol=1e-14)

    def test_fix_c_gram(self, fix_c):
        # kernel projector of the all-ones row is I - J/4 on the support
        assert_allclose(fix_c.g, [[0.75, -0.25], [-0.25, 0.75]], atol=1e-13)

    def test_rank_dip_raises(self, rank_dip):
        # at N = 6 the truncated rows are numerically dependent, while
        # N = 5 and N >= 7 keep rank 2
        with pytest.raises(RankDeficient):
            build_slice(rank_dip, 6)
        for n in (5, 7, 8):
            assert build_slice(rank_dip, n).chol[0, 0] > 0.0

    def test_onto_dip_raises(self, onto_dip):
        # at N = 6 the rows keep rank 2, but e1 lies in their span at the
        # cutoff: G is 6.6e-19 there, and the factor must not be built
        assert onto_dip.n_min == 5
        with pytest.raises(ProjectionNotOnto):
            build_slice(onto_dip, 6)
        for n in (5, 7, 8):
            assert build_slice(onto_dip, n).chol[0, 0] > 0.0

    def test_logdet_matches_det(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            validated = random_validated(rng)
            assert_allclose(
                math.exp(2.0 * _half_log_det(validated.chol)),
                np.linalg.det(validated.g),
                rtol=1e-10,
            )


def _svd_n_min(problem):
    # validate's n_min scan with every decision taken by SVD and the center
    # by scipy's lstsq, as a reference for the QR path
    m, k, w = problem.m, problem.k, problem.width
    for n in range(k + m + 2, w + 1):
        q_n = truncated_matrix(problem, n)
        s = scipy.linalg.svdvals(np.vstack([q_n, np.eye(k, n)]))
        if s[-1] <= 1e-10 * s[0]:
            continue
        zn = scipy.linalg.lstsq(q_n, problem.w0)[0]
        if n > zn @ zn:
            return n
    return None


@pytest.mark.parametrize("s", [8, 20, 50])
def test_qr_path_matches_svd_reference(s):
    rng = np.random.default_rng(s)
    for _ in range(100):
        validated = random_validated(rng, s)
        problem = validated.problem
        ref_n_min = _svd_n_min(problem)
        if ref_n_min is not None:
            assert validated.n_min == ref_n_min
        else:
            assert validated.n_min > problem.width
        q_w = truncated_matrix(problem, problem.width)
        z0 = scipy.linalg.lstsq(q_w, problem.w0)[0]
        assert_allclose(validated.z0, z0, rtol=0, atol=1e-14)
        mid = max(validated.n_min, (validated.n_min + problem.width) // 2)
        for n in (validated.n_min, mid, problem.width):
            m_top = kernel_onb(truncated_matrix(problem, min(n, problem.width)))[: problem.k]
            if n == problem.width:
                g = validated.g
            else:
                chol = build_slice(validated, n).chol
                g = chol @ chol.T
            assert_allclose(g, m_top @ m_top.T, rtol=0, atol=1e-14)


class TestPreimageNormSq:
    def test_identity_gram(self, fix_a0):
        chol = build_slice(fix_a0, 16).chol
        assert_allclose(preimage_norm_sq(chol, [1.0]), 1.0, rtol=1e-14)

    def test_scalar_inverse(self, fix_b):
        assert_allclose(preimage_norm_sq(fix_b.chol, [1.0]), 1.5625, rtol=1e-14)

    def test_zero(self, fix_c):
        assert preimage_norm_sq(fix_c.chol, [0.0, 0.0]) == 0.0


class TestPushCoordinates:
    """The whitening x = x0 + C y that every evaluator computes inline."""

    def test_norm_compatibility(self, fix_c):
        chol = fix_c.chol
        rng = np.random.default_rng(0)
        x0 = fix_c.z0_cyl
        for _ in range(20):
            y = rng.standard_normal(2)
            x = x0 + y @ chol.T
            assert_allclose(preimage_norm_sq(chol, x - x0), y @ y, rtol=1e-10)


class TestKernelProjection:
    def test_free_coordinate(self, fix_a0):
        assert_allclose(kernel_projection_norm_sq(fix_a0, [1.0]), 1.0, rtol=1e-14)

    def test_oblique(self, fix_b):
        # oracle: P e1 = e1 - (3/25)(3, 4); squared norm 400/625 = 0.64
        assert_allclose(kernel_projection_norm_sq(fix_b, [1.0]), 0.64, rtol=1e-13)

    def test_zero(self, fix_c):
        assert kernel_projection_norm_sq(fix_c, [0.0, 0.0]) == 0.0
