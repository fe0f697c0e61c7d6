import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slicemean import (
    AffineProblem,
    BelowMinN,
    Infeasible,
    ProjectionNotOnto,
    RankDeficient,
    build_slice,
    kernel_onb,
    validate,
)
from slicemean.affine_model import least_norm_center, truncated_matrix


class TestValidate:
    def test_fix_a_center_and_n_min(self, fix_a0):
        assert_allclose(fix_a0.z0, [0.0, 0.0])
        assert fix_a0.n_min == 4  # k + m + 2

    def test_fix_a_offset_needs_radius(self, fix_a3):
        assert_allclose(fix_a3.z0, [0.0, 3.0])
        # need N > |z0|^2 = 9 on top of N >= 4
        assert fix_a3.n_min == 10

    def test_fix_b(self, fix_b):
        assert_allclose(fix_b.z0, [0.6, 0.8], atol=1e-14)
        assert fix_b.n_min == 4

    def test_projection_not_onto(self):
        with pytest.raises(ProjectionNotOnto):
            validate(AffineProblem(q=[[1.0, 0.0]], w0=[1.0], k=1))

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            validate(AffineProblem(q=[[1.0, 2.0], [2.0, 4.0]], w0=[1.0, 1.0], k=1))

    def test_near_dependent_rows_blamed_on_rank(self):
        # e1 is orthogonal to both rows, so the kernel projects onto R^1; the
        # stacked margin (8.5e-11) fails because the rows are only 1.2e-10
        # apart in ratio, while sigma_min of R22 is 1
        q = 0.5 * np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 2.4e-10, 0.0]])
        with pytest.raises(RankDeficient, match=r"of Q 1.2e-10, sigma_min of R22 1\)"):
            validate(AffineProblem(q=q, w0=[0.1, 0.1], k=1))

    def test_cylinder_wider_than_support_not_onto(self):
        # coordinates beyond the support are free, but the constrained block
        # still pins the first two coordinates to a line
        with pytest.raises(ProjectionNotOnto):
            validate(AffineProblem(q=[[1.0, 1.0]], w0=[0.0], k=3))

    def test_infeasible_when_center_too_far(self):
        # the sphere of radius sqrt(N) never reaches |z0| = 2000 below the cap
        with pytest.raises(Infeasible):
            validate(AffineProblem(q=[[0.0, 1.0]], w0=[2000.0], k=1))

    def test_constraints_hold_at_center(self, fix_a3, fix_b, fix_c):
        for validated in (fix_a3, fix_b, fix_c):
            problem = validated.problem
            residual = problem.q @ validated.z0[: problem.s] - problem.w0
            assert np.abs(residual).max() < 1e-12


    def test_rank_margin(self, fix_a3, fix_b, rank_dip):
        # sigma_(m+k) / sigma_1 of [Q_N; E_k] at N = min(n_min, width)
        assert fix_a3.rank_checks["rank_margin"] == pytest.approx(1.0, rel=1e-14)
        assert fix_b.rank_checks["rank_margin"] == pytest.approx(0.15767078, rel=1e-6)
        # the rank-dip problem is accepted only just above the 1e-10 cutoff
        assert rank_dip.rank_checks["rank_margin"] == pytest.approx(2.55e-10, rel=0.1)


def test_wide_support():
    # m = 3, k = 2 at support width 10^4: no step may build a width x width
    # array (one 10^4 x 10^4 float64 SVD factor alone is 800 MB)
    rng = np.random.default_rng(0)
    problem = AffineProblem(
        q=rng.standard_normal((3, 10**4)), w0=0.5 * rng.standard_normal(3), k=2
    )
    tracemalloc.start()
    try:
        start = time.perf_counter()
        validated = validate(problem)
        geom = build_slice(validated, 10**6)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert geom.chol.shape == (2, 2)
    assert elapsed < 0.5
    assert peak < 20e6


class TestClosestPoint:
    """The closest point z0_N of the width-N truncation, as build_slice
    carries it in ``z0n``."""

    def test_stabilized_for_large_n(self, fix_a3):
        assert_allclose(build_slice(fix_a3, 100).z0n, [0.0, 3.0])

    def test_infinite(self, fix_b):
        # the untruncated closest point is z0; every N beyond the support
        # width carries it unchanged
        assert_allclose(fix_b.z0, [0.6, 0.8], atol=1e-14)
        assert np.array_equal(build_slice(fix_b, 10**6).z0n, fix_b.z0)

    def test_truncation_to_one_column(self, fix_b):
        # oracle: scalar least squares on Q_1 = [3]
        z1 = least_norm_center(fix_b.problem, 1)
        assert_allclose(z1, [5.0 / 3.0], rtol=1e-14)

    def test_below_min_n(self, fix_c):
        # below the support width 4 the truncated center (2/3)(1, 1, 1)
        # exists and the sphere reaches it, but N = 3 < n_min = 5
        assert_allclose(least_norm_center(fix_c.problem, 3), [2.0 / 3.0] * 3, rtol=1e-14)
        with pytest.raises(BelowMinN):
            build_slice(fix_c, 3)


class TestInvariants:
    def test_zero_padding_changes_nothing(self, fix_b):
        padded = validate(
            AffineProblem(q=[[3.0, 4.0, 0.0, 0.0, 0.0]], w0=[5.0], k=1)
        )
        assert padded.n_min == fix_b.n_min
        assert_allclose(padded.z0[:2], fix_b.z0, atol=0)
        assert_allclose(padded.z0[2:], 0.0, atol=0)

    def test_z0_orthogonal_to_kernel(self, fix_b):
        basis = kernel_onb(truncated_matrix(fix_b.problem, 2))
        assert np.abs(basis.T @ fix_b.z0).max() < 1e-10

    def test_fix_b_truncation_exact_from_two(self, fix_b):
        for n in range(2, 12):
            zn = least_norm_center(fix_b.problem, n)
            padded = np.zeros(2)
            padded[: min(2, zn.size)] = zn[:2]
            assert np.linalg.norm(padded - fix_b.z0) < 1e-14

    def test_pre_stabilization_center_can_be_larger(self, fix_b):
        # |z0_1| = 5/3 exceeds |z0| = 1: slice feasibility must be per-N
        z1 = least_norm_center(fix_b.problem, 1)
        assert np.linalg.norm(z1) > np.linalg.norm(fix_b.z0)


class TestProblemType:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            AffineProblem(q=[[np.inf, 1.0]], w0=[0.0], k=1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            AffineProblem(q=[[1.0, 0.0]], w0=[0.0], k=0)

    def test_rejects_mismatched_w0(self):
        with pytest.raises(ValueError):
            AffineProblem(q=[[1.0, 0.0]], w0=[0.0, 1.0], k=1)
