import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import gamma

from slicemean import (
    NotSPD,
    RankDeficient,
    kernel_onb,
    least_norm_solution,
    log_surface_constant,
)
from slicemean.numlin import cholesky_spd


class TestKernelOnb:
    def test_axis_constraint(self):
        basis = kernel_onb(np.array([[0.0, 1.0]]))
        assert basis.shape == (2, 1)
        # the only unit kernel direction is +-e1
        assert_allclose(np.abs(basis[:, 0]), [1.0, 0.0], atol=1e-14)

    def test_oblique_constraint(self):
        m = np.array([[3.0, 4.0]])
        basis = kernel_onb(m)
        assert basis.shape == (2, 1)
        # oracle: direct substitution into the constraint plus unit norm
        assert abs(m @ basis[:, 0]) < 1e-12
        assert abs(np.linalg.norm(basis[:, 0]) - 1.0) < 1e-12
        assert_allclose(np.abs(basis[:, 0]), [0.8, 0.6], atol=1e-12)

    def test_full_rank_gives_empty_basis(self):
        basis = kernel_onb(np.eye(2))
        assert basis.shape == (2, 0)

    def test_zero_matrix_gives_full_basis(self):
        basis = kernel_onb(np.zeros((1, 3)))
        assert basis.shape == (3, 3)
        assert_allclose(basis.T @ basis, np.eye(3), atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=5, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_kernel_basis_properties(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols))
    tol = 1e-10
    basis = kernel_onb(m)
    scale = np.abs(m).max()
    assert basis.shape[1] >= cols - rows
    if basis.size:
        assert np.abs(m @ basis).max() <= tol * scale
        assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max() <= 10 * tol


@settings(max_examples=50, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=5, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_least_norm_orthogonal_to_kernel(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols))
    w = rng.standard_normal(rows)
    x = least_norm_solution(m, w)
    assert_allclose(m @ x, w, atol=1e-10)
    basis = kernel_onb(m)
    # minimal-norm solutions carry no kernel component
    assert np.abs(basis.T @ x).max() <= 1e-10


class TestLeastNorm:
    def test_single_coordinate(self):
        assert_allclose(least_norm_solution([[0.0, 1.0]], [5.0]), [0.0, 5.0], atol=1e-14)

    def test_oblique(self):
        # oracle: normal equations M M^T lam = w by hand; M M^T = 25, lam = 0.2
        x = least_norm_solution([[3.0, 4.0]], [5.0])
        assert_allclose(x, [0.6, 0.8], atol=1e-14)
        assert abs(np.linalg.norm(x) - 1.0) < 1e-14

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            least_norm_solution([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])


class TestCholeskySpd:
    def test_scalar(self):
        assert_allclose(cholesky_spd([[0.64]]), [[0.8]], rtol=1e-15)

    def test_indefinite(self):
        with pytest.raises(NotSPD):
            cholesky_spd([[0.0, 1.0], [1.0, 0.0]])


class TestLogSurfaceConstant:
    def test_known_small_dimensions(self):
        # Gamma(1/2) = sqrt(pi), Gamma(1) = 1, Gamma(3/2) = sqrt(pi)/2
        assert_allclose(log_surface_constant(0), math.log(2.0), rtol=1e-15)
        assert_allclose(log_surface_constant(1), math.log(2.0 * math.pi), rtol=1e-15)
        assert_allclose(log_surface_constant(2), math.log(4.0 * math.pi), rtol=1e-15)

    def test_matches_linear_domain_formula(self):
        for j in range(51):
            direct = 2.0 * math.pi ** ((j + 1) / 2.0) / gamma((j + 1) / 2.0)
            assert_allclose(math.exp(log_surface_constant(j)), direct, rtol=1e-12)

    def test_no_overflow_for_huge_dimension(self):
        val = log_surface_constant(10**7)
        assert np.isfinite(val)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_surface_constant(-1)
