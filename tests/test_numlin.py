import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import solve_triangular
from scipy.special import gamma

from slicemean import (
    AffineProblem,
    ProjectionNotOnto,
    RankDeficient,
    kernel_onb,
    log_surface_constant,
    numlin,
    validate,
)
from slicemean.affine_model import least_norm_center
from slicemean.numlin import StackedQR, _matmul, solve_lower


def least_norm(q, w):
    """Minimal-norm solution of q x = w, through least_norm_center at q's width."""
    q = np.atleast_2d(np.asarray(q, dtype=float))
    return least_norm_center(AffineProblem(q=q, w0=w, k=1), q.shape[1])


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
    x = least_norm(m, w)
    assert_allclose(m @ x, w, atol=1e-10)
    basis = kernel_onb(m)
    # minimal-norm solutions carry no kernel component
    assert np.abs(basis.T @ x).max() <= 1e-10


def test_solve_lower_matches_scipy():
    rng = np.random.default_rng(4)
    low = np.tril(rng.standard_normal((6, 6))) + 3.0 * np.eye(6)
    b = rng.standard_normal(6)
    assert_allclose(solve_lower(low, b), solve_triangular(low, b, lower=True), rtol=1e-13)
    with pytest.raises(ValueError):
        solve_lower(low, b[:5])


class TestLeastNorm:
    def test_single_coordinate(self):
        assert_allclose(least_norm([[0.0, 1.0]], [5.0]), [0.0, 5.0], atol=1e-14)

    def test_oblique(self):
        # oracle: normal equations M M^T lam = w by hand; M M^T = 25, lam = 0.2
        x = least_norm([[3.0, 4.0]], [5.0])
        assert_allclose(x, [0.6, 0.8], atol=1e-14)
        assert abs(np.linalg.norm(x) - 1.0) < 1e-14

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            least_norm([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])


class TestStackedQRRules:
    """Each result of the QR refuses to exist where its rank rule fails."""

    def test_center_needs_full_row_rank(self):
        # the rows are dependent to 1e-13: the solve returned entries near 2e13
        qr = StackedQR(np.array([[1.0, 2.0, 0.0], [2.0, 4.0 + 1e-13, 0.0]]), 1)
        with pytest.raises(RankDeficient, match=r"^rank < 2 on the first 3 column\(s\) of Q$"):
            qr.center(np.array([1.0, 1.0]))

    def test_gram_factor_needs_the_onto_margin(self):
        # ker [1, 0] is the x2 axis, which misses R^1: the factor was [[0.]]
        qr = StackedQR(np.array([[1.0, 0.0]]), 1)
        with pytest.raises(ProjectionNotOnto) as exc:
            qr.gram_factor()
        assert str(exc.value) == (
            "the kernel of the first 2 column(s) of Q does not project onto the first "
            "1 coordinate(s) (sigma_m/sigma_1 of Q 1, sigma_min of R22 0)"
        )

    def test_gram_factor_names_a_rank_failure(self):
        qr = StackedQR(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]), 1)
        with pytest.raises(RankDeficient, match=r"^rank < 2 on the first 3 column\(s\) of Q \("):
            qr.gram_factor()


class TestStackedQRWork:
    """Each factorization's work is done once, and only where a result needs it."""

    def test_margin_from_r_alone_has_the_same_bytes(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            m, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            n = int(rng.integers(1, 60))
            q = rng.standard_normal((m, n))
            a = np.hstack([q.T, np.eye(n, k)])
            assert np.linalg.qr(a, mode="r").tobytes() == StackedQR(q, k).r.tobytes()
            assert numlin._stacked_margin(q, k).hex() == StackedQR(q, k).margin.hex()

    def test_margin_takes_one_svd(self, monkeypatch):
        # validate reads the width's margin in gram_factor and again itself
        shapes = []
        ratio_of = numlin._singular_ratio

        def counted(r):
            shapes.append(r.shape)
            return ratio_of(r)

        monkeypatch.setattr(numlin, "_singular_ratio", counted)
        qr = StackedQR(np.array([[3.0, 4.0]]), 1)
        qr.gram_factor()
        first = qr.margin
        assert qr.margin == first
        assert shapes == [(2, 2)]

    def test_u_is_formed_only_for_center(self, monkeypatch):
        # ker Q_N misses R^1 for N < 7 (the row starts with a 1): after the
        # failed margin at N = 4 the scan reads N = 5 and 6 from R alone
        modes = []
        qr_of = np.linalg.qr

        def counted(a, mode="reduced"):
            modes.append(mode)
            return qr_of(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", counted)
        validated = validate(AffineProblem(q=[[1.0, 0, 0, 0, 0, 0, 1.0]], w0=[1.0], k=1))
        assert validated.n_min == 7
        assert modes == ["reduced", "reduced", "r", "r"]


class TestMatmul:
    """``_matmul`` gives ``@``'s shape and bytes; only inner dimension 1 is
    computed another way."""

    @staticmethod
    def assert_same(a, b):
        want, got = a @ b, _matmul(a, b)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_column_times_one_by_one(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((1000, 1))
        a[:3, 0] = [-0.0, 0.0, -1e-300]
        for c in ([[1.3]], [[-0.7]], [[0.0]], [[-0.0]]):
            self.assert_same(a, np.array(c))

    def test_stacked_columns_times_a_vector(self):
        # a k = 1 quadrature pass evaluates (radial, 2 directions, 1) points;
        # 8 radial nodes stay on @, 512 take the multiply
        rng = np.random.default_rng(2)
        for rows in (8, 512):
            a = rng.standard_normal((rows, 2, 1))
            for t in ([0.9], [-2.5], [0.0]):
                self.assert_same(a, np.array(t))

    def test_one_point(self):
        self.assert_same(np.array([0.3]), np.array([-1.7]))

    @pytest.mark.parametrize("rows", [1, 1000])
    def test_negative_zero_product_is_positive_zero(self, rows):
        # [[-1.0]] @ [0.0] is +0.0; the bare product is -0.0
        got = _matmul(np.full((rows, 1), -1.0), np.array([0.0]))
        assert got.tobytes() == np.zeros(rows).tobytes()
        assert not np.signbit(got).any()

    @pytest.mark.parametrize("k", [2, 3])
    def test_wider_products_go_to_matmul(self, k):
        calls = []

        class Recorded(np.ndarray):
            def __matmul__(self, other):
                calls.append(other.shape)
                return np.asarray(self) @ other

        rng = np.random.default_rng(k)
        a, t, c = rng.standard_normal((50, k)), rng.standard_normal(k), rng.standard_normal((k, k))
        for b in (t, c):
            got = _matmul(a.view(Recorded), b)
            assert np.asarray(got).tobytes() == (a @ b).tobytes()
        assert calls == [(k,), (k, k)]
        # a one-column product above _MATMUL_ROWS does not reach it
        column = rng.standard_normal((numlin._MATMUL_ROWS + 1, 1))
        _matmul(column.view(Recorded), t[:1])
        assert len(calls) == 2


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
