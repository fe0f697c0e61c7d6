import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_jacobi

from slicemean.rules import (
    beta_radial_rule,
    gauss_hermite_prob,
    gauss_legendre_panel,
    sphere_directions,
)


def beta_moment(k, exponent, p):
    """E[u^p] for u ~ Beta(k/2, exponent + 1), as the exact product
    prod_{i<p} (a+i)/(a+b+i) (independent of the canonical-moment recurrence
    the rule is built from, and free of the cancellation of log-Beta
    differences at large exponents)."""
    a, b = k / 2.0, exponent + 1.0
    return math.prod((a + i) / (a + b + i) for i in range(p))


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

    def test_single_node(self):
        u, w = beta_radial_rule(2, 3.0, 1)
        assert_allclose(w, [1.0])
        assert_allclose(u, beta_moment(2, 3.0, 1), rtol=1e-13)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            beta_radial_rule(1, -1.5, 8)
        with pytest.raises(ValueError):
            beta_radial_rule(1, 1.0, 0)


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

    @pytest.mark.parametrize("spec", [64, (8, 8), [6, 10]])
    def test_k3_moments(self, spec):
        pts, w = sphere_directions(3, spec)
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
    def test_legendre_panel(self):
        x, w = gauss_legendre_panel(1.0, 3.0, 16)
        assert_allclose(w.sum(), 2.0, rtol=1e-14)
        assert_allclose((w * x**2).sum(), (27.0 - 1.0) / 3.0, rtol=1e-13)

    def test_hermite_prob_moments(self):
        x, w = gauss_hermite_prob(32)
        assert_allclose(w.sum(), 1.0, rtol=1e-14)
        assert_allclose((w * x**2).sum(), 1.0, rtol=1e-12)
        assert_allclose((w * x**4).sum(), 3.0, rtol=1e-12)
        # characteristic function of the standard normal at t = 1
        assert_allclose((w * np.cos(x)).sum(), np.exp(-0.5), rtol=1e-12)
