import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slicemean import (
    BoundedCutoff,
    CosLinear,
    CounterexampleG,
    IndicatorBall,
    McConfig,
    Monomial,
    SinLinear,
    gaussian_limit,
    kernel_projection_norm_sq,
    known_limit,
)
from slicemean.testfns import _REGISTRY, LP_ONE, from_config


class TestEval:
    def test_cos_at_zero(self):
        assert CosLinear(t=[2.0]).eval(np.array([0.0])) == 1.0

    def test_monomial(self):
        assert Monomial(alpha=(2,)).eval(np.array([3.0])) == 9.0

    @pytest.mark.parametrize("alpha", [(), (0,), (1,), (2,), (0, 0), (1, 1), (0, 2), (2, 1),
                                       (1, 0, 2), (2, 2, 2), (0, 1, 0)])
    def test_monomial_keeps_the_bytes_of_the_product_of_powers(self, alpha):
        # the reference is the formula 1.0 * x_1**a_1 * x_2**a_2 ... over all
        # exponents, zero ones included, on entries with zeros of both signs
        entries = np.array([0.0, -0.0, 1.5, -2.25, 3.0, -0.1, 7.0, -1e-3])
        rng = np.random.default_rng(len(alpha) + sum(alpha))
        k = max(len(alpha), 1)
        fn = Monomial(alpha=alpha)

        def reference(x):
            out = np.ones(x.shape[:-1])
            for i, a in enumerate(alpha):
                out *= x[..., i] ** a
            return out

        for shape in [(k,), (9, k), (4, 6, k)]:
            x = rng.choice(entries, size=shape)
            got, want = fn.eval(x), reference(x)
            assert isinstance(got, np.ndarray) and got.shape == shape[:-1]
            assert got.tobytes() == want.tobytes()

    def test_counterexample_value(self):
        # direct evaluation: e^{1/2} / 2
        got = CounterexampleG().eval(np.array([1.0]))
        assert_allclose(got, math.exp(0.5) / 2.0, rtol=1e-14)

    def test_counterexample_overflow_safe_region(self):
        # naive e^{x^2/2}/(1+x^2) overflows at |x| ~ 37.66; the quotient form
        # must still return the correct finite value just above that
        x = np.array([37.7])
        got = CounterexampleG().eval(x)
        expected = math.exp(0.5 * 37.7**2 - math.log1p(37.7**2))
        assert np.isfinite(got) and got == pytest.approx(expected)

    def test_vectorized_shapes(self):
        fn = CosLinear(t=[1.0, -1.0])
        x = np.zeros((5, 7, 2))
        assert fn.eval(x).shape == (5, 7)

    def test_indicator(self):
        fn = IndicatorBall(center=[0.0, 0.0], radius=1.0)
        vals = fn.eval(np.array([[0.5, 0.5], [1.0, 1.0]]))
        assert_allclose(vals, [1.0, 0.0])

    def test_cutoff_clamps(self):
        fn = BoundedCutoff(inner=Monomial(alpha=(2,)), cap=4.0)
        assert_allclose(fn.eval(np.array([[1.0], [10.0]])), [1.0, 4.0])


def _registry_functions():
    """One instance of every registry kind, with the k it acts on."""
    return [
        (CosLinear(t=[0.8, -0.5, 0.3]), 3),
        (SinLinear(t=[1.2, 0.4]), 2),
        (Monomial(alpha=(1,)), 1),
        (Monomial(alpha=(2, 1, 0)), 3),
        (IndicatorBall(center=[0.2, -0.1, 0.3], radius=1.0), 3),
        (BoundedCutoff(inner=Monomial(alpha=(1, 2)), cap=0.5), 2),
        (CounterexampleG(), 1),
    ]


@pytest.mark.parametrize("fn, k", _registry_functions(), ids=lambda v: getattr(v, "kind", str(v)))
def test_every_function_evaluates_read_only_nodes(fn, k):
    # quadrature hands every function the read-only node sets its slice
    # keeps: an eval that wrote into its input would raise, and the values
    # are those of a writable copy
    assert {type(f) for f, _ in _registry_functions()} >= set(_REGISTRY.values())
    x = np.random.default_rng(k).standard_normal((5, 7, k))
    x.flags.writeable = False
    got = fn.eval(x)
    assert np.array_equal(got, fn.eval(x.copy()))
    assert got.shape == (5, 7)


class TestMetadata:
    def test_boundedness_declarations_hold(self):
        rng = np.random.default_rng(123)
        cases = [
            (CosLinear(t=[1.3]), 1.0, 1),
            (SinLinear(t=[-0.4]), 1.0, 1),
            (IndicatorBall(center=[0.0], radius=2.0), 1.0, 1),
            (BoundedCutoff(inner=Monomial(alpha=(4,)), cap=7.0), 7.0, 1),
        ]
        for fn, bound, k in cases:
            x = 50.0 * rng.standard_normal((10_000, k))
            assert np.abs(fn.eval(x)).max() <= bound + 1e-12

    def test_counterexample_is_l1_only_and_refused(self):
        g = CounterexampleG()
        assert g.lp_class == LP_ONE
        assert not g.in_lp_above_one

    def test_monomial_metadata(self, fix_c):
        assert known_limit(Monomial(alpha=(1, 1)), fix_c) is not None
        assert known_limit(Monomial(alpha=(3, 0)), fix_c) is None
        assert Monomial(alpha=(2,)).in_lp_above_one

    def test_fits(self):
        # a direction or center has exactly k entries, a monomial at most k
        for fn in (CosLinear(t=[1.0, 2.0]), SinLinear(t=[0.0, 1.0]),
                   IndicatorBall(center=[0.0, 0.0], radius=1.0),
                   BoundedCutoff(inner=CosLinear(t=[1.0, 0.0]), cap=1.0)):
            assert [fn.fits(k) for k in (1, 2, 3)] == [False, True, False]
        assert [Monomial(alpha=(0, 2)).fits(k) for k in (1, 2, 3)] == [False, True, True]
        assert CounterexampleG().fits(1)

    def test_analytic_declarations(self):
        # entire integrands start quadrature on the coarse radial rule; a
        # kink (a ball's edge, a clamp) keeps the fine start whatever the inner
        for fn in (CosLinear(t=[1.0]), SinLinear(t=[1.0]), Monomial(alpha=(2,))):
            assert fn.analytic
        for fn in (IndicatorBall(center=[0.0], radius=1.0),
                   BoundedCutoff(inner=CosLinear(t=[1.0]), cap=0.5), CounterexampleG()):
            assert not fn.analytic


class TestKnownLimit:
    def test_cos_fix_b(self, fix_b):
        got = known_limit(CosLinear(t=[1.0]), fix_b)
        assert_allclose(got, math.exp(-0.32) * math.cos(0.6), rtol=1e-13)

    def test_monomial_centered_variance(self, fix_a0):
        assert_allclose(known_limit(Monomial(alpha=(2,)), fix_a0), 1.0, rtol=1e-12)

    def test_monomial_mean(self, fix_b):
        assert_allclose(known_limit(Monomial(alpha=(1,)), fix_b), 0.6, atol=1e-13)

    def test_cross_moment(self, fix_c):
        # mean (0.5, 0.5), covariance [[0.75, -0.25], [-0.25, 0.75]]
        got = known_limit(Monomial(alpha=(1, 1)), fix_c)
        assert_allclose(got, 0.5 * 0.5 - 0.25, atol=1e-12)

    def test_absent_for_high_degree(self, fix_b):
        assert known_limit(Monomial(alpha=(3,)), fix_b) is None
        assert known_limit(IndicatorBall(center=[0.0], radius=1.0), fix_b) is None

    def test_sin_limit(self, fix_b):
        got = known_limit(SinLinear(t=[2.0]), fix_b)
        assert_allclose(got, math.exp(-0.5 * 4.0 * 0.64) * math.sin(1.2), rtol=1e-13)

    def test_matches_projection_route(self, fix_b, fix_a0, fix_c):
        # the Gram quadratic form and the kernel-projection norm give the
        # same damping factor
        rng = np.random.default_rng(77)
        for validated in (fix_b, fix_a0, fix_c):
            for _ in range(20):
                t = rng.standard_normal(validated.k)
                via_gram = known_limit(CosLinear(t=t), validated)
                damp = math.exp(-0.5 * kernel_projection_norm_sq(validated, t))
                via_proj = damp * math.cos(float(t @ validated.z0_cyl))
                assert_allclose(via_gram, via_proj, rtol=1e-10, atol=1e-12)

    def test_matches_monte_carlo(self, fix_b, fix_a0):
        rng = np.random.default_rng(31)
        for validated in (fix_a0, fix_b):
            for _ in range(10):
                t = rng.standard_normal(validated.k)
                fn = CosLinear(t=t)
                closed = known_limit(fn, validated)
                mc = gaussian_limit(
                    validated,
                    fn,
                    McConfig(n_samples=1_000_000, seed=int(rng.integers(0, 2**63))),
                )
                assert abs(mc.value - closed) <= 4.0 * mc.err_estimate

    def test_matches_monte_carlo_two_dimensional(self, fix_c):
        rng = np.random.default_rng(32)
        for _ in range(5):
            t = rng.standard_normal(2)
            fn = CosLinear(t=t)
            closed = known_limit(fn, fix_c)
            mc = gaussian_limit(
                fix_c, fn, McConfig(n_samples=500_000, seed=int(rng.integers(0, 2**63)))
            )
            assert abs(mc.value - closed) <= 4.0 * mc.err_estimate


class TestFromConfig:
    def test_round_trip_kinds(self):
        specs = [
            {"kind": "cos_linear", "params": {"t": [1.0, 2.0]}},
            {"kind": "sin_linear", "params": {"t": [0.5]}},
            {"kind": "monomial", "params": {"alpha": [2]}},
            {"kind": "indicator_ball", "params": {"center": [0.0], "radius": 1.5}},
            {
                "kind": "bounded_cutoff",
                "params": {"inner": {"kind": "monomial", "params": {"alpha": [2]}}, "cap": 3.0},
            },
            {"kind": "counterexample_g", "params": {}},
        ]
        for spec in specs:
            fn = from_config(spec)
            assert fn.kind == spec["kind"]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            from_config({"kind": "polynomialish", "params": {}})
