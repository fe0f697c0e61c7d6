import gc
import math
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slicemean import (
    AffineProblem,
    BelowMinN,
    CosLinear,
    Infeasible,
    Monomial,
    ProjectionNotOnto,
    QuadConfig,
    RankDeficient,
    SliceEmpty,
    build_slice,
    gaussian_limit,
    known_limit,
    slice_mean_quadrature,
    validate,
    weight,
)
from slicemean import numlin
from slicemean.slice_geometry import _SLICES


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

    @pytest.mark.parametrize("n", [-5, -1, 0])
    def test_nonpositive_n_below_min_builds_nothing(self, monkeypatch, late_support, n):
        # N < k + m + 2 is refused before any factorization: a negative N
        # would wrap the column slicing of the 12-column matrix
        built = []

        class Counting(numlin.StackedQR):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(numlin, "StackedQR", Counting)
        with pytest.raises(BelowMinN, match=rf"^N = {n} < n_min = 11$"):
            build_slice(late_support, n)
        assert built == []

    @pytest.mark.parametrize("n", [6, 9, 10])
    def test_zero_row_is_rank_deficient(self, late_support, n):
        # k + m + 2 = 5 <= N < n_min = 11: Q_N has a zero row, and the QR's
        # own center names the lost rank
        with pytest.raises(RankDeficient, match=rf"^rank < 2 on the first {n} column\(s\) of Q$"):
            build_slice(late_support, n)

    def test_one_factorization_per_truncation(self, monkeypatch, rank_dip):
        # below the support width (7) one StackedQR gives every per-N
        # quantity, and a repeat build takes none; from the width on, and for
        # the limit, validate's is reused. The problem is validated afresh:
        # the session fixture keeps the slices earlier tests built
        fresh = validate(rank_dip.problem)
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
        count, first = taken(lambda: build_slice(fresh, 5))
        assert count == 1
        count, repeat = taken(lambda: build_slice(fresh, 5))
        assert count == 0 and repeat is first
        count, geom = taken(lambda: build_slice(fresh, 8))
        assert count == 0 and geom.chol is fresh.chol
        assert not fresh.chol.flags.writeable
        assert taken(lambda: known_limit(fn, fresh))[0] == 0
        assert taken(lambda: gaussian_limit(fresh, fn))[0] == 0

    def test_exponent(self, fix_b):
        geom = build_slice(fix_b, 100)
        assert geom.exponent == (100 - 1 - 1 - 1 - 1) / 2.0

    def test_center_fields(self, fix_b):
        geom = build_slice(fix_b, 64)
        assert_allclose(geom.x0, [0.6], atol=1e-14)
        assert_allclose(geom.a_z, math.sqrt(64.0 - 1.0), rtol=1e-14)


def _on_eight_threads(fn):
    """[fn(0), ..., fn(7)] run on 8 threads at once, switching often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            return list(pool.map(fn, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)


class TestSliceMemo:
    """build_slice keeps each problem's last _SLICES geometries, by N."""

    def test_repeat_returns_the_kept_read_only_geometry(self, rank_dip):
        fresh = validate(rank_dip.problem)
        for n in (5, 7, 8):  # below, at and above the support width 7
            geom = build_slice(fresh, n)
            assert build_slice(fresh, n) is geom
            assert build_slice(fresh, float(n)) is geom
            assert not geom.x0.flags.writeable and not geom.chol.flags.writeable
        assert list(fresh._slices) == [5, 7, 8]

    def test_oldest_slice_dropped_beyond_the_cap(self, fix_b):
        fresh = validate(fix_b.problem)
        first = build_slice(fresh, 10)
        for n in range(11, 10 + _SLICES):
            build_slice(fresh, n)
        assert build_slice(fresh, 10) is first
        build_slice(fresh, 10 + _SLICES)
        assert len(fresh._slices) == _SLICES and 10 not in fresh._slices
        rebuilt = build_slice(fresh, 10)
        assert rebuilt is not first and rebuilt.a_z == first.a_z
        assert 11 not in fresh._slices

    def test_refusals_are_not_kept(self, rank_dip, late_support):
        # each repeat raises again, the same error with the same message
        fresh = validate(rank_dip.problem)
        late = validate(late_support.problem)
        for validated, n, error in ((fresh, 6, RankDeficient), (fresh, 3, BelowMinN),
                                    (late, 9, RankDeficient), (fresh, 2**53 + 1, Infeasible)):
            messages = []
            for _ in range(2):
                with pytest.raises(error) as info:
                    build_slice(validated, n)
                messages.append(str(info.value))
            assert messages[0] == messages[1]
        assert fresh._slices == {} and late._slices == {}

    def test_threads_share_one_geometry_per_n(self):
        # eight threads build the same 16 N at once on one problem, most
        # below its support width of 60, where each build takes a QR
        rng = np.random.default_rng(31)
        problem = AffineProblem(q=rng.standard_normal((2, 60)), w0=[0.3, -0.2], k=2)
        fresh = validate(problem)
        ns = list(range(fresh.n_min, fresh.n_min + _SLICES))
        barrier = threading.Barrier(8)

        def build(offset):
            barrier.wait()
            return {n: build_slice(fresh, n) for n in ns[offset:] + ns[:offset]}

        built = _on_eight_threads(build)
        for n in ns:
            assert all(b[n] is fresh._slices[n] for b in built)
        assert len(fresh._slices) == _SLICES

    def test_threads_past_the_cap_raise_nothing(self):
        # eviction races insertion: every build still returns its own N's
        # slice, and the memo stays at its cap
        problem = AffineProblem(q=[[0.0, 1.0]], w0=[0.5], k=1)
        fresh = validate(problem)
        barrier = threading.Barrier(8)

        def build(offset):
            barrier.wait()
            return [build_slice(fresh, n).n == n for n in range(4 + offset, 4 + offset + 200, 3)]

        assert all(all(ok) for ok in _on_eight_threads(build))
        assert len(fresh._slices) == _SLICES

    def test_kept_slices_are_freed_with_their_problem(self):
        # a geometry holds no reference back to its problem, so the memo
        # makes no cycle: dropping the problem frees everything by
        # reference count, with the cycle collector off
        fresh = validate(AffineProblem(q=[[0.0, 1.0, 0.5]], w0=[0.5], k=2))
        for n in (5, 6, 64):
            slice_mean_quadrature(build_slice(fresh, n), CosLinear(t=[0.4, 0.7]))
        refs = [weakref.ref(fresh)] + [weakref.ref(g) for g in fresh._slices.values()]
        gc.disable()
        try:
            del fresh
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


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
