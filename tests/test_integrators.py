import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import dataclasses
import numpy as np
import pytest
from numpy.testing import assert_allclose

from slicemean import (
    AffineProblem,
    BoundedCutoff,
    CosLinear,
    CounterexampleG,
    InadmissibleFunction,
    IndicatorBall,
    McConfig,
    Monomial,
    NonFinite,
    QuadConfig,
    SinLinear,
    UnsupportedDimension,
    build_slice,
    counterexample_probe,
    gaussian_limit,
    kernel_onb,
    known_limit,
    slice_mean_mc,
    slice_mean_quadrature,
    validate,
)
from slicemean import integrators
from slicemean.affine_model import truncated_matrix
from slicemean.integrators import (
    _STEP_FLOATS, _SUM_FIRST_MAX, _gaussian_mc, _ordered_map, _quad_pass, _shard_rng, _shift_rows)
from slicemean.rules import beta_radial_rule
from slicemean.slice_geometry import _SLICES


def _full_basis_mc(validated, geom, phi, n_samples, seed):
    """Reference slice MC: N - m normals per sample, pushed through an
    N-column orthonormal kernel basis and scaled to the slice radius."""
    mat_top = kernel_onb(truncated_matrix(validated.problem, geom.n))[: geom.k]
    g = np.random.default_rng(seed).standard_normal((n_samples, mat_top.shape[1]))
    scale = geom.a_z / np.linalg.norm(g, axis=1)
    vals = phi.eval(geom.x0 + scale[:, None] * (g @ mat_top.T))
    return vals.mean(), vals.std(ddof=1) / math.sqrt(n_samples)


def _wave_factor(geom, t):
    """0F1(; (N-m)/2; -a^2 |C^T t|^2 / 4), summed here (scipy's hyp0f1 is NaN
    at large b): E[cos<t,x>] on the slice is cos<t,x0> times it, and
    E[sin<t,x>] is sin<t,x0> times it (the slice is symmetric about x0)."""
    b = 0.5 * (geom.n - geom.m)
    z = -0.25 * geom.a_z**2 * float(np.sum((geom.chol.T @ t) ** 2))
    terms, term, j = [1.0], 1.0, 0
    while abs(term) > 1e-18 or (b + j) * (j + 1.0) <= abs(z):
        term *= z / ((b + j) * (j + 1.0))
        j += 1
        terms.append(term)
    return math.fsum(terms)


def _per_pass_reference(geom, phi, cfg):
    """slice_mean_quadrature with one ``_quad_pass`` per rule: the first fine
    pass, one check pass per axis with that axis's count halved, then one pass
    per doubling. Returns (value, err_estimate, converged, evaluations)."""
    counts = [8 if phi.analytic else 32, 64]
    caps = (512, 256)
    value, total = _quad_pass(geom, phi, *counts)
    errs = [0.0, 0.0]
    axes = (0,) if geom.k == 1 else (0, 1)
    for axis in axes:
        half = list(counts)
        half[axis] //= 2
        check, n_evals = _quad_pass(geom, phi, *half)
        total += n_evals
        errs[axis] = abs(value - check)
    while True:
        tol = cfg.target_rel_err * max(1.0, abs(value))
        converged = errs[0] + errs[1] <= tol
        missing = [] if converged else [
            axis for axis in axes if counts[axis] < caps[axis]
            and (errs[axis] > 0.5 * tol or errs[1 - axis] <= tol)]
        if not missing:
            return value, errs[0] + errs[1], converged, total
        axis = max(missing, key=errs.__getitem__)
        counts[axis] *= 2
        coarse = value
        value, n_evals = _quad_pass(geom, phi, *counts)
        total += n_evals
        errs[axis] = abs(value - coarse)


class TestQuadrature:
    @pytest.mark.parametrize("k, m, s", [(1, 1, 20), (2, 2, 12), (3, 2, 14)])
    def test_steps_match_the_per_pass_reference(self, k, m, s):
        # a step evaluates the first fine pass and its radial check together,
        # and at k = 2 reads the angular check from the fine values; each
        # result must keep the bits of the pass-by-pass algorithm, analytic
        # and kinked, below and above the support width
        rng = np.random.default_rng(300 + k)
        while True:
            validated = validate(AffineProblem(
                q=rng.standard_normal((m, s)), w0=0.3 * rng.standard_normal(m), k=k))
            if validated.n_min < s - 2:
                break
        fns = [CosLinear(t=rng.standard_normal(k)), SinLinear(t=2.0 * rng.standard_normal(k)),
               Monomial(alpha=(2,) + (1,) * (k - 1)),
               IndicatorBall(center=0.3 * rng.standard_normal(k), radius=1.0),
               BoundedCutoff(inner=CosLinear(t=1.5 * rng.standard_normal(k)), cap=0.5)]
        for n in (validated.n_min + 1, s - 1, 4 * s):
            geom = build_slice(validated, n)
            for fn in fns:
                for target in (1e-9, 1e-11):
                    cfg = QuadConfig(target_rel_err=target)
                    res = slice_mean_quadrature(geom, fn, cfg)
                    value, err, converged, evals = _per_pass_reference(geom, fn, cfg)
                    assert (res.value, res.err_estimate, res.converged) == (value, err, converged)
                    # k = 2 evaluates no angular check: (radial nodes) x 32 fewer
                    skipped = (8 if fn.analytic else 32) * 32 if k == 2 else 0
                    assert res.n_evals == evals - skipped

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
        validated = validate(
            AffineProblem(q=[[0.0, 0.0, 0.0, 1.0]], w0=[1.0], k=3)
        )
        geom = build_slice(validated, 32)
        one = slice_mean_quadrature(geom, Monomial(alpha=(0, 0, 0)))
        assert abs(one.value - 1.0) < 1e-12
        # coordinate second moment on the slice sphere: a^2/(N-1)
        x2 = slice_mean_quadrature(geom, Monomial(alpha=(2, 0, 0)))
        assert_allclose(x2.value, (32.0 - 1.0) / 31.0, rtol=1e-10)

    def test_refinement_reuses_fine_pass(self):
        # each axis is checked against its own count halved; an axis that
        # misses doubles, so its new check is the previous fine pass and no
        # pass is evaluated twice. This k = 3 cosine is analytic, so it starts
        # at 8 radial nodes checked against 4, both on the same 64 directions,
        # and its angular check (8 radial nodes on 36 directions of their
        # own) is evaluated in the same call: one flat step of 12 x 64 + 8 x 36
        # points. The direction estimate is the larger miss: the budget
        # doubles first (64 -> 128 -> 256, its cap), keeping the radial
        # estimate, and then the radial count doubles once (8 -> 16), checked
        # against the (8, 256) pass that came before it
        validated = validate(AffineProblem(q=[[0.0, 0.0, 0.0, 1.0]], w0=[1.0], k=3))
        geom = build_slice(validated, 64)
        shapes = []

        class Counted(CosLinear):
            def eval(self, x):
                shapes.append(np.shape(x)[:-1])
                return super().eval(x)

        fn = Counted(t=[0.8, -0.5, 0.3])
        res = slice_mean_quadrature(geom, fn, QuadConfig(target_rel_err=1e-11))
        # (radial nodes, directions); a k = 3 budget b gives round(sqrt(b))^2 directions
        assert shapes == [(12 * 64 + 8 * 36,), (8, 121), (8, 256), (16, 256)]
        assert res.n_evals == sum(math.prod(s) for s in shapes) == 8_168
        angular_check, _ = _quad_pass(geom, fn, 8, 128)
        previous, _ = _quad_pass(geom, fn, 8, 256)
        fine, _ = _quad_pass(geom, fn, 16, 256)
        err_r, err_a = abs(fine - previous), abs(previous - angular_check)
        assert res.value == fine
        assert res.err_estimate == err_r + err_a
        assert err_r <= 1e-15
        assert res.converged

    def test_k1_refines_radially_without_an_angular_check(self, fix_b):
        # two half-lines whatever the angular count: k = 1 takes no angular
        # check pass, and the kink of a ball refines the radial axis to its
        # cap of 512 nodes, each check the previous fine pass, then reports
        # that it missed its target. The first fine pass (32) and its check
        # (16) are evaluated as one step of 48
        shapes = []

        class Counted(IndicatorBall):
            def eval(self, x):
                shapes.append(np.shape(x)[:-1])
                return super().eval(x)

        geom = build_slice(fix_b, 64)
        fn = Counted(center=[0.2], radius=1.0)
        res = slice_mean_quadrature(geom, fn, QuadConfig(target_rel_err=1e-11))
        assert shapes == [(n, 2) for n in (48, 64, 128, 256, 512)]
        fine, _ = _quad_pass(geom, fn, 512, 64)
        previous, _ = _quad_pass(geom, fn, 256, 64)
        assert res.value == fine
        assert res.err_estimate == abs(fine - previous)
        assert res.err_estimate > 1e-11
        assert not res.converged

    @pytest.mark.parametrize("case", ["bounded_cutoff_k2", "indicator_ball_k3"])
    def test_kinked_integrands_keep_the_fine_radial_start(self, fix_c, case):
        # neither integrand is analytic, so both start at 32 radial nodes
        # checked against 16, and walk both axes to their caps; the values
        # are pinned to the bits of the radial rule whose nodes take one
        # Newton step on its bidiagonal factor, and may not move by a bit.
        # The k = 2 count leaves out the (32, 32) angular check, which is
        # read from the fine pass's values
        k3 = validate(AffineProblem(q=[[0.0, 0.0, 0.0, 1.0]], w0=[1.0], k=3))
        validated, fn, pinned = {
            "bounded_cutoff_k2": (
                fix_c, BoundedCutoff(inner=CosLinear(t=[1.5, -0.7]), cap=0.5),
                (0.15028918160657956, 1.1986887407722246e-05, 261_120)),
            "indicator_ball_k3": (
                k3, IndicatorBall(center=[0.3, -0.2, 0.1], radius=1.0),
                (0.18071850858480604, 0.001898681118159301, 261_376)),
        }[case]
        assert not fn.analytic
        res = slice_mean_quadrature(build_slice(validated, 64), fn)
        assert (res.value, res.err_estimate, res.n_evals) == pinned

    def test_smooth_k1_converges(self, fix_b):
        res = slice_mean_quadrature(build_slice(fix_b, 64), CosLinear(t=[0.9]),
                                    QuadConfig(target_rel_err=1e-11))
        assert res.converged
        assert res.err_estimate <= 1e-11

    @pytest.mark.parametrize("n", [32, 256, 4096])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cosine_meets_finite_n_closed_form(self, k, n):
        # |t| runs to 4 for k <= 2 and to 2 for k = 3
        rng = np.random.default_rng(40 + k)
        m, s = {1: (1, 100), 2: (2, 6), 3: (2, 8)}[k]
        while True:
            validated = validate(AffineProblem(
                q=rng.standard_normal((m, s)), w0=0.5 * rng.standard_normal(m), k=k))
            if validated.n_min <= 32:
                break
        direction = rng.standard_normal(k)
        direction /= np.linalg.norm(direction)
        geom = build_slice(validated, n)
        for size in (0.8, 2.0 if k == 3 else 4.0):
            t = size * direction
            factor = _wave_factor(geom, t)
            for wave, phase in ((CosLinear, math.cos), (SinLinear, math.sin)):
                ref = phase(float(t @ geom.x0)) * factor
                for target in (1e-9, 1e-11):
                    res = slice_mean_quadrature(geom, wave(t=t), QuadConfig(target_rel_err=target))
                    err = abs(res.value - ref)
                    # a k = 3 wave at |t| = 2 stops at the 256-direction cap
                    # with converged False (its angular estimate is 6e-9 to
                    # 3e-8, its error 1.5e-12 to 1.4e-11); a result that says
                    # it missed may miss, but by no more than its own estimate
                    assert res.converged or (k == 3 and size == 2.0)
                    assert err <= target * max(1.0, abs(ref)) or (
                        not res.converged and err <= res.err_estimate)
                    if k == 3:
                        # an analytic wave starts at 8 radial nodes: 4,072 to
                        # 8,168 evaluations here
                        assert res.n_evals <= 10_000
                    if k == 3 and size == 2.0:
                        # the capped angular estimate alone misses the target,
                        # so the radial axis takes one doubling, no more
                        assert res.n_evals == 8_168

    def test_capped_axis_does_not_strand_the_other(self):
        # a k = 3 cosine whose angular estimate at the 256-direction cap
        # (7.5e-12) is within the 1e-11 target but whose radial estimate
        # (about 3e-12, the 4-node rule's error) puts the sum over it: the
        # radial axis doubles once more and the result converges (it stopped
        # at 4,072 evaluations with converged False when only an axis above
        # half the target could refine)
        validated = validate(AffineProblem(q=[
            [1.2425222410102619, -0.3745855409070993, 1.6389580354533575, -0.6766924278792744,
             1.267286254331846, 1.4657032939292025, -1.4611307572479162, 0.45510605824343703],
            [-1.0011088536090944, -1.1242171949224766, 0.12451012114052001, 0.8027057266852977,
             1.331091921893474, -0.32997866075627974, 0.9784733496202408, 0.5564865205794628]],
            w0=[-0.00379202217325479, -0.46386390873859756], k=3))
        t = np.array([-0.4311317998292771, 0.26745869614191076, 0.5163972447819677])
        geom = build_slice(validated, 256)
        res = slice_mean_quadrature(geom, CosLinear(t=t), QuadConfig(target_rel_err=1e-11))
        assert res.converged and res.err_estimate <= 1e-11
        assert res.n_evals == 8_168
        ref = math.cos(float(t @ geom.x0)) * _wave_factor(geom, t)
        assert abs(res.value - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_unsupported_dimension(self):
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
        geom_rot = dataclasses.replace(geom, chol=geom.chol @ o)
        rot = slice_mean_quadrature(geom_rot, fn)
        assert abs(rot.value - base.value) < 10.0 * max(base.err_estimate, 1e-15)

    def test_nonfinite_detected(self, fix_b):
        class Bad(Monomial):
            def eval(self, x):
                return np.full(np.asarray(x).shape[:-1], np.nan)

        with pytest.raises(NonFinite):
            slice_mean_quadrature(build_slice(fix_b, 16), Bad(alpha=(1,)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_one_nonfinite_node_of_the_first_step_raises(self, k, bad):
        # the last point of the first step's one evaluation: at k = 3 a node
        # of the angular check's block
        validated = validate(AffineProblem(q=[[0.0, 0.0, 0.0, 1.0]], w0=[1.0], k=k))

        class Bad(Monomial):
            def eval(self, x):
                vals = super().eval(x)
                vals.reshape(-1)[-1] = bad
                return vals

        with pytest.raises(NonFinite, match="^integrand returned a non-finite value inside "
                                            "the slice$"):
            slice_mean_quadrature(build_slice(validated, 64), Bad(alpha=(1,)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_node_of_zero_radial_weight_raises(self, fix_b, bad):
        # at N = 10^6 the 512-node rule's outer weights underflow to exactly 0,
        # so a weighted sum would not see the value; the finiteness test does
        geom = build_slice(fix_b, 10**6)
        _, lam = beta_radial_rule(1, geom.exponent, 512)
        node = int(np.flatnonzero(lam == 0.0)[0])

        class Bad(Monomial):
            def eval(self, x):
                vals = super().eval(x)
                vals[node, 0] = bad
                return vals

        with pytest.raises(NonFinite, match="^integrand returned a non-finite value inside "
                                            "the slice$"):
            _quad_pass(geom, Bad(alpha=(1,)), 512, 64)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_value_of_a_large_step_raises(self, fix_c, bad):
        # 64 radial nodes on 256 circle points: more values than
        # _SUM_FIRST_MAX, so they are tested entry by entry
        class Bad(Monomial):
            def eval(self, x):
                vals = super().eval(x)
                vals[-1, -1] = bad
                return vals

        assert 64 * 256 > _SUM_FIRST_MAX
        with pytest.raises(NonFinite, match="^integrand returned a non-finite value inside "
                                            "the slice$"):
            _quad_pass(build_slice(fix_c, 64), Bad(alpha=(1, 0)), 64, 256)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_finite_values_whose_sum_overflows_do_not_raise(self, k):
        # nor warn: the suite turns warnings into errors
        validated = validate(AffineProblem(q=[[0.0, 0.0, 0.0, 1.0]], w0=[1.0], k=k))

        class Huge(Monomial):
            def eval(self, x):
                return np.full(np.shape(x)[:-1], 1e308)

        res = slice_mean_quadrature(build_slice(validated, 64), Huge(alpha=()))
        assert res.value == pytest.approx(1e308, rel=1e-12) and math.isfinite(res.value)

    def test_plus_and_minus_inf_raise_without_a_warning(self, fix_b):
        class Bad(Monomial):
            def eval(self, x):
                vals = super().eval(x)
                vals[0, 0], vals[-1, -1] = np.inf, -np.inf
                return vals

        with pytest.raises(NonFinite, match="inside the slice"):
            slice_mean_quadrature(build_slice(fix_b, 64), Bad(alpha=(1,)))

    def test_quad_config_validation(self):
        with pytest.raises(ValueError):
            QuadConfig(target_rel_err=0.5)


def _bits(res):
    return (res.value, res.err_estimate, res.converged, res.n_evals)


class TestNodeMemo:
    """Each geometry keeps its quadrature steps' placed nodes, read-only,
    within _STEP_FLOATS floats."""

    @pytest.mark.parametrize("k, m, s", [(1, 1, 20), (2, 2, 12), (3, 2, 14)])
    def test_warm_results_keep_the_cold_bits(self, k, m, s):
        # every request on a shared slice, run twice, against the same
        # request on a slice of its own: analytic and kinked, below and
        # above the support width
        rng = np.random.default_rng(700 + k)
        while True:
            problem = AffineProblem(
                q=rng.standard_normal((m, s)), w0=0.3 * rng.standard_normal(m), k=k)
            shared = validate(problem)
            if shared.n_min < s - 2:
                break
        fns = [CosLinear(t=rng.standard_normal(k)), SinLinear(t=2.0 * rng.standard_normal(k)),
               Monomial(alpha=(2,) + (1,) * (k - 1)),
               IndicatorBall(center=0.3 * rng.standard_normal(k), radius=1.0),
               BoundedCutoff(inner=CosLinear(t=1.5 * rng.standard_normal(k)), cap=0.5)]
        for n in (shared.n_min + 1, s - 1, 4 * s):
            for target in (1e-9, 1e-11):
                cfg = QuadConfig(target_rel_err=target)
                cold = [_bits(slice_mean_quadrature(build_slice(validate(problem), n), fn, cfg))
                        for fn in fns]
                for _ in range(2):
                    geom = build_slice(shared, n)
                    assert [_bits(slice_mean_quadrature(geom, fn, cfg)) for fn in fns] == cold
            assert geom._steps

    def test_a_repeated_step_places_no_nodes(self, monkeypatch):
        # the k = 3 cosine of test_refinement_reuses_fine_pass: four steps,
        # 24,504 floats of nodes, all kept; a second request evaluates the
        # same read-only arrays and places nothing
        validated = validate(AffineProblem(q=[[0.0, 0.0, 0.0, 1.0]], w0=[1.0], k=3))
        geom = build_slice(validated, 64)
        seen = []

        class Seen(CosLinear):
            def eval(self, x):
                seen.append(x)
                return super().eval(x)

        placed = []
        place = integrators._place
        monkeypatch.setattr(integrators, "_place", lambda *args: placed.append(1) or place(*args))
        cfg = QuadConfig(target_rel_err=1e-11)
        first = slice_mean_quadrature(geom, Seen(t=[0.8, -0.5, 0.3]), cfg)
        steps, seen[:] = list(seen), []
        assert len(placed) == 5  # the first step's two blocks, then one a step
        assert sum(x.size for x in steps) == 24_504
        assert not any(x.flags.writeable for x in steps)
        placed.clear()
        again = slice_mean_quadrature(geom, Seen(t=[0.8, -0.5, 0.3]), cfg)
        assert placed == [] and _bits(again) == _bits(first)
        assert len(seen) == 4 and all(a is b for a, b in zip(seen, steps))

    def test_replaced_geometry_places_its_own_nodes(self, fix_c):
        # a rotated factor moves every node off its source's: a memo keyed by
        # value would hand the rotated slice its source's nodes
        fresh = validate(fix_c.problem)
        geom = build_slice(fresh, 128)
        fn = CosLinear(t=[0.8, -0.5])
        slice_mean_quadrature(geom, fn)
        c, s = math.cos(0.7), math.sin(0.7)
        rot = dataclasses.replace(geom, chol=geom.chol @ np.array([[c, -s], [s, c]]))
        assert rot._steps == {}
        res = slice_mean_quadrature(rot, fn)
        cold = dataclasses.replace(build_slice(validate(fix_c.problem), 128), chol=rot.chol)
        assert _bits(res) == _bits(slice_mean_quadrature(cold, fn))
        assert rot._steps.keys() <= geom._steps.keys() and rot._steps
        for key, (x, *_) in rot._steps.items():
            assert not np.array_equal(x, geom._steps[key][0])
            assert np.array_equal(x, cold._steps[key][0])

    def test_threads_sharing_a_slice_keep_the_bits(self):
        # eight threads run requests on one kept slice at once: each result is
        # the one its request gives alone, and the node sets stay in budget
        problem = AffineProblem(q=[[1.0, 2.0, 0.5, -1.0, 0.3]], w0=[1.5], k=3)
        fns = [CosLinear(t=[0.7, -0.4, 0.9]), Monomial(alpha=(2, 0, 1)),
               IndicatorBall(center=[0.2, -0.1, 0.3], radius=1.2), SinLinear(t=[0.3, 0.5, -0.6])]
        alone = [_bits(slice_mean_quadrature(build_slice(validate(problem), 64), fn))
                 for fn in fns]
        shared = validate(problem)
        barrier = threading.Barrier(8)

        def run(i):
            barrier.wait()
            return [_bits(slice_mean_quadrature(build_slice(shared, 64), fns[(i + j) % 4]))
                    for j in range(4)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(run, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for i, results in enumerate(got):
            assert results == [alone[(i + j) % 4] for j in range(4)]
        steps = build_slice(shared, 64)._steps
        assert 0 < sum(x.size for x, *_ in steps.values()) <= _STEP_FLOATS

    def test_memory_held_stays_within_the_budget(self):
        # kinked k = 3 requests at 64 N on one problem: at this target most
        # refine past their slice's node budget, and only the last _SLICES
        # slices are kept. The memory held is what dropping the problem
        # frees, so the rules built on the way are not counted
        fn = BoundedCutoff(inner=CosLinear(t=[1.0, -0.7, 0.4]), cap=0.5)
        cfg = QuadConfig(target_rel_err=1e-4)
        ns = range(16, 80)
        tracemalloc.start()
        try:
            validated = validate(AffineProblem(q=[[0.0, 0.0, 0.0, 1.0]], w0=[1.0], k=3))
            evals = [slice_mean_quadrature(build_slice(validated, n), fn, cfg).n_evals
                     for n in ns]
            before = tracemalloc.get_traced_memory()[0]
            assert list(validated._slices) == list(ns[-_SLICES:])
            kept = [sum(x.size for x, *_ in g._steps.values())
                    for g in validated._slices.values()]
            del validated
            held = before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # kept whole, the placed nodes would be many times the bound
        assert 3 * sum(evals) > 4 * _SLICES * _STEP_FLOATS
        assert all(_STEP_FLOATS // 2 < floats <= _STEP_FLOATS for floats in kept)
        assert 8 * sum(kept) <= held <= _SLICES * _STEP_FLOATS * 8 + (256 << 10)


@pytest.mark.parametrize(
    "fields",
    [{"n_samples": 1000.9}, {"n_samples": "1000"}, {"n_samples": True},
     {"n_samples": 1000, "shard_size": True}, {"n_samples": 1000, "shard_size": 4096.0},
     {"n_samples": 1000, "seed": 1.5}, {"n_samples": 1000, "seed": True}],
    ids=["samples_float", "samples_str", "samples_bool", "shard_bool", "shard_float",
         "seed_float", "seed_bool"],
)
def test_mc_config_fields_must_be_integers(fields):
    # shard_size=True ran 1000 shards of one sample, seed=1.5 ran seed 1, and
    # the float counts failed deep in numpy with a bare TypeError
    with pytest.raises(ValueError, match="integer"):
        McConfig(**fields)


def test_mc_config_takes_numpy_integers(fix_b):
    cfg = McConfig(n_samples=np.int64(1000), seed=1, shard_size=np.int32(256))
    res = slice_mean_mc(build_slice(fix_b, 64), Monomial(alpha=(0,)), cfg)
    assert res.value == 1.0 and res.n_evals == 1000


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

    @pytest.mark.parametrize("fixture, n, t, shard, pinned", [
        ("fix_b", 64, [0.9], 4096, (0.6614948170620957, 0.0012024654500859945)),
        ("fix_b", 64, [0.9], 65536, (0.6595781120243648, 0.0012069992698776875)),
        ("fix_c", 10**6, [0.8, -0.5], 4096, (0.6398995739509575, 0.0013220881071184228)),
        ("fix_c", 10**6, [0.8, -0.5], 65536, (0.6372430122753336, 0.0013277046637335036)),
    ], ids=["fix_b-64-4096", "fix_b-64-65536", "fix_c-1e6-4096", "fix_c-1e6-65536"])
    @pytest.mark.parametrize("threads", [1, 2], ids=["threads1", "threads2"])
    def test_pinned_values(self, request, fixture, n, t, shard, pinned, threads):
        # how a sample is drawn may change; the streams and their bits may not
        geom = build_slice(request.getfixturevalue(fixture), n)
        cfg = McConfig(n_samples=100_000, seed=7, shard_size=shard)
        res = slice_mean_mc(geom, CosLinear(t=t), cfg, threads=threads)
        assert (res.value, res.err_estimate) == pinned

    def test_shard_layout_changes_stream(self, fix_b):
        # different shard size means a different (still deterministic) result
        geom = build_slice(fix_b, 32)
        fn = CosLinear(t=[1.0])
        a = slice_mean_mc(geom, fn, McConfig(20_000, seed=4, shard_size=1024))
        b = slice_mean_mc(geom, fn, McConfig(20_000, seed=4, shard_size=2048))
        assert a.value != b.value

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("which_n", ["n_min", 16, 64])
    def test_matches_full_basis_sampler(self, k, which_n):
        # support width 20: n_min and 16 sample below it, 64 beyond it
        rng = np.random.default_rng(100 + k)
        validated = validate(
            AffineProblem(q=rng.standard_normal((2, 20)), w0=0.5 * rng.standard_normal(2), k=k)
        )
        n = validated.n_min if which_n == "n_min" else which_n
        geom = build_slice(validated, n)
        alpha = [0] * k
        alpha[0] += 1
        alpha[-1] += 1
        for fn in (CosLinear(t=[0.7, -0.4, 0.3][:k]), Monomial(alpha=tuple(alpha))):
            got = slice_mean_mc(geom, fn, McConfig(20_000, seed=k))
            want, want_se = _full_basis_mc(validated, geom, fn, 20_000, seed=k)
            assert abs(got.value - want) <= 5.0 * math.hypot(got.err_estimate, want_se)

    def test_million_dimensions(self, fix_b):
        fn = CosLinear(t=[1.0])
        start = time.perf_counter()
        geom = build_slice(fix_b, 10**6)
        quad = slice_mean_quadrature(geom, fn)
        mc = slice_mean_mc(geom, fn, McConfig(100_000, seed=10))
        assert time.perf_counter() - start < 1.0
        assert abs(quad.value - known_limit(fn, fix_b)) < 1e-5
        assert abs(mc.value - quad.value) <= 5.0 * mc.err_estimate

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("route", ["slice", "gaussian"])
    @pytest.mark.parametrize("shard", [1000, _SUM_FIRST_MAX + 1])
    def test_one_nonfinite_sample_raises_without_a_warning(self, fix_b, shard, route, bad):
        # the last value of the last shard, tested by its sum of squares first
        # or, above _SUM_FIRST_MAX values, entry by entry; the suite turns
        # warnings into errors
        class Bad(Monomial):
            def eval(self, x):
                vals = super().eval(x)
                if vals.size == shard:
                    vals[-1] = bad
                return vals

        cfg = McConfig(n_samples=3 * shard, seed=4, shard_size=shard)
        with pytest.raises(NonFinite, match="^integrand returned a non-finite value at a sample$"):
            if route == "slice":
                slice_mean_mc(build_slice(fix_b, 64), Bad(alpha=(1,)), cfg)
            else:
                gaussian_limit(fix_b, Bad(alpha=(1,)), cfg)

    def test_high_k_supported(self):
        validated = validate(AffineProblem(q=[[0.0] * 5 + [1.0]], w0=[0.5], k=5))
        geom = build_slice(validated, 64)
        res = slice_mean_mc(geom, Monomial(alpha=(0,) * 5), McConfig(1000, seed=6))
        assert res.value == 1.0


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("b", [1, 255, 256, 257, 1000, 65536])
def test_shift_rows_keeps_the_bytes_of_a_broadcast_add(k, b):
    rng = np.random.default_rng(b + k)
    x, mu = rng.standard_normal((b, k)), rng.standard_normal(k)
    want = x + mu
    got = _shift_rows(x, mu)
    assert got is x and got.tobytes() == want.tobytes()


class TestOrderedMap:
    def test_item_order_when_an_earlier_item_finishes_last(self):
        finished = []

        def slow_first(i):
            time.sleep(0.02 * (5 - i))
            finished.append(i)
            return i * i

        assert _ordered_map(slow_first, range(5), threads=3) == [0, 1, 4, 9, 16]
        # the pool really ran them out of order
        assert finished != sorted(finished)

    def test_one_thread_is_the_serial_map(self):
        caller = threading.get_ident()
        got = _ordered_map(lambda i: (i + 1, threading.get_ident()), [3, 1, 2], threads=1)
        assert got == [(4, caller), (2, caller), (3, caller)]

    @pytest.mark.parametrize("threads", [1, 3])
    def test_an_item_that_raises_makes_the_call_raise(self, threads):
        def fail_on_two(i):
            if i == 2:
                raise NonFinite(f"item {i}")
            return i

        with pytest.raises(NonFinite, match="item 2"):
            _ordered_map(fail_on_two, range(4), threads)


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
        res = gaussian_limit(fix_c, fn)
        assert_allclose(res.value, known_limit(fn, fix_c), rtol=1e-11)

    def test_mc_route(self, fix_b):
        fn = CosLinear(t=[1.0])
        res = gaussian_limit(fix_b, fn, McConfig(n_samples=400_000, seed=8))
        assert not res.diverged
        assert abs(res.value - known_limit(fn, fix_b)) <= 4.0 * res.err_estimate

    @pytest.mark.parametrize("fixture, t, pinned", [
        ("fix_b", [0.9], (0.6628192640806934, 0.0006953676954596956)),
        ("fix_c", [0.8, -0.5], (0.641408010945787, 0.0007596465447589905)),
    ], ids=["fix_b", "fix_c"])
    def test_mc_route_pinned_values(self, request, fixture, t, pinned):
        res = gaussian_limit(request.getfixturevalue(fixture), CosLinear(t=t),
                             McConfig(n_samples=300_000))
        assert (res.value, res.err_estimate, res.n_evals, res.diverged) == (*pinned, 300_000, False)

    def test_gh_refuses_counterexample(self, fix_a0):
        with pytest.raises(InadmissibleFunction):
            gaussian_limit(fix_a0, CounterexampleG())

    def test_gh_refuses_high_dimension(self):
        validated = validate(AffineProblem(q=[[0.0] * 4 + [1.0]], w0=[0.0], k=4))
        with pytest.raises(UnsupportedDimension):
            gaussian_limit(validated, Monomial(alpha=(0,) * 4))

    def test_divergence_detector_fires(self):
        # non-integrable case: variance 4 makes E[g(X)] infinite for the
        # counterexample integrand, so the running estimate never settles
        mu = np.array([0.5])
        chol = np.array([[2.0]])
        res = _gaussian_mc(
            mu, chol, CounterexampleG(), McConfig(2_000_000, seed=0, shard_size=2048)
        )
        assert res.diverged

    def test_gh_uses_64_nodes_checked_against_32(self, fix_b):
        res = gaussian_limit(fix_b, Monomial(alpha=(4,)))
        assert res.n_evals == 64 + 32
        # E[X^4] for X ~ N(0.6, 0.64): mu^4 + 6 mu^2 s^2 + 3 s^4
        assert_allclose(res.value, 0.6**4 + 6 * 0.36 * 0.64 + 3 * 0.64**2, rtol=1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gauss_hermite_nonfinite_raises_without_a_warning(self, fix_c, bad):
        # one node of the 64 x 64 grid, then of the 32 x 32 one
        for grid in (64 * 64, 32 * 32):
            class Bad(Monomial):
                def eval(self, x):
                    vals = super().eval(x)
                    if vals.size == grid:
                        vals[grid // 3] = bad
                    return vals

            with pytest.raises(NonFinite, match="^integrand returned a non-finite value$"):
                gaussian_limit(fix_c, Bad(alpha=(1, 1)))

    def test_mc_shard_drawn_whole_when_it_fits(self, fix_b):
        # a shard within one chunk is one draw of shard_size normals,
        # summed at once: the stream and sums of a single-draw sampler
        fn = CosLinear(t=[1.0])
        res = gaussian_limit(fix_b, fn, McConfig(50_000, seed=3, shard_size=8192))
        total = 0.0
        for i, size in enumerate([8192] * 6 + [50_000 - 6 * 8192]):
            g = _shard_rng(3, i).standard_normal((size, 1))
            total += float(fn.eval(fix_b.z0_cyl + g @ np.array([[0.8]]).T).sum())
        assert res.value == total / 50_000

    def test_mc_peak_memory_does_not_grow_with_shard_size(self, fix_b):
        # shards are drawn in chunks of at most 2^22 numbers, so a 2^23
        # sample shard (k = 1) peaks near a 2^21 one
        fn = CosLinear(t=[1.0])
        peaks = []
        for size in (1 << 21, 1 << 23):
            tracemalloc.start()
            try:
                gaussian_limit(fix_b, fn, McConfig(size, seed=1, shard_size=size))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_integrable_case_does_not_fire(self, fix_b):
        res = gaussian_limit(
            fix_b, CosLinear(t=[0.5]), McConfig(2_000_000, seed=14, shard_size=8192)
        )
        assert not res.diverged


_EVALUATORS = {
    "quadrature": lambda v, fn: slice_mean_quadrature(build_slice(v, 64), fn),
    "mc": lambda v, fn: slice_mean_mc(build_slice(v, 64), fn, McConfig(n_samples=100)),
    "gaussian_limit": gaussian_limit,
}


@pytest.mark.parametrize("evaluator", list(_EVALUATORS))
@pytest.mark.parametrize("case", ["ball_center_r1_on_k2", "direction_r2_on_k1"])
def test_evaluators_refuse_function_that_does_not_fit(fix_b, fix_c, evaluator, case):
    # a center in R^1 would broadcast to [1, 1] on the k = 2 problem and give
    # a wrong mean silently; a direction in R^2 fails inside numpy on k = 1
    validated, fn = {
        "ball_center_r1_on_k2": (fix_c, IndicatorBall(center=[1.0], radius=1.0)),
        "direction_r2_on_k1": (fix_b, CosLinear(t=[1.0, 2.0])),
    }[case]
    with pytest.raises(InadmissibleFunction, match="does not fit k"):
        _EVALUATORS[evaluator](validated, fn)


#: probe values to the last bit, on the default grid of ``slicemean
#: counterexample`` and two shifted columns
PINNED_PROBE = {
    (0.0, 1.0): 0.6266570686577501,
    (0.0, 10.0): 1.1737900582967766,
    (0.0, 100.0): 1.2453355576530363,
    (0.0, 1000.0): 1.2525162530206597,
    (0.3, 1.0): 0.6064793956134023,
    (0.3, 10.0): 1.5155978619031891,
    (0.3, 100.0): 1459496162.6028554,
    (0.3, 1000.0): 2.4860195044345e124,
    (-0.7, 1000.0): 4.537234020741326e297,
}


class TestCounterexampleProbe:
    @pytest.mark.parametrize("z, r", sorted(PINNED_PROBE))
    def test_pinned_values(self, z, r):
        assert counterexample_probe(z, r) == PINNED_PROBE[z, r]

    def test_pinned_overflow(self):
        with pytest.raises(NonFinite):
            counterexample_probe(0.3, 1e6)

    @pytest.mark.parametrize("z, r", [(1000.0, 1e300), (-1000.0, 1e300), (1000.0, 499.7)])
    def test_largest_shift_returns_promptly(self, z, r):
        # a pass walks about z^2/48 panels of width 48/|z| before its sum
        # passes the float64 range; R = 499.7 stays just inside it
        start = time.perf_counter()
        try:
            assert counterexample_probe(z, r) > 0.0
        except NonFinite:
            assert r > 500.0
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("z", [1000.5, -1e4, 1e18])
    def test_rejects_shift_beyond_bound(self, z):
        with pytest.raises(ValueError, match=r"\|z\| <= 1000"):
            counterexample_probe(z, 2.0)

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

    def test_large_shift_times_radius_stays_finite(self):
        # exp(z R - z^2/2) alone overflows here; the integrand peaks near
        # e^701. Oracle: endpoint Laplace asymptotics e^g(R) / g'(R) with
        # g(x) = z x - z^2/2 - log(1 + x^2), relative error ~ g''/g'^2 ~ 4e-6
        z, r = 1.0, 715.0
        g = z * r - 0.5 * z * z - math.log1p(r * r)
        slope = z - 2.0 * r / (1.0 + r * r)
        want = math.exp(g - math.log(slope) - 0.5 * math.log(2.0 * math.pi))
        assert_allclose(counterexample_probe(z, r), want, rtol=1e-5)

    def test_value_beyond_float64_raises(self):
        with pytest.raises(NonFinite):
            counterexample_probe(-1.5, 1000.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            counterexample_probe(0.0, -1.0)

    @pytest.mark.parametrize(
        "z, r",
        [(0.0, math.inf), (math.inf, 10.0), (-math.inf, 10.0), (0.0, math.nan),
         (math.nan, 10.0)],
    )
    def test_rejects_non_finite_input(self, z, r):
        # an infinite R or z grew the panel list without end; a NaN R gave 0.0
        with pytest.raises(ValueError, match="finite"):
            counterexample_probe(z, r)
