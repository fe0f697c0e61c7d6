import math
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
    SliceMeanError,
    build_slice,
    harness,
    kernel_onb,
    numlin,
    validate,
)
from slicemean.affine_model import _finite_array, least_norm_center, truncated_matrix


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
        # the sphere of radius sqrt(N) reaches |z0| = 1e8 only at N > 1e16,
        # beyond 2**53, the largest supported N
        with pytest.raises(Infeasible):
            validate(AffineProblem(q=[[0.0, 1.0]], w0=[1e8], k=1))

    def test_far_center_validates(self):
        # |z0|^2 = 4e6: the first N that reaches the constraint set is
        # 4,000,001, and only 2**53 bounds it
        validated = validate(AffineProblem(q=[[0.0, 1.0]], w0=[2000.0], k=1))
        assert validated.n_min == 4_000_001

    def test_constraints_hold_at_center(self, fix_a3, fix_b, fix_c):
        for validated in (fix_a3, fix_b, fix_c):
            problem = validated.problem
            residual = problem.q @ validated.z0[: problem.s] - problem.w0
            assert np.abs(residual).max() < 1e-12


    def test_rank_margin(self, fix_a3, fix_b, rank_dip):
        # sigma_(m+k) / sigma_1 of [Q_N; E_k] at N = min(n_min, width)
        assert fix_a3.rank_margin == pytest.approx(1.0, rel=1e-14)
        assert fix_b.rank_margin == pytest.approx(0.15767078, rel=1e-6)
        # the rank-dip problem is accepted only just above the 1e-10 cutoff
        assert rank_dip.rank_margin == pytest.approx(2.55e-10, rel=0.1)


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


def _brute_force_n_min(problem):
    """(n_min, rank_margin, z0) from one StackedQR at every N from k + m + 2
    through the width, then the radius rule beyond the width."""
    m, k, w = problem.m, problem.k, problem.width
    at_width = numlin.StackedQR(truncated_matrix(problem, w), k)
    z0 = at_width.center(problem.w0)
    for n in range(k + m + 2, w + 1):
        qr = numlin.StackedQR(truncated_matrix(problem, n), k)
        if qr.margin > numlin.DEFAULT_TOL:
            zn = qr.center(problem.w0)
            if n > float(zn @ zn):
                return n, qr.margin, z0
    return max(w + 1, k + m + 2, math.floor(float(z0 @ z0)) + 1), at_width.margin, z0


def _leading_zero_problems(rng, count):
    """Random validated problems whose rows start with runs of zero columns."""
    out = []
    while len(out) < count:
        m, k, s = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(5, 80))
        q = rng.standard_normal((m, s))
        for row in q:
            row[: int(rng.integers(0, s))] = 0.0
        w0 = rng.standard_normal(m) * rng.choice([0.5, 3.0, 10.0])
        try:
            out.append(validate(AffineProblem(q=q, w0=w0, k=k)))
        except RankDeficient:
            continue
    return out


def test_scan_matches_brute_force_with_leading_zero_columns():
    # the scan starts where every row has a nonzero entry and leaves the
    # width to the width's QR; a QR at every N must agree bit for bit
    for validated in _leading_zero_problems(np.random.default_rng(8), 60):
        n_min, margin, z0 = _brute_force_n_min(validated.problem)
        assert validated.n_min == n_min
        assert validated.rank_margin == margin
        assert np.array_equal(validated.z0, z0)


def _passes_own_rules(validated, n):
    """n >= n_min, and the StackedQR at min(n, width) passes the margin and
    radius rules; no QR is taken below n_min."""
    if n < validated.n_min:
        return False
    problem = validated.problem
    qr = numlin.StackedQR(truncated_matrix(problem, min(n, problem.width)), problem.k)
    if qr.margin <= numlin.DEFAULT_TOL:
        return False
    zn = qr.center(problem.w0)
    return n > float(zn @ zn)


def test_build_slice_succeeds_exactly_where_validate_allows(rank_dip, onto_dip, late_support):
    # build_slice never reads n_min; the N at which it builds a slice are
    # still exactly those validate's n_min and the per-N rules admit
    rng = np.random.default_rng(7)
    problems = [harness.random_validated(rng, s=int(rng.integers(5, 41))) for _ in range(100)]
    problems += _leading_zero_problems(np.random.default_rng(8), 100)
    problems += [rank_dip, onto_dip, late_support]
    for validated in problems:
        for n in range(-3, validated.problem.width + 4):
            try:
                build_slice(validated, n)
                built = True
            except SliceMeanError:
                built = False
            assert built == _passes_own_rules(validated, n), (validated.problem, n)


@pytest.mark.parametrize("w0, n_min", [([2.0], 8), ([3.0], 10)], ids=["at_width", "above_width"])
def test_width_factored_once(monkeypatch, w0, n_min):
    # n_min >= width 8: the scan below the width rejects every N (the row is
    # zero there), and the width's QR is the only one at eight columns
    widths = []

    class Counting(numlin.StackedQR):
        def __init__(self, q, k):
            widths.append(q.shape[1])
            super().__init__(q, k)

    monkeypatch.setattr(numlin, "StackedQR", Counting)
    validated = validate(AffineProblem(q=[np.eye(8)[7]], w0=w0, k=1))
    assert validated.n_min == n_min
    assert widths.count(8) == 1


def test_late_support():
    # rows nonzero only on their last 10 of 3 * 10^4 columns: the scan starts
    # at the first N where every row has a nonzero entry, so the QRs of the
    # zero-column truncations below it are not taken
    rng = np.random.default_rng(3)
    s = 3 * 10**4
    q = np.zeros((3, s))
    q[:, -10:] = rng.standard_normal((3, 10))
    problem = AffineProblem(q=q, w0=0.5 * rng.standard_normal(3), k=2)
    start = time.perf_counter()
    validated = validate(problem)
    elapsed = time.perf_counter() - start
    assert s - 10 < validated.n_min <= s
    assert elapsed < 1.0


class TestClosestPoint:
    """The closest point z0_N of the width-N truncation; build_slice
    carries its first k coordinates as ``x0`` and its norm in ``a_z``."""

    def test_stabilized_for_large_n(self, fix_a3):
        geom = build_slice(fix_a3, 100)
        assert_allclose(geom.x0, [0.0])
        assert_allclose(geom.a_z, math.sqrt(100.0 - 9.0), rtol=1e-14)

    def test_infinite(self, fix_b):
        # the untruncated closest point is z0; every N beyond the support
        # width carries it unchanged
        assert_allclose(fix_b.z0, [0.6, 0.8], atol=1e-14)
        geom = build_slice(fix_b, 10**6)
        assert np.array_equal(geom.x0, fix_b.z0[:1])
        assert geom.a_z == math.sqrt(10**6 - float(fix_b.z0 @ fix_b.z0))

    def test_validated_arrays_are_read_only(self, fix_b):
        # z0_cyl, z0_norm_sq and the slices build_slice keeps are computed
        # from z0 and chol once: a write into either raises instead of
        # leaving them stale
        for arr in (fix_b.z0, fix_b.chol, fix_b.z0_cyl):
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            fix_b.z0[0] = 1.0
        assert fix_b.z0_norm_sq == float(fix_b.z0 @ fix_b.z0)

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

    @pytest.mark.parametrize(
        "q, w0",
        [
            ([[3.0, 4.0]], True),
            ([[3.0, 4.0]], ["1"]),
            ([[3.0, 4.0]], [[[1.0]]]),
            ([[3.0, True]], [5.0]),
            ([[3.0, "4"]], [5.0]),
            ([[3.0, 10**400]], [5.0]),
        ],
        ids=["w0_bool", "w0_str", "w0_nested", "q_bool", "q_str", "q_huge"],
    )
    def test_rejects_entries_that_are_not_finite_numbers(self, q, w0):
        # each was converted by float(): true ran as 1, "1" as 1, and a nested
        # w0 was flattened
        with pytest.raises(ValueError, match="w0|Q"):
            AffineProblem(q=q, w0=w0, k=1)

    @staticmethod
    def verdict(values):
        try:
            out = _finite_array(values, "Q")
        except ValueError:
            return "refused"
        return out.shape, out.tobytes()

    @pytest.mark.parametrize(
        "entries, accepted",
        [
            (np.array([[1.0, np.nan]]), False),
            (np.array([np.inf, 2.0]), False),
            (np.array([[-np.inf]]), False),
            (np.array([[3.0, -0.0], [1e-310, -1.7e308]]), True),
            (np.array([1.5, -2.25], dtype=np.float32), True),
            (np.array([[-(2**63), 2**63 - 1, 0]]), True),
            (np.array([2**64 - 1, 7], dtype=np.uint64), True),
            (np.array([-128, 5], dtype=np.int8), True),
            (np.array([True, False]), False),
            (np.array([np.longdouble("1e400"), 1.0], dtype=np.longdouble), False),
            (np.array([np.longdouble("1e300") / 3], dtype=np.longdouble), True),
        ],
        ids=["nan", "inf", "minus_inf", "finite", "float32", "int64", "uint64", "int8", "bool",
             "longdouble_huge", "longdouble"],
    )
    def test_array_and_walk_agree(self, entries, accepted):
        # a real ndarray is judged on its float cast, anything else entry by
        # entry; both routes accept the same inputs with the same bytes
        got = self.verdict(entries)
        assert (got != "refused") == accepted
        assert got == self.verdict(entries.astype(object))
        assert got == self.verdict(entries.tolist())

    @pytest.mark.parametrize("bad", [True, "2", 10**400])
    def test_object_entries_that_are_not_finite_numbers(self, bad):
        for entries in ([1.0, bad], np.array([1.0, bad], dtype=object)):
            assert self.verdict(entries) == "refused"

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            AffineProblem(q=[[1.0, 0.0]], w0=[0.0], k=0)

    def test_rejects_mismatched_w0(self):
        with pytest.raises(ValueError):
            AffineProblem(q=[[1.0, 0.0]], w0=[0.0, 1.0], k=1)
