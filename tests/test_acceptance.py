"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criteria 1, 2 and 4 to 9 are verify checks run at the acceptance seed (the
default seed of `slicemean verify`), so their inputs and bounds are the ones
the verify report states; some criteria add a runtime bound. The remaining
criteria are stated here.
"""

import json
import math
import subprocess
import sys
import time

import pytest

from slicemean import (
    CosLinear,
    build_slice,
    counterexample_probe,
    harness,
    known_limit,
    slice_mean_quadrature,
)

SEED = 20240801


def _report(name: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def verify_check():
    """Runs a verify check once at the acceptance seed, on 4 threads;
    returns (result, runtime in seconds)."""
    done = {}

    def run(name):
        if name not in done:
            start = time.monotonic()
            cfg = {"verify": {"checks": [name]}}
            (result,) = harness.run_verify(cfg, threads=4, seed=SEED).checks
            done[name] = result, time.monotonic() - start
        return done[name]

    return run


def _summary(result, elapsed):
    return (
        f"{result.name}: worst violation {result.worst_violation:.3e} over "
        f"{result.trials} trials, runtime {elapsed:.2f}s"
    )


def test_criterion_01_exact_moment_identity(verify_check):
    """FIX-A (c=3), phi = x^2: quadrature equals (N-9)/(N-1) to 1e-8; < 5 s."""
    result, elapsed = verify_check("exact_moments")
    _report(
        "criterion 1 (exact second moment)",
        result.passed and elapsed < 5.0,
        _summary(result, elapsed) + " (< 5s)",
    )


def test_criterion_02_center_and_variance_identity(verify_check):
    """FIX-B: phi = x gives 0.6 to 1e-10 and phi = x^2 gives 1.0 to 1e-8."""
    result, elapsed = verify_check("exact_moments")
    _report(
        "criterion 2 (center and variance identities)", result.passed, _summary(result, elapsed)
    )


def _convergence_errors(validated, fn, limit):
    errs = []
    for n in (32, 64, 128, 256, 512, 1024, 2048, 4096):
        got = slice_mean_quadrature(build_slice(validated, n), fn).value
        errs.append(abs(got - limit))
    return errs


def _non_increasing_with_slack(errs, allowed_inversions=1, floor=1e-6):
    inversions = [
        (a, b) for a, b in zip(errs, errs[1:]) if b > a
    ]
    big = [pair for pair in inversions if max(pair) >= floor]
    return len(big) == 0 and len(inversions) <= allowed_inversions


def test_criterion_03_main_convergence(fix_a0, fix_b):
    """cos(x) slice means approach the limiting Gaussian value like a
    non-increasing error sequence, ending at or below 1e-3."""
    fn = CosLinear(t=[1.0])
    errs_a = _convergence_errors(fix_a0, fn, math.exp(-0.5))
    limit_b = known_limit(fn, fix_b)
    errs_b = _convergence_errors(fix_b, fn, limit_b)
    ok = (
        _non_increasing_with_slack(errs_a)
        and errs_a[-1] <= 1e-3
        and _non_increasing_with_slack(errs_b)
        and errs_b[-1] <= 1e-3
    )
    _report(
        "criterion 3 (convergence to the Gaussian limit)",
        ok,
        f"FIX-A errors {errs_a[0]:.2e} -> {errs_a[-1]:.2e}, "
        f"FIX-B errors {errs_b[0]:.2e} -> {errs_b[-1]:.2e} (final tol 1e-3)",
    )


def test_criterion_04_constant_limit(verify_check):
    """Normalization constant tends to (2 pi)^(-k/2), checked at N = 1e6; < 1 s."""
    result, elapsed = verify_check("constant_limit")
    _report(
        "criterion 4 (constant limit)",
        result.passed and elapsed < 1.0,
        _summary(result, elapsed) + " (< 1s)",
    )


def test_criterion_05_determinant_limit(verify_check):
    """|det L0_N| equals the stabilized value to 1e-12 for N >= s = 50."""
    result, elapsed = verify_check("determinant_limit")
    pre = result.recorded["pre_stabilization_max_abs_err"]
    _report(
        "criterion 5 (determinant limit)",
        result.passed,
        _summary(result, elapsed)
        + f"; recorded pre-stabilization max errors up to {max(pre.values()):.3e}",
    )


def test_criterion_06_preimage_norm_inequality(verify_check):
    """Truncated minimal-norm preimages are never shorter than stabilized ones."""
    result, elapsed = verify_check("preimage_norm_inequality")
    _report("criterion 6 (preimage norm inequality)", result.passed, _summary(result, elapsed))


def test_criterion_07_dominating_bound(verify_check):
    """(1-y/N)^((N-k-m-2)/2) <= e^((k+m+2)/2) e^(-y/2) on 1e4 random draws."""
    result, elapsed = verify_check("dominating_bound")
    _report("criterion 7 (dominating bound)", result.passed, _summary(result, elapsed))


def test_criterion_08_pushforward_identity(verify_check):
    """<G t, t> equals the squared kernel-projection norm of (t, 0, ...)."""
    result, elapsed = verify_check("characteristic_function_identity")
    _report("criterion 8 (pushforward identity)", result.passed, _summary(result, elapsed))


def test_criterion_09_cross_oracle(verify_check):
    """Quadrature and MC agree within 4 combined errors on >= 48 of 50 combos; < 60 s."""
    result, elapsed = verify_check("cross_oracle")
    _report(
        "criterion 9 (cross-oracle MC vs quadrature)",
        result.passed and result.trials == 50 and elapsed < 60.0,
        f"{result.worst_violation + 2:.0f} of {result.trials} combos disagree beyond 4 "
        f"combined errors (<= 2 allowed), runtime {elapsed:.1f}s (< 60s, 4 threads)",
    )


def test_criterion_10_counterexample():
    """Centered column converges to sqrt(pi/2); any shift makes it blow up."""
    target = math.sqrt(math.pi / 2.0)
    # the probe itself is accurate to 1e-6 against the arctan closed form
    quad_err = max(
        abs(counterexample_probe(0.0, r) - 2.0 * math.atan(r) / math.sqrt(2.0 * math.pi))
        for r in (1.0, 10.0, 100.0, 1000.0)
    )
    # the truncation tail is 2/(R sqrt(2 pi)); at R chosen for the 1e-6
    # target (1e6) the column sits within 1e-6 of sqrt(pi/2)
    vals = [counterexample_probe(0.0, r) for r in (1.0, 10.0, 100.0, 1000.0, 1e6)]
    increases = all(b > a for a, b in zip(vals, vals[1:]))
    converged = abs(vals[-1] - target) <= 1e-6
    v10 = counterexample_probe(0.3, 10.0)
    v30 = counterexample_probe(0.3, 30.0)
    ratio = v30 / v10
    _report(
        "criterion 10 (counterexample)",
        quad_err <= 1e-6 and increases and converged and ratio > 10.0,
        f"probe vs arctan oracle: {quad_err:.2e} (tol 1e-6); "
        f"z=0 column -> {vals[-1]:.7f} (|gap to sqrt(pi/2)| = {abs(vals[-1]-target):.2e}); "
        f"z=0.3 ratio value(30)/value(10) = {ratio:.1f} (> 10)",
    )


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "slicemean", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_criterion_11_determinism(tmp_path):
    """Sweep and verify produce byte-identical outputs across reruns and
    thread counts."""
    cfg = {
        "problem": {"Q": {"rows": 1, "cols": 2, "entries": [3.0, 4.0]}, "w0": [5.0], "k": 1},
        "function": {"kind": "cos_linear", "params": {"t": [1.0]}},
        "schedule": [16, 64, 256, 1024],
        "mc": {"n_samples": 20000, "shard_size": 4096},
        "seed": 7,
        "verify": {"checks": ["normalization", "exact_moments", "mc_determinism"]},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    sweeps = []
    for i, threads in enumerate(("1", "1", "8")):
        out = tmp_path / f"sweep{i}.csv"
        proc = _run_cli("sweep", "--config", str(cfg_path), "--csv", str(out), "--threads", threads)
        assert proc.returncode == 0, proc.stderr
        sweeps.append(out.read_bytes())
    verifies = []
    for i, threads in enumerate(("1", "8")):
        out = tmp_path / f"verify{i}.csv"
        proc = _run_cli("verify", "--config", str(cfg_path), "--csv", str(out), "--threads", threads)
        assert proc.returncode == 0, proc.stderr
        report = "\n".join(
            line for line in proc.stdout.splitlines() if not line.startswith("wrote ")
        )
        verifies.append(out.read_bytes() + report.encode())
    ok = sweeps[0] == sweeps[1] == sweeps[2] and verifies[0] == verifies[1]
    _report(
        "criterion 11 (byte-identical determinism)",
        ok,
        "sweep CSV identical across rerun and 1 vs 8 threads; "
        "verify report and CSV identical across 1 vs 8 threads",
    )


@pytest.mark.parametrize("name", list(harness.ALL_CHECKS))
def test_verify_check_passes(verify_check, name):
    """Every verify check passes at the acceptance seed."""
    result, elapsed = verify_check(name)
    assert result.name == name
    _report(f"verify check {name}", result.passed, _summary(result, elapsed))
