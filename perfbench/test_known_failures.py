"""Requests that quadrature is known to miss, kept out of the slice_batch deck.

    python3 -m pytest perfbench/test_known_failures.py

Each case asks slice_mean_quadrature for QUAD_RTOL, the accuracy the
benchmark checks every slice_batch request to, and compares the result with
its library-free reference from oracle.py. At the commit that added the
benchmark every case misses by far more than that and the tests are strict
xfails: a fix to the quadrature makes one pass, and pytest then reports it
as XPASS(strict), a failure, so the case can move into the deck.
"""

import bootstrap  # noqa: F401  (pins BLAS threads and the import path first)

import numpy as np
import pytest

from oracle import SliceOracle
from slicemean import harness
from slicemean.affine_model import validate
from slicemean.integrators import QuadConfig, slice_mean_quadrature
from slicemean.slice_geometry import build_slice
from workloads import QUAD_RTOL, SliceBatch, quad_ok

#: (problem index into SliceBatch.problems: 0 is k = 1, 1 is k = 2, 2 is k = 3; function)
CASES = {
    "k1_indicator_ball": (0, {"kind": "indicator_ball", "params": {"center": [0.2], "radius": 1.0}}),
    "k2_bounded_cutoff": (1, {"kind": "bounded_cutoff", "params": {
        "inner": {"kind": "monomial", "params": {"alpha": [2, 0]}}, "cap": 2.0}}),
    "k3_indicator_ball": (2, {"kind": "indicator_ball", "params": {
        "center": [0.1, -0.2, 0.3], "radius": 1.0}}),
    "k3_sin_large_t": (2, {"kind": "sin_linear", "params": {"t": [1.5, -1.5, 1.0]}}),
}


@pytest.mark.xfail(strict=True, reason="quadrature misses the reference on non-smooth or "
                   "high-frequency integrands (perfbench/README.md, Known failures)")
@pytest.mark.parametrize("case", CASES)
def test_quadrature_meets_reference(case):
    p, spec = CASES[case]
    cfg = harness.validate_config(SliceBatch.problems(np.random.default_rng(5))[p])
    problem = cfg["problem"]
    validated = validate(harness.problem_from_config(cfg))
    oracle = SliceOracle(problem["Q"], problem["w0"], problem["k"])
    fn = harness.function_from_config({"function": spec})
    misses = []
    for n in (64, 256):
        result = slice_mean_quadrature(build_slice(validated, n), fn, QuadConfig(target_rel_err=QUAD_RTOL))
        exact, exact_err = oracle.mean(spec, n)
        if not quad_ok(result.value, exact, exact_err):
            misses.append(f"N={n}: {result.value!r} is {result.value - exact:+.3g} from {exact!r}")
    assert not misses, misses
