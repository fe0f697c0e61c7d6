"""The three benchmark workloads: input generation, set-up, timed units and
output checks.

Every workload is driven the same way: ``generate`` turns a seed into an
input file, the workload class parses it and warms up (its set-up), ``unit``
runs one piece of fixed work and returns the latency of each request in it,
and ``check`` compares that unit's outputs with an exact oracle or with the
determinism contract, outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
from pathlib import Path

import numpy as np

from oracle import SliceOracle
# Timed calls go through the module attributes, where tracing rebinds them.
from slicemean import cli, harness, integrators, slice_geometry
from slicemean.affine_model import validate
from slicemean.errors import SliceMeanError
from slicemean.integrators import McConfig, QuadConfig, slice_mean_mc, slice_mean_quadrature
from slicemean.slice_geometry import build_slice

#: A quadrature result must match the reference to QUAD_RTOL, relative to
#: max(1, |reference|), plus the reference's own error bound; a Monte Carlo
#: result must lie within MC_SIGMAS standard errors.
QUAD_RTOL = 1e-11
MC_SIGMAS = 5.0


def quad_ok(value, exact, exact_err=0.0):
    return abs(value - exact) <= QUAD_RTOL * max(1.0, abs(exact)) + exact_err


#: Fixture B of the verify suite: Q = [3, 4], w0 = [5], k = 1.
FIX_B = {"Q": [[3.0, 4.0]], "w0": [5.0], "k": 1}


def _problem(q, w0, k):
    return {"Q": np.asarray(q).tolist(), "w0": np.asarray(w0).tolist(), "k": int(k)}


def _warm_up(validated, fn, n):
    geom = build_slice(validated, n)
    slice_mean_quadrature(geom, fn)
    slice_mean_mc(geom, fn, McConfig(n_samples=1000))


def mc_thread_check(validated, fn, seed: int):
    """One fixed slice_mean_mc call must give identical results at 1 and 2 threads."""
    geom = build_slice(validated, 256)
    cfg = McConfig(n_samples=20_000, seed=seed, shard_size=4096)
    one = slice_mean_mc(geom, fn, cfg, threads=1)
    two = slice_mean_mc(geom, fn, cfg, threads=2)
    if (one.value, one.err_estimate) != (two.value, two.err_estimate):
        return [f"slice_mean_mc differs between 1 and 2 threads: {one} vs {two}"]
    return []


def _run_cli(argv):
    """cli.main with its report captured, so the benchmark owns stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class _ConfigWorkload:
    """A workload driven by one slicemean config file through the CLI."""

    def __init__(self, input_path: Path):
        self.input_path = str(input_path)
        self.csv_path = str(input_path.with_suffix(".csv"))
        self.cfg = harness.load_config(self.input_path)
        self.validated = validate(harness.problem_from_config(self.cfg))
        self.fn = harness.function_from_config(self.cfg)
        _warm_up(self.validated, self.fn, 64)
        self.first_csv = None

    def repeat_failures(self, data: bytes):
        """Identical runs must write identical CSV bytes (timing is off)."""
        if self.first_csv is None:
            self.first_csv = data
            return 0, []
        if data != self.first_csv:
            return 1, [f"{type(self).__name__} CSV bytes differ between identical runs"]
        return 1, []

    def determinism_failures(self, seed):
        return mc_thread_check(self.validated, self.fn, seed)


class SweepDeep(_ConfigWorkload):
    """One batch ``sweep`` of fixture B, N = 64 ... 8192, 10^4 MC samples a row."""

    threads = 1
    min_units = 2  # two sweeps, so the CSV bytes can be compared

    @staticmethod
    def generate(rng, tiny):
        return {
            "problem": FIX_B,
            "function": {"kind": "cos_linear", "params": {"t": [float(rng.uniform(0.5, 1.5))]}},
            "schedule": [64, 128] if tiny else [64 << i for i in range(8)],
            "mc": {"n_samples": 1000 if tiny else 10_000},
            "seed": int(rng.integers(0, 2**63)),
        }

    def __init__(self, input_path):
        super().__init__(input_path)
        self.oracle = SliceOracle(self.cfg["problem"]["Q"], self.cfg["problem"]["w0"], 1)

    def unit(self, tag):
        tag(0)
        start = time.perf_counter()
        code = _run_cli(["sweep", "--config", self.input_path, "--threads", str(self.threads),
                         "--csv", self.csv_path])
        return [time.perf_counter() - start], code

    def check(self, code):
        schedule = self.cfg["schedule"]
        if code != 0:
            return len(schedule), [f"sweep exited with code {code}"]
        data = Path(self.csv_path).read_bytes()
        attempted, failures = self.repeat_failures(data)
        attempted += len(schedule)
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        if [int(r["N"]) for r in rows] != schedule:
            failures.append(f"sweep rows {[r['N'] for r in rows]} != schedule {schedule}")
        spec = self.cfg["function"]
        limit = self.oracle.limit(spec)
        for row in rows:
            n = int(row["N"])
            exact, _ = self.oracle.mean(spec, n)
            quad, mc, se = float(row["quad_value"]), float(row["mc_value"]), float(row["mc_stderr"])
            if not quad_ok(quad, exact):
                failures.append(f"N={n}: quad_value {quad!r} != exact {exact!r}")
            if not abs(mc - exact) <= MC_SIGMAS * se:
                failures.append(f"N={n}: mc_value {mc!r} is {abs(mc - exact) / se:.1f} stderr from {exact!r}")
            if not abs(float(row["limit_value"]) - limit) <= QUAD_RTOL:
                failures.append(f"N={n}: limit_value {row['limit_value']} != {limit!r}")
        return attempted, failures


class VerifySuite(_ConfigWorkload):
    """The default 17-check ``verify`` with two worker threads."""

    threads = 2
    min_units = 1
    TINY_CHECKS = ["mc_determinism", "weight_shape", "known_limit_identity"]

    @classmethod
    def generate(cls, rng, tiny):
        cfg = {
            "problem": FIX_B,
            "function": {"kind": "cos_linear", "params": {"t": [1.0]}},
            "seed": int(rng.integers(0, 2**63)),
        }
        if tiny:
            cfg["verify"] = {"checks": cls.TINY_CHECKS, "mc_samples": 2000}
        return cfg

    def unit(self, tag):
        tag(0)
        start = time.perf_counter()
        code = _run_cli(["verify", "--config", self.input_path, "--threads", str(self.threads),
                         "--csv", self.csv_path])
        return [time.perf_counter() - start], code

    def check(self, code):
        expected = self.cfg.get("verify", {}).get("checks") or list(harness.ALL_CHECKS)
        if code not in (0, 1):
            return len(expected), [f"verify exited with code {code}"]
        data = Path(self.csv_path).read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        failures = [f"verify check {r['name']} failed (worst violation {r['worst_violation']})"
                    for r in rows if r["passed"] != "1"]
        if (code == 0) != (not failures):
            failures.append(f"verify exit code {code} disagrees with its report")
        if [r["name"] for r in rows] != expected:
            failures.append(f"verify ran {[r['name'] for r in rows]}, expected {expected}")
        repeats, bad = self.repeat_failures(data)
        return repeats + max(len(rows), len(expected)), failures + bad


class SliceBatch:
    """Closed loop, one client: each request is build_slice then quadrature.

    The deck holds one group per (problem, N); the requests of a group share
    that geometry and differ only in the function, so geometry or rule reuse
    shows here and in no other workload. Every request asks for QUAD_RTOL,
    the accuracy its result is checked to. The k = 3 trig requests (a fifth
    of the deck) refine twice and cost ~10x the rest, which keeps p50 inside
    the cheap class and p90 inside the expensive one. Every request has a
    library-free reference in oracle.py, computed on the first check, outside
    the timed region. Requests that quadrature is known to miss are left out
    of the deck; test_known_failures.py checks them.
    """

    threads = 1
    min_units = 1
    NS = (32, 64, 128, 256, 512, 1024)

    @classmethod
    def problems(cls, rng):
        """One random problem each for k = 1, 2, 3, admissible at N = NS[0].

        k = 1 has support s = 100, wider than N = 32 and 64, so those slices
        take the least_norm_center path.
        """
        problems = []
        for k, m, s in ((1, 1, 100), (2, 2, 6), (3, 2, 8)):
            while True:
                q = rng.standard_normal((m, s))
                w0 = 0.5 * rng.standard_normal(m)
                try:
                    v = validate(harness.problem_from_config({"problem": _problem(q, w0, k)}))
                except SliceMeanError:
                    continue
                if v.n_min <= cls.NS[0]:
                    break
            problems.append({"problem": _problem(q, w0, k)})
        return problems

    @classmethod
    def generate(cls, rng, tiny):
        problems = cls.problems(rng)

        def trig(kind, k, hi):
            d = rng.standard_normal(k)
            return {"kind": kind, "params": {"t": (d / np.linalg.norm(d) * rng.uniform(0.3, hi)).tolist()}}

        def functions(k):
            if k == 1:
                return [trig("cos_linear", 1, 1.5), trig("sin_linear", 1, 1.5), trig("cos_linear", 1, 1.5),
                        {"kind": "monomial", "params": {"alpha": [2]}},
                        {"kind": "monomial", "params": {"alpha": [1]}}]
            if k == 2:
                return [trig("cos_linear", 2, 1.5), trig("sin_linear", 2, 1.5),
                        {"kind": "monomial", "params": {"alpha": [1, 1]}},
                        {"kind": "monomial", "params": {"alpha": [0, 2]}},
                        {"kind": "monomial", "params": {"alpha": [1, 0]}}]
            # k = 3 trig errors grow steeply with |t| (~4e-12 near |t| = 1);
            # |t| <= 0.8 keeps them two orders of magnitude inside QUAD_RTOL.
            return [trig("cos_linear", 3, 0.8), trig("cos_linear", 3, 0.8), trig("cos_linear", 3, 0.8),
                    {"kind": "monomial", "params": {"alpha": [2, 0, 0]}},
                    {"kind": "monomial", "params": {"alpha": [0, 1, 1]}}]

        groups = [(p, n) for p in range(len(problems)) for n in (cls.NS[:2] if tiny else cls.NS)]
        requests = []
        for g in rng.permutation(len(groups)):
            p, n = groups[g]
            specs = functions(problems[p]["problem"]["k"])
            for i in rng.permutation(len(specs)):
                requests.append({"problem": p, "n": n, "function": specs[i]})
        return {"problems": problems, "requests": requests}

    def __init__(self, input_path: Path):
        with open(input_path, encoding="utf-8") as fh:
            data = json.load(fh)
        cfgs = [harness.validate_config(p) for p in data["problems"]]
        self.validated = [validate(harness.problem_from_config(c)) for c in cfgs]
        self.oracles = [SliceOracle(c["problem"]["Q"], c["problem"]["w0"], c["problem"]["k"]) for c in cfgs]
        self.specs = data["requests"]
        self.requests = [
            (self.validated[r["problem"]], r["n"], harness.function_from_config(r))
            for r in self.specs
        ]
        self.qcfg = QuadConfig(target_rel_err=QUAD_RTOL)
        v, n, fn = self.requests[0]
        slice_mean_quadrature(build_slice(v, n), fn, self.qcfg)
        self.first_values = None
        self.references = None

    def unit(self, tag):
        latencies, results = [], []
        for i, (validated, n, fn) in enumerate(self.requests):
            tag(i)
            start = time.perf_counter()
            try:
                geom = slice_geometry.build_slice(validated, n)
                result = integrators.slice_mean_quadrature(geom, fn, self.qcfg)
            except SliceMeanError as exc:
                result = exc
            latencies.append(time.perf_counter() - start)
            results.append(result)
        return latencies, results

    def check(self, results):
        if self.references is None:
            self.references = [self.oracles[s["problem"]].mean(s["function"], s["n"]) for s in self.specs]
        failures = []
        for spec, result, reference in zip(self.specs, results, self.references):
            where = f"request {spec}"
            if isinstance(result, Exception):
                failures.append(f"{where} raised {result!r}")
            elif reference is None:
                failures.append(f"{where}: no reference value")
            elif not quad_ok(result.value, *reference):
                exact, exact_err = reference
                failures.append(f"{where}: value {result.value!r} is {result.value - exact:+.3g} "
                                f"from reference {exact!r} (+-{exact_err:.1g})")
        values = [getattr(r, "value", None) for r in results]
        if self.first_values is None:
            self.first_values = values
        elif values != self.first_values:
            failures.append("slice_batch values differ between identical decks")
        return len(results), failures

    def determinism_failures(self, seed):
        validated, _, fn = self.requests[0]
        return mc_thread_check(validated, fn, seed)


WORKLOADS = {"sweep_deep": SweepDeep, "slice_batch": SliceBatch, "verify_suite": VerifySuite}


def write_input(name: str, seed: int, tiny: bool, path: Path):
    """Generate the workload's inputs from the seed and write them to path."""
    data = WORKLOADS[name].generate(np.random.default_rng(seed), tiny)
    path.write_text(json.dumps(data, indent=1), encoding="utf-8")
