"""Span tracing of the slicemean layers, installed from outside the package.

``Tracer.install`` wraps every public function of the layer modules, the
``eval`` method of every registered test function and every verify check,
and rebinds each wrapper in every slicemean module that holds the original
under its own name (``slice_geometry.build_projection``,
``harness.build_slice``, ``cli.build_slice``, ...), so calls are seen
whichever import path they take. The package itself is not modified on disk.

A span is (id, name, start, end, parent, request, counters). Spans stay in
memory and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import math
import threading
import time
from collections import defaultdict

from slicemean.integrators import QuadConfig

LAYERS = (
    "affine_model",
    "numlin",
    "projections",
    "slice_geometry",
    "rules",
    "integrators",
    "testfns",
    "harness",
    "cli",
)

#: The verify checks the per-layer report names, in the suite's order.
CHECK_NAMES = (
    "normalization",
    "constant_limit",
    "determinant_limit",
    "preimage_norm_inequality",
    "dominating_bound",
    "characteristic_function_identity",
    "mc_determinism",
    "factor_invariance",
    "basis_invariance",
    "padding_invariance",
    "z0n_convergence",
    "z0_orthogonality",
    "exact_moments",
    "weight_shape",
    "known_limit_identity",
    "cross_oracle",
    "mc_vs_known_limit",
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_projection(args, kwargs, result):
    n = _arg(args, kwargs, 1, "n")
    return {"n": None if n == math.inf else int(n), "basis_bytes": int(result.kernel_basis.nbytes)}


def _count_mc(args, kwargs, result):
    geom, cfg = args[0], _arg(args, kwargs, 2, "cfg")
    return {"samples": cfg.n_samples, "normals_bytes": cfg.n_samples * (geom.n - geom.m) * 8}


def _count_quadrature(args, kwargs, result):
    cfg = _arg(args, kwargs, 2, "cfg") or QuadConfig()
    missed = result.err_estimate > cfg.target_rel_err * max(1.0, abs(result.value))
    return {"evals": result.n_evals, "unconverged": int(missed)}


def _count_limit(args, kwargs, result):
    return {"evals": result.n_evals, "diverged": int(result.diverged)}


def _count_eval(args, kwargs, result):
    shape = getattr(args[1], "shape", ())
    return {"points": math.prod(shape[:-1]) if shape else 1}


_COUNTERS = {
    "projections.build_projection": _count_projection,
    "integrators.slice_mean_mc": _count_mc,
    "integrators.slice_mean_quadrature": _count_quadrature,
    "integrators.gaussian_limit": _count_limit,
    "testfns.eval": _count_eval,
}


class Tracer:
    """Collects spans while installed; one client thread plus its workers."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_stack = self._stack()
        self._restore = []

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A worker thread's first span belongs to whatever the client
            # thread is waiting on (the program's pools are started by it).
            parent_stack = stack if stack else tracer._client_stack
            span = [next(tracer._ids), name, 0.0, 0.0,
                    parent_stack[-1][0] if parent_stack else None, tracer.request, None]
            stack.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the layer functions in place; ``uninstall`` undoes it."""
        modules = {layer: importlib.import_module(f"slicemean.{layer}") for layer in LAYERS}
        holders = [importlib.import_module("slicemean"), *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, name, wrapped)
        testfns = modules["testfns"]
        for cls in vars(testfns).values():
            if inspect.isclass(cls) and issubclass(cls, testfns.TestFunction) and "eval" in vars(cls):
                self._patch(cls, "eval", self.wrap("testfns.eval", vars(cls)["eval"]))
        checks = modules["harness"].ALL_CHECKS
        for name, fn in list(checks.items()):
            checks[name] = self.wrap(f"harness.check.{name}", fn)
            self._restore.append(lambda name=name, fn=fn: checks.__setitem__(name, fn))

    def _patch(self, holder, name, value):
        original = vars(holder)[name]
        setattr(holder, name, value)
        self._restore.append(lambda: setattr(holder, name, original))

    def uninstall(self):
        while self._restore:
            self._restore.pop()()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, request, counters in self.spans:
                record = {"id": sid, "name": name, "start": start, "end": end,
                          "parent": parent, "request": request}
                if counters:
                    record["counters"] = counters
                fh.write(json.dumps(record) + "\n")


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanStats:
    """Per-name totals over a list of spans.

    ``ms`` sums the outermost span of each name (a bounded cutoff's inner
    ``eval`` does not count twice); ``self_ms`` is each span's duration
    minus the part of it that its child spans cover, on any thread.
    """

    def __init__(self, spans):
        self.by_id = {s[0]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            children[s[4]].append(s)
        self.outer = defaultdict(list)
        self.self_ms = defaultdict(float)
        for s in spans:
            kids = children.get(s[0], ())
            self.self_ms[s[1]] += 1e3 * (s[3] - s[2] - _covered([(k[2], k[3]) for k in kids], s[2], s[3]))
            if not self._has_ancestor(s, lambda a, name=s[1]: a[1] == name):
                self.outer[s[1]].append(s)
        self.top_level = children.get(None, [])

    def _has_ancestor(self, span, pred):
        parent = self.by_id.get(span[4])
        while parent is not None:
            if pred(parent):
                return True
            parent = self.by_id.get(parent[4])
        return False

    def calls(self, name):
        return len(self.outer[name])

    def ms(self, name):
        return 1e3 * sum(s[3] - s[2] for s in self.outer[name])

    def total(self, name, counter):
        return sum((s[6] or {}).get(counter, 0) for s in self.outer[name])

    def inside(self, name, ancestor):
        """Number of ``name`` spans that run under an ``ancestor`` span."""
        return sum(
            1 for s in self.outer[name] if self._has_ancestor(s, lambda a: a[1] == ancestor)
        )


def layer_metrics(stats: SpanStats):
    """The per-layer metrics, as {name: (value, unit)}."""
    out = {}
    for name in ("numlin.kernel_onb", "projections.build_projection", "affine_model.validate",
                 "numlin.matrix_rank", "rules.beta_radial_rule"):
        out[f"{name}.calls"] = (stats.calls(name), "count")
        out[f"{name}.ms"] = (stats.ms(name), "ms")
    projections = [s for s in stats.outer["projections.build_projection"] if s[6]]
    finite = [s for s in projections if s[6]["n"] is not None]
    top_n = max((s[6]["n"] for s in finite), default=None)
    out["projections.build_projection.ms_top_n"] = (
        1e3 * sum(s[3] - s[2] for s in finite if s[6]["n"] == top_n), "ms")
    out["projections.basis_mb"] = (max((s[6]["basis_bytes"] for s in projections), default=0) / 1e6, "MB")
    out["slice_geometry.build_slice.calls"] = (stats.calls("slice_geometry.build_slice"), "count")
    out["slice_geometry.build_slice.self_ms"] = (stats.self_ms["slice_geometry.build_slice"], "ms")

    mc = "integrators.slice_mean_mc"
    samples = stats.total(mc, "samples")
    mc_s = stats.ms(mc) / 1e3
    out[f"{mc}.calls"] = (stats.calls(mc), "count")
    out[f"{mc}.self_ms"] = (stats.self_ms[mc], "ms")
    out[f"{mc}.samples"] = (samples, "count")
    out[f"{mc}.samples_per_s"] = (samples / mc_s if mc_s > 0 else 0.0, "1/s")
    out[f"{mc}.normals_mb"] = (stats.total(mc, "normals_bytes") / 1e6, "MB")

    quad = "integrators.slice_mean_quadrature"
    results = stats.calls(quad)
    evals = stats.total(quad, "evals")
    out[f"{quad}.calls"] = (results, "count")
    out[f"{quad}.self_ms"] = (stats.self_ms[quad], "ms")
    out[f"{quad}.evals"] = (evals, "count")
    out[f"{quad}.evals_per_result"] = (evals / results if results else 0.0, "count")
    out[f"{quad}.passes_per_result"] = (
        stats.inside("rules.beta_radial_rule", quad) / 2 / results if results else 0.0, "count")
    out[f"{quad}.unconverged"] = (stats.total(quad, "unconverged"), "count")
    out["rules.sphere_directions.ms"] = (stats.ms("rules.sphere_directions"), "ms")
    out["testfns.eval.calls"] = (stats.calls("testfns.eval"), "count")
    out["testfns.eval.points"] = (stats.total("testfns.eval", "points"), "count")
    out["testfns.eval.ms"] = (stats.ms("testfns.eval"), "ms")

    limit = "integrators.gaussian_limit"
    out[f"{limit}.calls"] = (stats.calls(limit), "count")
    out[f"{limit}.self_ms"] = (stats.self_ms[limit], "ms")
    out[f"{limit}.evals"] = (stats.total(limit, "evals"), "count")
    out[f"{limit}.diverged"] = (stats.total(limit, "diverged"), "count")
    out["rules.gauss_hermite_prob.ms"] = (stats.ms("rules.gauss_hermite_prob"), "ms")
    out["testfns.known_limit.ms"] = (stats.ms("testfns.known_limit"), "ms")
    out["numlin.least_norm_solution.ms"] = (stats.ms("numlin.least_norm_solution"), "ms")

    for name in ("harness.run_sweep", "harness.emit_outputs", "harness.run_verify"):
        out[f"{name}.ms"] = (stats.ms(name), "ms")
    for check in CHECK_NAMES:
        out[f"harness.check.{check}.ms"] = (stats.ms(f"harness.check.{check}"), "ms")
    out["cli.main.self_ms"] = (stats.self_ms["cli.main"], "ms")
    return out
