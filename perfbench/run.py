"""slicemean benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {sweep_deep,slice_batch,verify_suite,all}
                             --seed N --seconds S --trace {0,1} [--tiny]

With --trace 0 it prints the end-to-end metrics, measured untraced. With
--trace 1 it repeats that measurement, then runs one more unit of the
workload with every layer wrapped in spans, and prints the per-layer
metrics. Each metric is printed as "name value unit"; the last line is the
JSON summary {"correct", "attempted", "failed", "metrics"}. A result file
with the recorded environment, and the spans in a traced run, are written
under .perfbench_out/ in the checkout. --tiny shrinks every workload for
the smoke test.
"""

import bootstrap  # first: pins BLAS threads and the import path

import argparse
import collections
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import spans
import workloads

OUT_DIR = bootstrap.ROOT / ".perfbench_out"
#: Set-up is measured in this many fresh processes; setup_s is their median.
SETUP_PROBES = 5


def measure_setup(name: str, input_path: Path):
    """Seconds from spawning a fresh interpreter until it has imported the
    package, parsed and validated the input and made one warm-up call."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(probe), name, str(input_path)],
                                stdout=subprocess.PIPE, text=True, cwd=bootstrap.ROOT)
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or ready.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times), times


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, seconds: float, tag):
    """Run whole units until the next one would end after ``seconds``.

    Peak RSS is read after the first unit: later units reuse memory the
    allocator kept, and how much it keeps varies from run to run.
    """
    unit_s, latencies, attempted, failures = [], [], 0, []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        lat, outputs = workload.unit(tag)
        unit_s.append(time.perf_counter() - t0)
        if len(unit_s) == 1:
            peak_rss_mb = _peak_rss_mb()
        latencies += lat
        n, bad = workload.check(outputs)
        attempted += n
        failures += bad
        elapsed = time.perf_counter() - start
        if len(unit_s) >= workload.min_units and elapsed + unit_s[-1] > seconds:
            return unit_s, latencies, attempted, failures, peak_rss_mb


def traced_unit(workload, tracer):
    """One unit with every layer wrapped; spans carry the request index."""
    tracer.install()

    def tag(i):
        tracer.request = i

    try:
        t0 = time.perf_counter()
        _, outputs = workload.unit(tag)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    attempted, failures = workload.check(outputs)
    return wall, attempted, failures


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bootstrap.ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def environment(seed: int, threads: int):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": dict(bootstrap.BLAS_ENV),
        "worker_threads": threads,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def run_all(args):
    """Every workload in turn, each in its own process so that peak RSS and
    set-up are its own; the summary line merges them as workload.metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(argv + ["--tiny"] * args.tiny, capture_output=True, text=True,
                             check=True, cwd=bootstrap.ROOT)
        lines = out.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    input_path = OUT_DIR / f"{stem}-input.json"
    workloads.write_input(args.workload, args.seed, args.tiny, input_path)
    # setup_s is an end-to-end metric, so traced runs do not measure it.
    setup_s, setup_samples = measure_setup(args.workload, input_path) if not args.trace else (None, [])

    cls = workloads.WORKLOADS[args.workload]
    workload = cls(input_path)
    unit_s, latencies, attempted, failures, peak_rss_mb = measure(workload, args.seconds, lambda i: None)
    wall_s = statistics.median(unit_s)

    metrics = {}
    if args.trace:
        tracer = spans.Tracer()
        traced_wall, n, bad = traced_unit(workload, tracer)
        attempted += n
        failures += bad
        stats = spans.SpanStats(tracer.spans)
        metrics = spans.layer_metrics(stats)
        top = sum(s[3] - s[2] for s in stats.top_level)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
        metrics["trace.top_level_coverage"] = (top / traced_wall, "ratio")
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl")
    else:
        metrics["setup_s"] = (setup_s, "s")
        metrics["wall_s"] = (wall_s, "s")
        metrics["latency_ms_p50"] = (1e3 * quantile(latencies, 0.5), "ms")
        metrics["latency_ms_p90"] = (1e3 * quantile(latencies, 0.9), "ms")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    bad = workload.determinism_failures(args.seed % 2**64)
    attempted += 1
    failures += bad

    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed, cls.threads),
        "setup_samples_s": setup_samples,
        "unit_s": unit_s,
        "latency_samples": len(latencies),
        "failures": dict(collections.Counter(failures)),
        **summary,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for failure, count in record["failures"].items():
        print(f"FAILED ({count}x): {failure}")
    print(f"latency samples: {len(latencies)}, units: {len(unit_s)}")
    print(f"failed_frac {len(failures) / attempted} ({len(failures)}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
