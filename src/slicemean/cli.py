"""Command-line interface.

Subcommands: validate, slice, limit, sweep, verify, counterexample; each
takes --config and only the flags it reads.
Exit codes: 0 success, 1 verification failure, 2 usage/config/IO error.
Outputs are deterministic for a fixed config and seed; wall-clock timings
are written as 0.0 unless sweep --timing is given, so repeated runs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import harness, numlin
from .affine_model import validate
from .errors import ConfigError, InadmissibleFunction, SliceMeanError, UnsupportedDimension
from .integrators import gaussian_limit, slice_mean_mc, slice_mean_quadrature
from .slice_geometry import build_slice
from .testfns import known_limit


def _thread_count(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


_FLAGS = {
    "--n": dict(type=int, required=True, help="truncation dimension N"),
    "--threads": dict(type=_thread_count, default=1, help="worker threads (default 1)"),
    "--seed": dict(type=int, default=None, help="overrides the config seed"),
    "--csv": dict(default=None, help="CSV output path"),
    "--svg": dict(default=None, help="SVG chart output path"),
    "--timing": dict(
        action="store_true",
        help="record real wall-clock times (makes CSV output non-reproducible)",
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: most of its cost is the gettext
    lookups behind its help strings, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="slicemean",
        description="Means of cylinder functions over affine slices of high-"
        "dimensional spheres, their Monte Carlo cross-checks, and their "
        "Gaussian limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument("--config", help="path to the JSON configuration")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _load(args) -> dict:
    if args.config is None:
        return {}
    return harness.load_config(args.config)


def _write(path: str | None, text: str):
    """Write ``text`` to ``path`` and say so, when a path is given."""
    if path:
        harness.write_text(path, text)
        print(f"wrote {path}")


def cmd_validate(args) -> int:
    """Check the problem hypotheses."""
    cfg = _load(args)
    problem = harness.problem_from_config(cfg)
    validated = validate(problem)
    z0 = validated.z0
    print(
        harness.json_text(
            {
                "m": problem.m,
                "s": problem.s,
                "k": problem.k,
                "n_min": validated.n_min,
                "z0": [float(v) for v in z0],
                "rank_checks": {
                    "rank_q": problem.m,
                    "projection_onto": True,
                    "n_min": validated.n_min,
                    "z0_norm_sq": validated.z0_norm_sq,
                    "tol": numlin.DEFAULT_TOL,
                    "rank_margin": validated.rank_margin,
                },
            }
        )
    )
    return 0


def cmd_slice(args) -> int:
    """Evaluate one slice mean at a fixed N."""
    cfg = _load(args)
    validated = validate(harness.problem_from_config(cfg))
    fn = harness.function_from_config(cfg)
    limit = harness.limit_value(validated, fn)
    geom = build_slice(validated, args.n)
    quad = slice_mean_quadrature(geom, fn, harness.quad_config(cfg))
    seed = harness.config_seed(cfg, args.seed)
    mc = slice_mean_mc(geom, fn, harness.mc_config(cfg, seed), threads=args.threads)
    print(
        harness.json_text(
            {
                "N": geom.n,
                "a_z": geom.a_z,
                "exponent": geom.exponent,
                "log_prefactor": geom.log_prefactor,
                "quad_value": quad.value,
                "quad_err": quad.err_estimate,
                "mc_value": mc.value,
                "mc_stderr": mc.err_estimate,
                "limit_value": limit,
            }
        )
    )
    return 0


def cmd_limit(args) -> int:
    """Evaluate the limiting Gaussian integral."""
    cfg = _load(args)
    validated = validate(harness.problem_from_config(cfg))
    fn = harness.function_from_config(cfg)
    closed = known_limit(fn, validated)
    payload = {"mean": [float(v) for v in validated.z0_cyl]}
    payload["covariance"] = [[float(v) for v in row] for row in validated.g]
    if closed is not None:
        payload["closed_form"] = float(closed)
    try:
        res = gaussian_limit(validated, fn)
    except (UnsupportedDimension, InadmissibleFunction):
        seed = harness.config_seed(cfg, args.seed)
        res = gaussian_limit(validated, fn, harness.mc_config(cfg, seed, 100_000))
        payload["monte_carlo"] = {
            "value": res.value,
            "err_estimate": res.err_estimate,
            "n_evals": res.n_evals,
            "diverged": res.diverged,
        }
    else:
        payload["gauss_hermite"] = {
            "value": res.value,
            "err_estimate": res.err_estimate,
            "n_evals": res.n_evals,
        }
    print(harness.json_text(payload))
    return 0


def cmd_sweep(args) -> int:
    """Run the convergence sweep over the N schedule."""
    cfg = _load(args)
    rows, notes = harness.run_sweep(
        cfg, threads=args.threads, seed=args.seed, timing=args.timing
    )
    for note in notes:
        print(note, file=sys.stderr)
    if not rows:
        print("error: sweep produced no rows", file=sys.stderr)
        return 2
    table = harness.sweep_csv(rows)
    if not args.csv:
        print(table, end="")
    _write(args.csv, table)
    if args.svg:
        _write(args.svg, harness.sweep_svg(rows))
    rate = harness.observed_rate(rows)
    if rate is not None:
        print(f"observed abs_error ~ N^{rate:.2f} (reported, not asserted)")
    return 0


def cmd_verify(args) -> int:
    """Run the property verification suite."""
    cfg = _load(args)
    report = harness.run_verify(cfg, threads=args.threads, seed=args.seed)
    print(report.to_json())
    _write(args.csv, report.to_csv())
    return 0 if report.all_passed else 1


def cmd_counterexample(args) -> int:
    """Probe the shifted-Gaussian counterexample."""
    cfg = _load(args)
    rows, summary = harness.run_counterexample(cfg)
    table = harness.counterexample_csv(rows)
    print(table, end="")
    for line in summary:
        print(line)
    _write(args.csv, table)
    return 0


#: subcommand -> (handler, the flags it reads besides --config)
_COMMANDS = {
    "validate": (cmd_validate, ()),
    "slice": (cmd_slice, ("--n", "--threads", "--seed")),
    "limit": (cmd_limit, ("--seed",)),
    "sweep": (cmd_sweep, ("--threads", "--seed", "--csv", "--svg", "--timing")),
    "verify": (cmd_verify, ("--threads", "--seed", "--csv")),
    "counterexample": (cmd_counterexample, ("--csv",)),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except SliceMeanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
