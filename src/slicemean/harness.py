"""Config readers, sweeps, verification suites, and output emission.

Configuration is one JSON document, read fail-closed by one reader per
section, the only place that section's rules are written. A sweep compares,
for each N on a schedule, the deterministic quadrature against Monte Carlo
and against the limiting Gaussian value; the verification suite executes the
package's property checks with fixed seeds and reports machine-readable
pass/fail records.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import testfns
from .affine_model import (
    AffineProblem,
    ValidatedProblem,
    _is_count,
    _is_finite_number,
    _is_int,
    least_norm_center,
    truncated_matrix,
    validate,
)
from .errors import ConfigError, SliceMeanError
from .integrators import (
    PROBE_MAX_SHIFT,
    McConfig,
    QuadConfig,
    _ordered_map,
    _require_lp,
    counterexample_probe,
    gaussian_limit,
    slice_mean_mc,
    slice_mean_quadrature,
)
from .numlin import as_matrix, kernel_onb
from .projections import kernel_projection_norm_sq, preimage_norm_sq
from .slice_geometry import build_slice, weight
from .testfns import CosLinear, TestFunction, known_limit

DEFAULT_SCHEDULE = [32, 64, 128, 256, 512, 1024, 2048, 4096]
DEFAULT_SEED = 20240801

CSV_HEADER = "N,quad_value,quad_err,mc_value,mc_stderr,limit_value,abs_error,wall_ms"


@dataclass(frozen=True)
class SweepRow:
    n: int
    quad_value: float
    quad_err: float
    mc_value: float
    mc_stderr: float
    limit_value: float
    abs_error: float
    wall_ms: float


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_violation: float
    trials: int
    recorded: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "all_passed": bool(self.all_passed),
            "checks": [
                {
                    "name": c.name,
                    "passed": bool(c.passed),
                    "worst_violation": float(c.worst_violation),
                    "trials": int(c.trials),
                    **({"recorded": c.recorded} if c.recorded else {}),
                }
                for c in self.checks
            ],
        }
        return json_text(payload)

    def to_csv(self) -> str:
        return csv_text(
            "name,passed,worst_violation,trials",
            ((c.name, c.passed, c.worst_violation, c.trials) for c in self.checks),
        )


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _object(name: str, value, keys) -> dict:
    """``value``, which must be a JSON object with no key outside ``keys``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    unknown = set(value) - set(keys)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {name!r}; allowed: {sorted(keys)}")
    return value


def problem_from_config(cfg: dict) -> AffineProblem:
    if "problem" not in cfg:
        raise ConfigError("config has no 'problem' section")
    section = _object("problem", cfg["problem"], {"Q", "w0", "k"})
    try:
        q = section["Q"]
        if isinstance(q, dict):
            _object("problem.Q", q, {"rows", "cols", "entries"})
            rows, cols = q["rows"], q["cols"]
            if not (_is_int(rows) and _is_int(cols)):
                raise ValueError(f"Q rows and cols must be integers, got {rows!r} x {cols!r}")
            q = as_matrix(rows, cols, q["entries"])
        return AffineProblem(q=q, w0=section["w0"], k=section["k"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid 'problem' section: {exc}") from exc


def function_from_config(cfg: dict) -> TestFunction:
    """The configured test function; where the config sets problem.k, the
    function must fit R^k (see ``TestFunction.fits``)."""
    if "function" not in cfg:
        raise ConfigError("config has no 'function' section")
    try:
        fn = testfns.from_config(cfg["function"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid 'function' section: {exc}") from exc
    problem = cfg.get("problem")
    k = problem.get("k") if isinstance(problem, dict) else None
    if k is not None and not fn.fits(k):
        raise ConfigError(f"function {cfg['function']} does not fit problem.k = {k}: "
                          "t and center need k entries, alpha at most k")
    return fn


def quad_config(cfg: dict) -> QuadConfig:
    try:
        return QuadConfig(**_object("quad", cfg.get("quad", {}), {"target_rel_err"}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid 'quad' section: {exc}") from exc


def mc_config(cfg: dict, seed: int, default_samples: int = 10_000) -> McConfig:
    section = _object("mc", cfg.get("mc", {}), {"n_samples", "shard_size"})
    try:
        return McConfig(**{"n_samples": default_samples, **section}, seed=seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid 'mc' section: {exc}") from exc


def config_seed(cfg: dict, override=None) -> int:
    seed = cfg.get("seed", DEFAULT_SEED) if override is None else override
    try:  # McConfig holds the seed rule; the verify checks take the same seed
        return int(McConfig(n_samples=1, seed=seed).seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _schedule(cfg: dict) -> list:
    schedule = cfg.get("schedule", DEFAULT_SCHEDULE)
    if not (isinstance(schedule, list) and all(_is_count(n) for n in schedule)):
        raise ConfigError(f"schedule must be a list of integers in [1, 2**53], got {schedule!r}")
    return sorted(schedule)


def _verify_section(cfg: dict):
    """(check names, MC samples per cross-oracle point)."""
    section = _object("verify", cfg.get("verify", {}), {"checks", "mc_samples"})
    names = section.get("checks")
    if names is None:
        names = list(ALL_CHECKS)
    elif not (isinstance(names, list)
              and all(isinstance(n, str) and n in ALL_CHECKS for n in names)):
        raise ConfigError(f"unknown verify check(s) in verify.checks {names!r}: it must be "
                          f"null or a list of names from {sorted(ALL_CHECKS)}")
    try:
        samples = McConfig(n_samples=section.get("mc_samples", 100_000)).n_samples
    except ValueError as exc:
        raise ConfigError(f"invalid verify.mc_samples: {exc}") from exc
    return names, samples


def _counterexample_grid(cfg: dict):
    """(z values, R values ascending)."""
    section = _object("counterexample", cfg.get("counterexample", {}), {"z", "R"})
    grid = {"z": [0.0, 0.3], "R": [1.0, 10.0, 100.0, 1000.0], **section}
    for key, values in grid.items():
        if not (isinstance(values, list) and values and all(
                _is_finite_number(v) and (abs(v) <= PROBE_MAX_SHIFT if key == "z" else v > 0)
                for v in values)):
            raise ConfigError(f"counterexample.{key} must be a non-empty list of finite numbers, "
                              f"every |z| <= {PROBE_MAX_SHIFT:g} and every R > 0; got {values!r}")
    return [float(z) for z in grid["z"]], sorted(float(r) for r in grid["R"])


#: top-level key -> its reader, in reading order: the function's fit check
#: reads problem.k, so the problem comes first
_READERS = {
    "problem": problem_from_config,
    "function": function_from_config,
    "schedule": _schedule,
    "quad": quad_config,
    "mc": functools.partial(mc_config, seed=0),
    "seed": config_seed,
    "verify": _verify_section,
    "counterexample": _counterexample_grid,
}


def validate_config(cfg: dict) -> dict:
    """Return the JSON config unchanged once it has no unknown top-level key
    and every section present passes the reader the commands use."""
    _object("config", cfg, _READERS)
    for key, read in _READERS.items():
        if key in cfg:
            read(cfg)
    return cfg


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return validate_config(cfg)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def limit_value(validated: ValidatedProblem, fn: TestFunction) -> float:
    """Closed-form limit when the registry declares one, else Gauss-Hermite;
    InadmissibleFunction, before any evaluation, outside L^p for p > 1."""
    _require_lp(fn)
    closed = known_limit(fn, validated)
    if closed is not None:
        return float(closed)
    return gaussian_limit(validated, fn).value


def run_sweep(
    cfg: dict,
    threads: int = 1,
    seed=None,
    timing: bool = False,
):
    """Execute the configured sweep; returns (rows, notes).

    Rows are ascending in N. An N at which ``build_slice`` builds no slice
    (N < k + m + 2, the truncated constraints lose rank, or the sphere
    misses the constraint set) contributes a note instead of a row. A row
    whose quadrature stops short of ``target_rel_err`` (``converged`` False)
    comes with a note that says so. A function outside L^p, p > 1, is refused
    by ``limit_value`` before any row runs.
    """
    validate_config(cfg)
    problem = problem_from_config(cfg)
    fn = function_from_config(cfg)
    validated = validate(problem)
    schedule = _schedule(cfg)
    qcfg = quad_config(cfg)
    base_seed = config_seed(cfg, seed)
    limit = limit_value(validated, fn)

    def one_row(n: int):
        start = time.perf_counter()
        try:
            geom = build_slice(validated, n)
        except SliceMeanError as exc:
            return None, f"N={n}: skipped ({exc})"
        quad = slice_mean_quadrature(geom, fn, qcfg)
        mc = slice_mean_mc(geom, fn, mc_config(cfg, (base_seed + n) % 2**64))
        wall = (time.perf_counter() - start) * 1e3 if timing else 0.0
        row = SweepRow(
            n=n,
            quad_value=quad.value,
            quad_err=quad.err_estimate,
            mc_value=mc.value,
            mc_stderr=mc.err_estimate,
            limit_value=limit,
            abs_error=abs(quad.value - limit),
            wall_ms=wall,
        )
        note = None if quad.converged else (
            f"N={n}: quadrature missed target_rel_err (err_estimate {quad.err_estimate:.2g})")
        return row, note

    outcomes = _ordered_map(one_row, schedule, threads)
    rows = [row for row, _ in outcomes if row is not None]
    notes = [note for _, note in outcomes if note is not None]
    return rows, notes


def observed_rate(rows) -> float | None:
    """Least-squares slope of log(abs_error) against log(N).

    A diagnostic only: the error decay rate is reported, never asserted.
    Returns None when fewer than two rows carry a positive error.
    """
    pts = [(math.log(r.n), math.log(r.abs_error)) for r in rows if r.abs_error > 0]
    if len(pts) < 2:
        return None
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

FIX_A0 = {"Q": [[0.0, 1.0]], "w0": [0.0], "k": 1}
FIX_A3 = {"Q": [[0.0, 1.0]], "w0": [3.0], "k": 1}
FIX_B = {"Q": [[3.0, 4.0]], "w0": [5.0], "k": 1}
FIX_C = {"Q": [[1.0, 1.0, 1.0, 1.0]], "w0": [2.0], "k": 2}


def _fixture(spec: dict) -> ValidatedProblem:
    return validate(problem_from_config({"problem": spec}))


def random_validated(rng, s: int = 50) -> ValidatedProblem:
    """Random validated problem of support width s; degenerate draws are redrawn.

    m and k are drawn from 1..3, Q has standard normal entries and w0 half
    that scale. The verify checks and the test suite share this generator.
    """
    while True:
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        q = rng.standard_normal((m, s))
        w0 = 0.5 * rng.standard_normal(m)
        try:
            return validate(AffineProblem(q=q, w0=w0, k=k))
        except SliceMeanError:
            continue


def _haar_orthogonal(rng, k: int) -> np.ndarray:
    a = rng.standard_normal((k, k))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


@dataclass
class _Ctx:
    seed: int
    threads: int
    mc_samples: int

    def rng(self, salt: int):
        return np.random.default_rng((self.seed, salt))


#: check name -> ctx -> CheckResult, in report order
ALL_CHECKS = {}


def _check(name: str):
    """Register a property check in ALL_CHECKS under ``name``.

    The decorated generator takes the verify context and yields one
    violation per trial (<= 0 passes); it may ``return`` a dict that the
    report records. The registered callable runs it and reports the
    largest violation, the number of trials and whether every violation is
    <= 0. A NaN violation is reported as the worst and fails the check, and
    so does a check that yields no trial.
    """

    def register(gen):
        def run(ctx: _Ctx) -> CheckResult:
            trials = gen(ctx)
            violations = []
            try:
                while True:
                    violations.append(float(next(trials)))
            except StopIteration as done:
                recorded = done.value or {}
            worst = (math.nan if any(map(math.isnan, violations))
                     else max(violations, default=-math.inf))
            passed = bool(violations) and worst <= 0
            return CheckResult(name, passed, worst, len(violations), recorded)

        ALL_CHECKS[name] = run
        return gen

    return register


@_check("normalization")
def _normalization(ctx: _Ctx):
    one = testfns.Monomial(alpha=(0,))
    for spec in (FIX_A3, FIX_B, FIX_C):
        validated = _fixture(spec)
        for n in (16, 64, 256, 1024, 4096):
            if n < validated.n_min or n <= float(validated.z0 @ validated.z0):
                continue
            geom = build_slice(validated, n)
            res = slice_mean_quadrature(geom, one)
            slack = max(res.err_estimate, 1e-12)
            yield abs(res.value - 1.0) - slack


@_check("constant_limit")
def _constant_limit(ctx: _Ctx):
    n = 10**6
    for k in (1, 2, 3):
        for m in (1, 2):
            q = np.zeros((m, k + m))
            for i in range(m):
                q[i, k + i] = 1.0
            validated = validate(AffineProblem(q=q, w0=0.5 * np.ones(m), k=k))
            geom = build_slice(validated, n)
            got = math.exp(geom.log_prefactor)
            want = (2.0 * math.pi) ** (-k / 2.0)
            yield abs(got - want) / want - 1e-3


def _det(chol: np.ndarray) -> float:
    # |det| of the restricted projection as a map between k-spaces: det C
    return math.exp(float(np.sum(np.log(np.diag(chol)))))


@_check("determinant_limit")
def _determinant_limit(ctx: _Ctx):
    rng = ctx.rng(3)
    max_err_below = {}
    for _ in range(20):
        validated = random_validated(rng)
        det_inf = _det(validated.chol)
        for n in (50, 55, 60, 64, 75, 80, 100):
            # from the full N-column kernel basis: for N >= width (50 here)
            # build_slice returns validate's factor, so it would give
            # det_inf by construction and test nothing
            m_top = kernel_onb(truncated_matrix(validated.problem, n))[: validated.k]
            det_n = math.sqrt(np.linalg.det(m_top @ m_top.T))
            yield abs(det_n - det_inf) - 1e-12
        for n in range(validated.n_min, 50, 5):
            err = abs(_det(build_slice(validated, n).chol) - det_inf)
            max_err_below[n] = max(max_err_below.get(n, 0.0), err)
    return {
        "pre_stabilization_max_abs_err": {str(n): max_err_below[n] for n in sorted(max_err_below)}
    }


@_check("preimage_norm_inequality")
def _preimage_inequality(ctx: _Ctx):
    rng = ctx.rng(4)
    for _ in range(100):
        validated = random_validated(rng)
        n = int(rng.integers(validated.n_min, 50))
        chol_n = build_slice(validated, n).chol
        x = rng.standard_normal(validated.k)
        lhs = preimage_norm_sq(chol_n, x)
        rhs = preimage_norm_sq(validated.chol, x)
        yield rhs - lhs - 1e-12


def _bound_draws(rng):
    """10,000 random (k, m, N, y) as four arrays: k, m in 1..4, N in
    [k + m + 3, 10^4), y uniform in [0, N)."""
    k = rng.integers(1, 5, 10_000)
    m = rng.integers(1, 5, 10_000)
    n = rng.integers(k + m + 3, 10_000)
    return k, m, n, rng.uniform(0.0, n)


def _bound_violations(k, m, n, y) -> np.ndarray:
    """(1 - y/N)^((N-k-m-2)/2) - e^((k+m+2)/2) e^(-y/2) - 1e-12 for each draw.
    Where y/N rounds to 1 the left side is exp(-inf) = 0."""
    with np.errstate(divide="ignore"):
        lhs = np.exp(0.5 * (n - k - m - 2) * np.log1p(-y / n))
    return lhs - (np.exp(0.5 * (k + m + 2)) * np.exp(-0.5 * y) + 1e-12)


@_check("dominating_bound")
def _dominating_bound(ctx: _Ctx):
    yield from _bound_violations(*_bound_draws(ctx.rng(5))).tolist()


@_check("characteristic_function_identity")
def _char_fn_identity(ctx: _Ctx):
    rng = ctx.rng(6)
    for _ in range(20):
        validated = random_validated(rng)
        g = validated.g
        for _ in range(5):
            t = rng.standard_normal(validated.k)
            quad_form = float(t @ g @ t)
            proj_norm = kernel_projection_norm_sq(validated, t)
            slack = min(1e-10, 1e-12 + 1e-10 * abs(quad_form))
            yield abs(quad_form - proj_norm) - slack


@_check("mc_determinism")
def _mc_determinism(ctx: _Ctx):
    validated = _fixture(FIX_B)
    geom = build_slice(validated, 64)
    fn = CosLinear(t=[1.0])
    cfg = McConfig(n_samples=40_000, seed=ctx.seed % 2**64, shard_size=4096)
    base, again, threaded = (slice_mean_mc(geom, fn, cfg, threads=t) for t in (1, 1, 4))
    # bit-identical or failed: any difference is a violation
    yield abs(base.value - again.value)
    yield abs(base.value - threaded.value)
    yield abs(base.err_estimate - threaded.err_estimate)


@_check("factor_invariance")
def _factor_invariance(ctx: _Ctx):
    rng = ctx.rng(8)
    for spec, fn in ((FIX_B, CosLinear(t=[0.9])), (FIX_C, CosLinear(t=[0.8, -0.5]))):
        validated = _fixture(spec)
        geom = build_slice(validated, 128)
        base = slice_mean_quadrature(geom, fn)
        for _ in range(3):
            o = _haar_orthogonal(rng, validated.k)
            geom_rot = dataclasses.replace(geom, chol=geom.chol @ o)
            rot = slice_mean_quadrature(geom_rot, fn)
            # a fixed bound: the rotated rule agrees to round-off, whatever
            # the error estimate of the base result
            yield abs(rot.value - base.value) - 1e-13


@_check("basis_invariance")
def _basis_invariance(ctx: _Ctx):
    rng = ctx.rng(9)
    for _ in range(10):
        validated = random_validated(rng)
        problem = validated.problem
        basis = kernel_onb(truncated_matrix(problem, problem.width))
        o = _haar_orthogonal(rng, basis.shape[1])
        alt = basis @ o
        k = problem.k
        g1 = basis[:k] @ basis[:k].T
        g2 = alt[:k] @ alt[:k].T
        yield float(np.abs(g1 - g2).max()) - 1e-12


@_check("padding_invariance")
def _padding_invariance(ctx: _Ctx):
    fn = CosLinear(t=[1.0])
    for spec in (FIX_A3, FIX_B):
        base = _fixture(spec)
        q = np.asarray(spec["Q"], dtype=float)
        padded = validate(
            AffineProblem(
                q=np.hstack([q, np.zeros((q.shape[0], 7))]),
                w0=np.asarray(spec["w0"]),
                k=spec["k"],
            )
        )
        n = 64
        v1 = slice_mean_quadrature(build_slice(base, n), fn).value
        v2 = slice_mean_quadrature(build_slice(padded, n), fn).value
        yield max(
            float(np.abs(np.pad(base.z0, (0, padded.z0.size - base.z0.size)) - padded.z0).max()),
            float(abs(base.n_min - padded.n_min)),
            abs(v1 - v2) - 1e-12,
        )


@_check("z0n_convergence")
def _z0n_convergence(ctx: _Ctx):
    rng = ctx.rng(10)
    for _ in range(10):
        validated = random_validated(rng)
        problem = validated.problem
        z0 = validated.z0
        errs = []
        for n in range(validated.n_min, 51):
            zn = least_norm_center(problem, n)
            padded = np.zeros(z0.size)
            padded[: zn.size] = zn
            errs.append(float(np.linalg.norm(padded - z0)))
        diffs = np.diff(np.asarray(errs))
        yield max(float(diffs.max(initial=-math.inf)), errs[-1]) - 1e-12


@_check("z0_orthogonality")
def _z0_orthogonality(ctx: _Ctx):
    rng = ctx.rng(11)
    fixtures = [_fixture(s) for s in (FIX_A3, FIX_B, FIX_C)]
    fixtures += [random_validated(rng) for _ in range(5)]
    for validated in fixtures:
        problem = validated.problem
        basis = kernel_onb(truncated_matrix(problem, problem.width))
        inner = basis.T @ validated.z0[: problem.width]
        yield float(np.abs(inner).max(initial=0.0)) - 1e-10


@_check("exact_moments")
def _exact_moments(ctx: _Ctx):
    fix_a3 = _fixture(FIX_A3)
    fix_b = _fixture(FIX_B)
    x1 = testfns.Monomial(alpha=(1,))
    x2 = testfns.Monomial(alpha=(2,))
    for n in (16, 64, 256, 1024, 4096):
        got = slice_mean_quadrature(build_slice(fix_a3, n), x2).value
        yield abs(got - (n - 9.0) / (n - 1.0)) - 1e-8
    for n in (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096):
        geom = build_slice(fix_b, n)
        yield abs(slice_mean_quadrature(geom, x1).value - 0.6) - 1e-10
        yield abs(slice_mean_quadrature(geom, x2).value - 1.0) - 1e-8


@_check("weight_shape")
def _weight_shape(ctx: _Ctx):
    for spec, n in ((FIX_A3, 64), (FIX_B, 256), (FIX_C, 32)):
        validated = _fixture(spec)
        geom = build_slice(validated, n)
        r = np.linspace(0.0, geom.a_z, 2001)
        w = weight(geom, r)
        yield max(float(np.diff(w).max()) - 1e-15, abs(w[0] - 1.0), w[-1])


@_check("known_limit_identity")
def _known_limit_identity(ctx: _Ctx):
    rng = ctx.rng(13)
    for spec in (FIX_A0, FIX_B, FIX_C):
        validated = _fixture(spec)
        for _ in range(7):
            t = rng.standard_normal(validated.k)
            via_gram = known_limit(CosLinear(t=t), validated)
            proj_sq = kernel_projection_norm_sq(validated, t)
            via_proj = math.exp(-0.5 * proj_sq) * math.cos(float(t @ validated.z0_cyl))
            yield abs(via_gram - via_proj) - 1e-10


CROSS_ORACLE_FUNCTIONS = [
    CosLinear(t=[1.0]),
    testfns.SinLinear(t=[1.0]),
    CosLinear(t=[0.5]),
    testfns.BoundedCutoff(inner=testfns.Monomial(alpha=(2,)), cap=4.0),
    testfns.IndicatorBall(center=[0.0], radius=1.5),
]
CROSS_ORACLE_NS = [16, 32, 64, 128, 256]


@_check("cross_oracle")
def _cross_oracle(ctx: _Ctx):
    # every quadrature on this thread before the MC runs go on the pool:
    # cold radial-rule builds that overlapped would raise peak memory. A
    # trial's violation is the count of disagreements so far beyond the
    # allowance of 2: the largest is the final count less 2
    runs, quads = [], []
    for salt, spec in enumerate((FIX_A3, FIX_B)):
        validated = _fixture(spec)
        for fi, fn in enumerate(CROSS_ORACLE_FUNCTIONS):
            for n in CROSS_ORACLE_NS:
                geom = build_slice(validated, n)
                seed = (ctx.seed + 1000 * salt + 10 * fi + n) % 2**64
                runs.append((geom, fn, McConfig(n_samples=ctx.mc_samples, seed=seed)))
                quads.append(slice_mean_quadrature(geom, fn))
    mcs = _ordered_map(lambda run: slice_mean_mc(*run), runs, ctx.threads)
    disagreements = 0
    for quad, mc in zip(quads, mcs):
        window = 4.0 * (quad.err_estimate + mc.err_estimate)
        if abs(quad.value - mc.value) > window:
            disagreements += 1
        yield disagreements - 2


@_check("mc_vs_known_limit")
def _mc_vs_known_limit(ctx: _Ctx):
    # the inputs come off one generator, in trial order, on this thread;
    # only the MC runs go on the pool
    rng = ctx.rng(15)
    runs = []
    for spec in (FIX_A0, FIX_B):
        validated = _fixture(spec)
        for _ in range(10):
            fn = CosLinear(t=rng.standard_normal(validated.k))
            seed = int(rng.integers(0, 2**63))
            runs.append((validated, fn, McConfig(n_samples=1_000_000, seed=seed)))
    mcs = _ordered_map(lambda run: gaussian_limit(*run), runs, ctx.threads)
    for (validated, fn, _), mc in zip(runs, mcs):
        yield abs(mc.value - known_limit(fn, validated)) - 4.0 * mc.err_estimate


def run_verify(cfg: dict, threads: int = 1, seed=None) -> VerifyReport:
    """Run the configured property checks with fixed seeds.

    The checks run one after another. ``threads`` workers run the
    independent MC runs of ``cross_oracle`` and ``mc_vs_known_limit``, each
    run serial inside; every input is drawn, and every quadrature taken, on
    the calling thread. (``mc_determinism`` compares 1 thread with 4 at any
    ``threads``.) MC results do not depend on the thread count, so neither
    does the report. Failures become report entries, not exceptions; the
    CLI turns a failed report into exit code 1.
    """
    validate_config(cfg)
    names, mc_samples = _verify_section(cfg)
    ctx = _Ctx(seed=config_seed(cfg, seed), threads=threads, mc_samples=mc_samples)
    return VerifyReport(checks=tuple(ALL_CHECKS[name](ctx) for name in names))


# ---------------------------------------------------------------------------
# Counterexample
# ---------------------------------------------------------------------------


def run_counterexample(cfg: dict):
    """Evaluate the counterexample probe on the configured (z, R) grid.

    Returns (rows, summary_lines): rows are {z, R, value} dicts, R ascending
    within each z.
    """
    validate_config(cfg)
    z_list, r_list = _counterexample_grid(cfg)
    rows = []
    for z in z_list:
        for r in r_list:
            rows.append({"z": z, "R": r, "value": counterexample_probe(z, r)})
    summary = []
    target = math.sqrt(math.pi / 2.0)
    for z in z_list:
        vals = [row["value"] for row in rows if row["z"] == z]
        if z == 0.0:
            summary.append(
                f"z=0: truncated integrals rise to {vals[-1]:.8f} "
                f"(limit sqrt(pi/2) = {target:.8f}; gap is the analytic tail "
                f"~2/(R*sqrt(2*pi)))"
            )
        else:
            ratio = vals[-1] / vals[0] if vals[0] else math.inf
            summary.append(
                f"z={z:g}: column grows without bound "
                f"(value({r_list[-1]:g})/value({r_list[0]:g}) = {ratio:.3g})"
            )
    summary.append(
        "Conclusion demonstrated: integrability against the centered Gaussian "
        "alone does not control shifted-mean integrals; the limit statement "
        "needs L^p integrability for some p > 1."
    )
    return rows, summary


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return repr(float(value))


def csv_text(header: str, records) -> str:
    """Every CSV the package emits, as text: the header line, then one line
    per record (a sequence of values in column order), each line ending in a
    newline. Integers and booleans are written as integers, strings as they
    are, and every other value as the shortest decimal that round-trips to
    the same IEEE double.
    """
    lines = [header] + [",".join(_csv_cell(v) for v in record) for record in records]
    return "\n".join(lines) + "\n"


def sweep_csv(rows) -> str:
    """The sweep CSV: ``CSV_HEADER``, then one line per row."""
    if not rows:
        raise ValueError("no rows to emit")
    return csv_text(CSV_HEADER, map(dataclasses.astuple, rows))


def counterexample_csv(rows) -> str:
    """The counterexample table: ``z,R,value``, then one line per grid point."""
    return csv_text("z,R,value", ((row["z"], row["R"], row["value"]) for row in rows))


def json_text(payload) -> str:
    """Every JSON document the package emits, as text: two-space indent, keys
    sorted."""
    return json.dumps(payload, indent=2, sort_keys=True)


def write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def sweep_svg(rows) -> str:
    """The sweep chart, a self-contained log-log SVG: abs_error and quad_err
    versus N."""
    if not rows:
        raise ValueError("no rows to plot")
    width, height = 640.0, 480.0
    left, right, top, bottom = 70.0, 20.0, 20.0, 50.0
    floor = 1e-16
    xs = [math.log10(row.n) for row in rows]
    series = {
        "abs_error": [math.log10(max(row.abs_error, floor)) for row in rows],
        "quad_err": [math.log10(max(row.quad_err, floor)) for row in rows],
    }
    x_lo, x_hi = min(xs), max(xs)
    ys_all = [y for ys in series.values() for y in ys]
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * (width - left - right)

    def sy(y):
        return height - bottom - (y - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    colors = {"abs_error": "#1f77b4", "quad_err": "#d62728"}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<line x1="{left:.1f}" y1="{height - bottom:.1f}" x2="{width - right:.1f}" '
        f'y2="{height - bottom:.1f}" stroke="black"/>',
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" y2="{height - bottom:.1f}" '
        'stroke="black"/>',
        f'<text x="{(left + width - right) / 2:.1f}" y="{height - 12:.1f}" '
        'text-anchor="middle" font-size="13">log10 N</text>',
        f'<text x="16" y="{(top + height - bottom) / 2:.1f}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 16 {(top + height - bottom) / 2:.1f})">'
        "log10 error</text>",
    ]
    for name, ys in series.items():
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{colors[name]}" stroke-width="1.5"/>'
        )
    for i, name in enumerate(series):
        y = top + 16 + 18 * i
        parts.append(
            f'<line x1="{width - right - 130:.1f}" y1="{y:.1f}" '
            f'x2="{width - right - 105:.1f}" y2="{y:.1f}" stroke="{colors[name]}" '
            'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - right - 100:.1f}" y="{y + 4:.1f}" font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
