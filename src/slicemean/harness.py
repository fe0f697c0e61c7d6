"""Sweeps, verification suites, and output emission.

Configuration is a single JSON document validated fail-closed (unknown keys
are rejected). A sweep compares, for each N on a schedule, the deterministic
quadrature against Monte Carlo and against the limiting Gaussian value; the
verification suite executes the package's property checks with fixed seeds
and reports machine-readable pass/fail records.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import testfns
from .affine_model import (
    AffineProblem,
    ValidatedProblem,
    least_norm_center,
    truncated_matrix,
    validate,
)
from .errors import (
    ConfigError,
    InadmissibleFunction,
    SliceEmpty,
    SliceMeanError,
)
from .integrators import (
    McConfig,
    QuadConfig,
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
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        return csv_text(
            "name,passed,worst_violation,trials",
            ((c.name, c.passed, c.worst_violation, c.trials) for c in self.checks),
        )


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_SCHEMA = {
    "problem": {"Q", "w0", "k"},
    "function": {"kind", "params"},
    "quad": {"radial_nodes", "angular_nodes", "target_rel_err"},
    "mc": {"n_samples", "shard_size"},
    "outputs": {"csv_path", "svg_path"},
    "verify": {"checks", "tol_scale", "mc_samples"},
    "counterexample": {"z", "R", "nodes"},
}
_TOP_KEYS = set(_SCHEMA) | {"schedule", "seed"}
#: Values that must be JSON integers, by their dotted path in the config.
_INT_KEYS = ("problem.k", "problem.Q.rows", "problem.Q.cols", "seed", "mc.n_samples",
             "mc.shard_size", "quad.radial_nodes", "quad.angular_nodes", "counterexample.nodes",
             "verify.mc_samples")


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not counts
    return isinstance(value, int) and not isinstance(value, bool)


def _reject_unknown(section: str, given: dict, allowed: set):
    unknown = set(given) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in {section!r}; allowed: {sorted(allowed)}"
        )


def validate_config(cfg: dict) -> dict:
    """Validate the JSON config fail-closed and return it unchanged.

    Every section rejects keys it does not know about, so a typo fails the
    run instead of being silently ignored. Counts, k and the seed must be
    JSON integers: 2.5, true or "1" are refused, not truncated.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown("top level", cfg, _TOP_KEYS)
    for section, allowed in _SCHEMA.items():
        if section in cfg:
            if not isinstance(cfg[section], dict):
                raise ConfigError(f"section {section!r} must be an object")
            _reject_unknown(section, cfg[section], allowed)
    if "problem" in cfg:
        q = cfg["problem"].get("Q")
        if isinstance(q, dict):
            _reject_unknown("problem.Q", q, {"rows", "cols", "entries"})
    for name in _INT_KEYS:
        *path, key = name.split(".")
        values = cfg
        for part in path:
            values = values.get(part) if isinstance(values, dict) else None
        if isinstance(values, dict) and key in values and not _is_int(values[key]):
            raise ConfigError(f"{name} must be an integer, got {values[key]!r}")
    if "schedule" in cfg and (
        not isinstance(cfg["schedule"], list)
        or not all(_is_int(n) and n > 0 for n in cfg["schedule"])
    ):
        raise ConfigError("schedule must be a list of positive integers")
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


def problem_from_config(cfg: dict) -> AffineProblem:
    if "problem" not in cfg:
        raise ConfigError("config has no 'problem' section")
    section = cfg["problem"]
    try:
        q_spec = section["Q"]
        if isinstance(q_spec, dict):
            q = as_matrix(int(q_spec["rows"]), int(q_spec["cols"]), q_spec["entries"])
        else:
            q = np.atleast_2d(np.asarray(q_spec, dtype=float))
        return AffineProblem(q=q, w0=np.asarray(section["w0"], dtype=float), k=section["k"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid 'problem' section: {exc}") from exc


def function_from_config(cfg: dict) -> TestFunction:
    if "function" not in cfg:
        raise ConfigError("config has no 'function' section")
    try:
        return testfns.from_config(cfg["function"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid 'function' section: {exc}") from exc


def quad_config(cfg: dict) -> QuadConfig:
    try:
        return QuadConfig(**cfg.get("quad", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid 'quad' section: {exc}") from exc


def mc_config(cfg: dict, seed: int, default_samples: int = 10_000) -> McConfig:
    section = cfg.get("mc", {})
    try:
        return McConfig(
            n_samples=int(section.get("n_samples", default_samples)),
            seed=seed,
            shard_size=int(section.get("shard_size", 1 << 16)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid 'mc' section: {exc}") from exc


def config_seed(cfg: dict, override=None) -> int:
    seed = int(override) if override is not None else int(cfg.get("seed", DEFAULT_SEED))
    if not (0 <= seed < 2**64):
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def limit_value(validated: ValidatedProblem, fn: TestFunction) -> float:
    """Closed-form limit when the registry declares one, else Gauss-Hermite."""
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

    Rows are ascending in N. An N at which no slice can be built (the
    sphere misses the constraint set, N is below n_min, or the truncated
    constraints lose rank) contributes a note instead of a row. Functions
    declared L^1 only are refused: the convergence guarantee needs L^p for
    some p > 1 against the limiting Gaussian.
    """
    problem = problem_from_config(cfg)
    fn = function_from_config(cfg)
    if not fn.sweep_admissible:
        raise InadmissibleFunction(
            f"function {fn.kind!r} is declared {fn.lp_class} with respect to the "
            "limiting Gaussian; sweeps require L^p integrability for some p > 1, "
            "so this function is refused"
        )
    validated = validate(problem)
    schedule = sorted(cfg.get("schedule", DEFAULT_SCHEDULE))
    qcfg = quad_config(cfg)
    base_seed = config_seed(cfg, seed)
    limit = limit_value(validated, fn)

    def one_row(n: int):
        start = time.perf_counter()
        try:
            geom = build_slice(validated, n)
        except (SliceEmpty, SliceMeanError) as exc:
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
        return row, None

    if threads > 1 and len(schedule) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(one_row, schedule))
    else:
        outcomes = [one_row(n) for n in schedule]

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
    return validate(
        AffineProblem(q=np.asarray(spec["Q"], dtype=float), w0=np.asarray(spec["w0"]), k=spec["k"])
    )


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
    tol_scale: float
    threads: int
    mc_samples: int

    def rng(self, salt: int):
        return np.random.default_rng((self.seed, salt))


def _check_normalization(ctx: _Ctx) -> CheckResult:
    one = testfns.Monomial(alpha=(0,))
    worst = -math.inf
    trials = 0
    for spec in (FIX_A3, FIX_B, FIX_C):
        validated = _fixture(spec)
        for n in (16, 64, 256, 1024, 4096):
            if n < validated.n_min or n <= float(validated.z0 @ validated.z0):
                continue
            geom = build_slice(validated, n)
            res = slice_mean_quadrature(geom, one)
            slack = max(res.err_estimate, 1e-12) * ctx.tol_scale
            worst = max(worst, abs(res.value - 1.0) - slack)
            trials += 1
    return CheckResult("normalization", worst <= 0, worst, trials)


def _check_constant_limit(ctx: _Ctx) -> CheckResult:
    n = 10**6
    worst = -math.inf
    trials = 0
    for k in (1, 2, 3):
        for m in (1, 2):
            q = np.zeros((m, k + m))
            for i in range(m):
                q[i, k + i] = 1.0
            validated = validate(AffineProblem(q=q, w0=0.5 * np.ones(m), k=k))
            geom = build_slice(validated, n)
            got = math.exp(geom.log_prefactor)
            want = (2.0 * math.pi) ** (-k / 2.0)
            worst = max(worst, abs(got - want) / want - 1e-3 * ctx.tol_scale)
            trials += 1
    return CheckResult("constant_limit", worst <= 0, worst, trials)


def _det(chol: np.ndarray) -> float:
    # |det| of the restricted projection as a map between k-spaces: det C
    return math.exp(float(np.sum(np.log(np.diag(chol)))))


def _check_determinant_limit(ctx: _Ctx) -> CheckResult:
    rng = ctx.rng(3)
    worst = -math.inf
    trials = 0
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
            worst = max(worst, abs(det_n - det_inf) - 1e-12 * ctx.tol_scale)
            trials += 1
        for n in range(validated.n_min, 50, 5):
            err = abs(_det(build_slice(validated, n).chol) - det_inf)
            max_err_below[n] = max(max_err_below.get(n, 0.0), err)
    recorded = {
        "pre_stabilization_max_abs_err": {str(n): max_err_below[n] for n in sorted(max_err_below)}
    }
    return CheckResult("determinant_limit", worst <= 0, worst, trials, recorded)


def _check_preimage_inequality(ctx: _Ctx) -> CheckResult:
    rng = ctx.rng(4)
    worst = -math.inf
    trials = 0
    while trials < 100:
        validated = random_validated(rng)
        n = int(rng.integers(validated.n_min, 50))
        chol_n = build_slice(validated, n).chol
        x = rng.standard_normal(validated.k)
        lhs = preimage_norm_sq(chol_n, x)
        rhs = preimage_norm_sq(validated.chol, x)
        worst = max(worst, rhs - lhs - 1e-12 * ctx.tol_scale)
        trials += 1
    return CheckResult("preimage_norm_inequality", worst <= 0, worst, trials)


def _check_dominating_bound(ctx: _Ctx) -> CheckResult:
    rng = ctx.rng(5)
    worst = -math.inf
    trials = 10_000
    for _ in range(trials):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        n = int(rng.integers(k + m + 3, 10_000))
        y = float(rng.uniform(0.0, n))
        lhs = math.exp(0.5 * (n - k - m - 2) * math.log1p(-y / n)) if y < n else 0.0
        rhs = math.exp(0.5 * (k + m + 2)) * math.exp(-0.5 * y) + 1e-12 * ctx.tol_scale
        worst = max(worst, lhs - rhs)
    return CheckResult("dominating_bound", worst <= 0, worst, trials)


def _check_char_fn_identity(ctx: _Ctx) -> CheckResult:
    rng = ctx.rng(6)
    worst = -math.inf
    trials = 0
    for _ in range(20):
        validated = random_validated(rng)
        g = validated.g
        for _ in range(5):
            t = rng.standard_normal(validated.k)
            quad_form = float(t @ g @ t)
            proj_norm = kernel_projection_norm_sq(validated, t)
            slack = min(1e-10, 1e-12 + 1e-10 * abs(quad_form)) * ctx.tol_scale
            worst = max(worst, abs(quad_form - proj_norm) - slack)
            trials += 1
    return CheckResult("characteristic_function_identity", worst <= 0, worst, trials)


def _check_mc_determinism(ctx: _Ctx) -> CheckResult:
    validated = _fixture(FIX_B)
    geom = build_slice(validated, 64)
    fn = CosLinear(t=[1.0])
    cfg = McConfig(n_samples=40_000, seed=ctx.seed % 2**64, shard_size=4096)
    runs = [
        slice_mean_mc(geom, fn, cfg, threads=1),
        slice_mean_mc(geom, fn, cfg, threads=1),
        slice_mean_mc(geom, fn, cfg, threads=4),
    ]
    worst = max(
        abs(runs[0].value - runs[1].value),
        abs(runs[0].value - runs[2].value),
        abs(runs[0].err_estimate - runs[2].err_estimate),
    )
    return CheckResult("mc_determinism", worst == 0.0, worst, len(runs))


def _check_factor_invariance(ctx: _Ctx) -> CheckResult:
    rng = ctx.rng(8)
    worst = -math.inf
    trials = 0
    for spec, fn in ((FIX_B, CosLinear(t=[0.9])), (FIX_C, CosLinear(t=[0.8, -0.5]))):
        validated = _fixture(spec)
        geom = build_slice(validated, 128)
        base = slice_mean_quadrature(geom, fn)
        for _ in range(3):
            o = _haar_orthogonal(rng, validated.k)
            geom_rot = dataclasses.replace(geom, chol=geom.chol @ o)
            rot = slice_mean_quadrature(geom_rot, fn)
            slack = 10.0 * max(base.err_estimate, 1e-15) * ctx.tol_scale
            worst = max(worst, abs(rot.value - base.value) - slack)
            trials += 1
    return CheckResult("factor_invariance", worst <= 0, worst, trials)


def _check_basis_invariance(ctx: _Ctx) -> CheckResult:
    rng = ctx.rng(9)
    worst = -math.inf
    trials = 0
    for _ in range(10):
        validated = random_validated(rng)
        problem = validated.problem
        basis = kernel_onb(truncated_matrix(problem, problem.width))
        o = _haar_orthogonal(rng, basis.shape[1])
        alt = basis @ o
        k = problem.k
        g1 = basis[:k] @ basis[:k].T
        g2 = alt[:k] @ alt[:k].T
        worst = max(worst, float(np.abs(g1 - g2).max()) - 1e-12 * ctx.tol_scale)
        trials += 1
    return CheckResult("basis_invariance", worst <= 0, worst, trials)


def _check_padding_invariance(ctx: _Ctx) -> CheckResult:
    worst = -math.inf
    trials = 0
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
        worst = max(
            worst,
            float(np.abs(np.pad(base.z0, (0, padded.z0.size - base.z0.size)) - padded.z0).max()),
            float(abs(base.n_min - padded.n_min)),
        )
        n = 64
        v1 = slice_mean_quadrature(build_slice(base, n), fn).value
        v2 = slice_mean_quadrature(build_slice(padded, n), fn).value
        worst = max(worst, abs(v1 - v2) - 1e-12 * ctx.tol_scale)
        trials += 1
    return CheckResult("padding_invariance", worst <= 0, worst, trials)


def _check_z0n_convergence(ctx: _Ctx) -> CheckResult:
    rng = ctx.rng(10)
    worst = -math.inf
    trials = 0
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
        worst = max(worst, float(diffs.max(initial=-math.inf)) - 1e-12 * ctx.tol_scale)
        worst = max(worst, errs[-1] - 1e-12 * ctx.tol_scale)
        trials += 1
    return CheckResult("z0n_convergence", worst <= 0, worst, trials)


def _check_z0_orthogonality(ctx: _Ctx) -> CheckResult:
    rng = ctx.rng(11)
    worst = -math.inf
    trials = 0
    fixtures = [_fixture(s) for s in (FIX_A3, FIX_B, FIX_C)]
    fixtures += [random_validated(rng) for _ in range(5)]
    for validated in fixtures:
        problem = validated.problem
        basis = kernel_onb(truncated_matrix(problem, problem.width))
        inner = basis.T @ validated.z0[: problem.width]
        worst = max(worst, float(np.abs(inner).max(initial=0.0)) - 1e-10 * ctx.tol_scale)
        trials += 1
    return CheckResult("z0_orthogonality", worst <= 0, worst, trials)


def _check_exact_moments(ctx: _Ctx) -> CheckResult:
    worst = -math.inf
    trials = 0
    fix_a3 = _fixture(FIX_A3)
    fix_b = _fixture(FIX_B)
    x1 = testfns.Monomial(alpha=(1,))
    x2 = testfns.Monomial(alpha=(2,))
    for n in (16, 64, 256, 1024, 4096):
        got = slice_mean_quadrature(build_slice(fix_a3, n), x2).value
        worst = max(worst, abs(got - (n - 9.0) / (n - 1.0)) - 1e-8 * ctx.tol_scale)
        trials += 1
    for n in (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096):
        geom = build_slice(fix_b, n)
        worst = max(
            worst, abs(slice_mean_quadrature(geom, x1).value - 0.6) - 1e-10 * ctx.tol_scale
        )
        worst = max(
            worst, abs(slice_mean_quadrature(geom, x2).value - 1.0) - 1e-8 * ctx.tol_scale
        )
        trials += 2
    return CheckResult("exact_moments", worst <= 0, worst, trials)


def _check_weight_shape(ctx: _Ctx) -> CheckResult:
    worst = -math.inf
    trials = 0
    for spec, n in ((FIX_A3, 64), (FIX_B, 256), (FIX_C, 32)):
        validated = _fixture(spec)
        geom = build_slice(validated, n)
        r = np.linspace(0.0, geom.a_z, 2001)
        w = weight(geom, r)
        worst = max(worst, float(np.diff(w).max()) - 1e-15 * ctx.tol_scale)
        worst = max(worst, abs(w[0] - 1.0), w[-1])
        trials += 1
    return CheckResult("weight_shape", worst <= 0, worst, trials)


def _check_known_limit_identity(ctx: _Ctx) -> CheckResult:
    rng = ctx.rng(13)
    worst = -math.inf
    trials = 0
    for spec in (FIX_A0, FIX_B, FIX_C):
        validated = _fixture(spec)
        for _ in range(7):
            t = rng.standard_normal(validated.k)
            via_gram = known_limit(CosLinear(t=t), validated)
            proj_sq = kernel_projection_norm_sq(validated, t)
            via_proj = math.exp(-0.5 * proj_sq) * math.cos(float(t @ validated.z0_cyl))
            worst = max(worst, abs(via_gram - via_proj) - 1e-10 * ctx.tol_scale)
            trials += 1
    return CheckResult("known_limit_identity", worst <= 0, worst, trials)


CROSS_ORACLE_FUNCTIONS = [
    CosLinear(t=[1.0]),
    testfns.SinLinear(t=[1.0]),
    CosLinear(t=[0.5]),
    testfns.BoundedCutoff(inner=testfns.Monomial(alpha=(2,)), cap=4.0),
    testfns.IndicatorBall(center=[0.0], radius=1.5),
]
CROSS_ORACLE_NS = [16, 32, 64, 128, 256]


def _check_cross_oracle(ctx: _Ctx) -> CheckResult:
    disagreements = 0
    trials = 0
    for salt, spec in enumerate((FIX_A3, FIX_B)):
        validated = _fixture(spec)
        for fi, fn in enumerate(CROSS_ORACLE_FUNCTIONS):
            for n in CROSS_ORACLE_NS:
                geom = build_slice(validated, n)
                quad = slice_mean_quadrature(geom, fn)
                mc = slice_mean_mc(
                    geom,
                    fn,
                    McConfig(
                        n_samples=ctx.mc_samples,
                        seed=(ctx.seed + 1000 * salt + 10 * fi + n) % 2**64,
                    ),
                    threads=ctx.threads,
                )
                window = 4.0 * (quad.err_estimate + mc.err_estimate)
                if abs(quad.value - mc.value) > window:
                    disagreements += 1
                trials += 1
    return CheckResult("cross_oracle", disagreements <= 2, float(disagreements - 2), trials)


def _check_mc_vs_known_limit(ctx: _Ctx) -> CheckResult:
    rng = ctx.rng(15)
    worst = -math.inf
    trials = 0
    for spec in (FIX_A0, FIX_B):
        validated = _fixture(spec)
        for _ in range(10):
            t = rng.standard_normal(validated.k)
            fn = CosLinear(t=t)
            closed = known_limit(fn, validated)
            mc = gaussian_limit(
                validated,
                fn,
                McConfig(n_samples=1_000_000, seed=int(rng.integers(0, 2**63))),
            )
            worst = max(worst, abs(mc.value - closed) - 4.0 * mc.err_estimate)
            trials += 1
    return CheckResult("mc_vs_known_limit", worst <= 0, worst, trials)


ALL_CHECKS = {
    "normalization": _check_normalization,
    "constant_limit": _check_constant_limit,
    "determinant_limit": _check_determinant_limit,
    "preimage_norm_inequality": _check_preimage_inequality,
    "dominating_bound": _check_dominating_bound,
    "characteristic_function_identity": _check_char_fn_identity,
    "mc_determinism": _check_mc_determinism,
    "factor_invariance": _check_factor_invariance,
    "basis_invariance": _check_basis_invariance,
    "padding_invariance": _check_padding_invariance,
    "z0n_convergence": _check_z0n_convergence,
    "z0_orthogonality": _check_z0_orthogonality,
    "exact_moments": _check_exact_moments,
    "weight_shape": _check_weight_shape,
    "known_limit_identity": _check_known_limit_identity,
    "cross_oracle": _check_cross_oracle,
    "mc_vs_known_limit": _check_mc_vs_known_limit,
}


def run_verify(cfg: dict, threads: int = 1, seed=None) -> VerifyReport:
    """Run the configured property checks with fixed seeds.

    Failures become report entries, not exceptions; the CLI turns a failed
    report into exit code 1.
    """
    section = cfg.get("verify", {})
    names = section.get("checks")
    if names is None:
        names = list(ALL_CHECKS)
    unknown = [n for n in names if n not in ALL_CHECKS]
    if unknown:
        raise ConfigError(f"unknown verify check(s): {unknown}; known: {sorted(ALL_CHECKS)}")
    ctx = _Ctx(
        seed=config_seed(cfg, seed),
        tol_scale=float(section.get("tol_scale", 1.0)),
        threads=threads,
        mc_samples=int(section.get("mc_samples", 100_000)),
    )
    return VerifyReport(checks=tuple(ALL_CHECKS[name](ctx) for name in names))


# ---------------------------------------------------------------------------
# Counterexample
# ---------------------------------------------------------------------------


def run_counterexample(cfg: dict):
    """Evaluate the counterexample probe on the configured (z, R) grid.

    Returns (rows, summary_lines): rows are {z, R, value} dicts, R ascending
    within each z.
    """
    section = cfg.get("counterexample", {})
    z_list = [float(z) for z in section.get("z", [0.0, 0.3])]
    r_list = sorted(float(r) for r in section.get("R", [1.0, 10.0, 100.0, 1000.0]))
    nodes = int(section.get("nodes", 48))
    rows = []
    for z in z_list:
        for r in r_list:
            rows.append({"z": z, "R": r, "value": counterexample_probe(z, r, nodes)})
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


def write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def emit_outputs(rows, csv_path: str | None, svg_path: str | None = None):
    """Write the sweep CSV and the SVG error chart, each when its path is given.

    Returns the list of paths written. Raises ValueError on empty rows when a
    path is given; IO errors propagate to the caller (the CLI maps them to exit code 2).
    """
    if csv_path:
        write_text(csv_path, sweep_csv(rows))
    if svg_path:
        emit_svg(rows, svg_path)
    return [path for path in (csv_path, svg_path) if path]


def emit_svg(rows, path: str):
    """Self-contained log-log SVG chart: abs_error and quad_err versus N."""
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
    write_text(path, "\n".join(parts) + "\n")
