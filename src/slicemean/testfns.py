"""Closed registry of cylinder integrands with integrability metadata.

The registry is a fixed tagged set rather than a user-supplied expression
language: downstream code trusts the declared boundedness and integrability
class (the convergence guarantee needs L^p, p > 1, against the limiting
Gaussian as a hypothesis), and a closed set keeps those declarations
auditable. Functions act on the first k coordinates only; evaluation is
vectorized over leading axes, x has shape (..., k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .affine_model import ValidatedProblem

LP_ALL = "L^p for all p"
LP_ONE = "L^1 only"


@dataclass(frozen=True)
class TestFunction:
    kind = "abstract"
    bounded = False
    lp_class = LP_ALL
    has_closed_form_limit = False
    #: growth dominated by a sub-Gaussian envelope, so tensor Gauss-Hermite
    #: quadrature of the limit converges
    gauss_hermite_ok = True

    @property
    def sweep_admissible(self) -> bool:
        """Whether the declared integrability satisfies the L^p (p > 1)
        hypothesis of the convergence sweep."""
        return self.lp_class != LP_ONE

    def eval(self, x):
        raise NotImplementedError


def _last_axis_dot(x, t):
    x = np.asarray(x, dtype=float)
    return x @ t


@dataclass(frozen=True)
class CosLinear(TestFunction):
    """cos(<t, x>)."""

    t: np.ndarray = field(default_factory=lambda: np.ones(1))
    kind = "cos_linear"
    bounded = True
    has_closed_form_limit = True

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float).reshape(-1))

    def eval(self, x):
        return np.cos(_last_axis_dot(x, self.t))


@dataclass(frozen=True)
class SinLinear(TestFunction):
    """sin(<t, x>)."""

    t: np.ndarray = field(default_factory=lambda: np.ones(1))
    kind = "sin_linear"
    bounded = True
    has_closed_form_limit = True

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float).reshape(-1))

    def eval(self, x):
        return np.sin(_last_axis_dot(x, self.t))


@dataclass(frozen=True)
class Monomial(TestFunction):
    """Product of coordinate powers x_1^a_1 ... x_k^a_k."""

    alpha: tuple = (2,)
    kind = "monomial"

    def __post_init__(self):
        alpha = tuple(int(a) for a in self.alpha)
        if any(a < 0 for a in alpha):
            raise ValueError("monomial exponents must be nonnegative")
        object.__setattr__(self, "alpha", alpha)

    @property
    def degree(self) -> int:
        return sum(self.alpha)

    @property
    def bounded(self) -> bool:  # type: ignore[override]
        return self.degree == 0

    @property
    def has_closed_form_limit(self) -> bool:  # type: ignore[override]
        return self.degree <= 2

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        out = np.ones(x.shape[:-1])
        for i, a in enumerate(self.alpha):
            if a:
                out = out * x[..., i] ** a
        return out


@dataclass(frozen=True)
class IndicatorBall(TestFunction):
    """1 inside the closed ball of given center and radius, 0 outside."""

    center: np.ndarray = field(default_factory=lambda: np.zeros(1))
    radius: float = 1.0
    kind = "indicator_ball"
    bounded = True

    def __post_init__(self):
        object.__setattr__(
            self, "center", np.asarray(self.center, dtype=float).reshape(-1)
        )
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        dist_sq = np.sum((x - self.center) ** 2, axis=-1)
        return (dist_sq <= self.radius**2).astype(float)


@dataclass(frozen=True)
class BoundedCutoff(TestFunction):
    """Inner function clamped to [-cap, cap]."""

    inner: TestFunction = field(default_factory=lambda: Monomial((2,)))
    cap: float = 1.0
    kind = "bounded_cutoff"
    bounded = True

    def __post_init__(self):
        if self.cap <= 0:
            raise ValueError("cap must be positive")

    def eval(self, x):
        return np.clip(self.inner.eval(x), -self.cap, self.cap)


@dataclass(frozen=True)
class CounterexampleG(TestFunction):
    """g(x) = exp(x^2/2) / (1 + x^2) on the line (k = 1).

    Integrable against the centered unit Gaussian but against no shifted
    copy of it, hence declared L^1 only and inadmissible for convergence
    sweeps. Evaluated as exp(x^2/2 - log1p(x^2)) so the quotient never
    overflows before the division.
    """

    kind = "counterexample_g"
    lp_class = LP_ONE
    gauss_hermite_ok = False

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        x1 = x[..., 0]
        return np.exp(0.5 * x1 * x1 - np.log1p(x1 * x1))


def known_limit(fn: TestFunction, validated: ValidatedProblem):
    """Closed-form limiting mean where one exists, else None.

    The limit measure is the k-variate Gaussian with mean the first k
    coordinates of z0 and covariance the stabilized Gram matrix G; the
    cosine and sine limits come from its characteristic function, monomials
    of total degree <= 2 from its first two moments.
    """
    if not fn.has_closed_form_limit:
        return None
    mu = validated.z0_cyl
    g = validated.g
    if isinstance(fn, (CosLinear, SinLinear)):
        t = fn.t
        damp = math.exp(-0.5 * float(t @ g @ t))
        phase = float(t @ mu)
        return damp * (math.cos(phase) if isinstance(fn, CosLinear) else math.sin(phase))
    if isinstance(fn, Monomial):
        alpha = fn.alpha
        if fn.degree == 0:
            return 1.0
        active = [i for i, a in enumerate(alpha) if a > 0]
        if fn.degree == 1:
            (i,) = active
            return float(mu[i])
        if len(active) == 1:
            (i,) = active
            return float(mu[i] ** 2 + g[i, i])
        i, j = active
        return float(mu[i] * mu[j] + g[i, j])
    return None


_KINDS = {
    "cos_linear": lambda p: CosLinear(t=p["t"]),
    "sin_linear": lambda p: SinLinear(t=p["t"]),
    "monomial": lambda p: Monomial(alpha=tuple(p["alpha"])),
    "indicator_ball": lambda p: IndicatorBall(center=p["center"], radius=p["radius"]),
    "counterexample_g": lambda p: CounterexampleG(),
}


def from_config(spec: dict) -> TestFunction:
    """Construct a registry function from {"kind": ..., "params": {...}}."""
    kind = spec.get("kind")
    params = spec.get("params", {})
    if kind == "bounded_cutoff":
        return BoundedCutoff(inner=from_config(params["inner"]), cap=float(params["cap"]))
    if kind not in _KINDS:
        known = sorted(_KINDS) + ["bounded_cutoff"]
        raise ValueError(f"unknown function kind {kind!r}; known kinds: {known}")
    return _KINDS[kind](params)
