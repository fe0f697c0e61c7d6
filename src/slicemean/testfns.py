"""Closed registry of cylinder integrands with integrability metadata.

The registry is a fixed tagged set rather than a user-supplied expression
language: downstream code trusts the declared integrability class (the
convergence guarantee needs L^p, p > 1, against the limiting Gaussian as a
hypothesis), and a closed set keeps those declarations auditable. Functions
act on the first k coordinates only; evaluation is vectorized over leading
axes, x has shape (..., k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .affine_model import ValidatedProblem, _finite_array, _is_finite_number, _is_int
from .numlin import _matmul

LP_ALL = "L^p for all p"
LP_ONE = "L^1 only"


@dataclass(frozen=True)
class TestFunction:
    """A function of the first k coordinates; ``lp_class`` is the one
    declaration that gates every limit, through ``in_lp_above_one``."""

    kind = "abstract"
    lp_class = LP_ALL
    #: Whether the integrand is entire in x. A Gauss rule then converges
    #: geometrically, so the difference against the rule with half the nodes
    #: bounds its error, and quadrature starts on a coarser radial rule. A
    #: class attribute, not a field: no parameter can set it.
    analytic = False

    @property
    def in_lp_above_one(self) -> bool:
        """Whether the declared integrability meets the limit theorem's
        hypothesis: L^p for some p > 1 against the limiting Gaussian."""
        return self.lp_class != LP_ONE

    def fits(self, k: int) -> bool:
        """Whether the parameters suit a function on R^k: a direction or a
        center has k entries, a monomial at most k exponents."""
        return True

    def eval(self, x):
        raise NotImplementedError


@dataclass(frozen=True)
class _LinearWave(TestFunction):
    """wave(<t, x>) for a direction t of k entries; subclasses set the wave, a
    numpy ufunc (not a descriptor, so it does not bind as a method)."""

    t: np.ndarray
    analytic = True

    def __post_init__(self):
        object.__setattr__(self, "t", _finite_array(self.t, "t").reshape(-1))

    def fits(self, k: int) -> bool:
        return self.t.size == k

    def eval(self, x):
        # the wave overwrites the projections; asarray makes one point's a 0-d array
        y = np.asarray(_matmul(np.asarray(x, dtype=float), self.t))
        return self.wave(y, out=y)


@dataclass(frozen=True)
class CosLinear(_LinearWave):
    """cos(<t, x>)."""

    kind = "cos_linear"
    wave = np.cos


@dataclass(frozen=True)
class SinLinear(_LinearWave):
    """sin(<t, x>)."""

    kind = "sin_linear"
    wave = np.sin


@dataclass(frozen=True)
class Monomial(TestFunction):
    """Product of coordinate powers x_1^a_1 ... x_k^a_k."""

    alpha: tuple
    kind = "monomial"
    analytic = True

    def __post_init__(self):
        alpha = tuple(self.alpha)
        if not all(_is_int(a) and a >= 0 for a in alpha):
            raise ValueError(f"monomial exponents must be nonnegative integers, got {self.alpha!r}")
        object.__setattr__(self, "alpha", tuple(int(a) for a in alpha))

    def fits(self, k: int) -> bool:
        return len(self.alpha) <= k

    @property
    def degree(self) -> int:
        return sum(self.alpha)

    def eval(self, x):
        # the product of the active coordinates' powers, with the bits of
        # 1.0 * x_1**a_1 * x_2**a_2 ...: 1.0 * p and x**1 are exact
        x = np.asarray(x, dtype=float)
        out = None
        for i, a in enumerate(self.alpha):
            if a:
                power = x[..., i] if a == 1 else x[..., i] ** a
                if out is None:
                    # a new array, 0-d for a single point
                    out = np.array(power)
                else:
                    out *= power
        return np.ones(x.shape[:-1]) if out is None else out


@dataclass(frozen=True)
class IndicatorBall(TestFunction):
    """1 inside the closed ball of given center and radius, 0 outside."""

    center: np.ndarray
    radius: float
    kind = "indicator_ball"

    def __post_init__(self):
        object.__setattr__(self, "center", _finite_array(self.center, "center").reshape(-1))
        if not (_is_finite_number(self.radius) and self.radius > 0):
            raise ValueError(f"ball radius must be a positive finite number, got {self.radius!r}")

    def fits(self, k: int) -> bool:
        return self.center.size == k

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        dist_sq = np.sum((x - self.center) ** 2, axis=-1)
        return (dist_sq <= self.radius**2).astype(float)


@dataclass(frozen=True)
class BoundedCutoff(TestFunction):
    """Inner function clamped to [-cap, cap]."""

    inner: TestFunction
    cap: float
    kind = "bounded_cutoff"

    def __post_init__(self):
        if not (_is_finite_number(self.cap) and self.cap > 0):
            raise ValueError(f"cap must be a positive finite number, got {self.cap!r}")

    def fits(self, k: int) -> bool:
        return self.inner.fits(k)

    def eval(self, x):
        return np.clip(self.inner.eval(x), -self.cap, self.cap)


@dataclass(frozen=True)
class CounterexampleG(TestFunction):
    """g(x) = exp(x^2/2) / (1 + x^2) on the line (k = 1).

    Integrable against the centered unit Gaussian but against no shifted
    copy of it, hence declared L^1 only: outside the limit theorem's
    hypothesis. The declaration is exact when the limit has unit variance.
    Against a limit of variance s^2 < 1, g is in L^p for every p < 1/s^2
    (p < 1.5625 on the oblique fixture, s^2 = 0.64), so the refusal there
    is stricter than the theorem needs; for s^2 > 1, g is not integrable.
    Evaluated as exp(x^2/2 - log1p(x^2)) so the quotient never overflows
    before the division.
    """

    kind = "counterexample_g"
    lp_class = LP_ONE

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
    mu = validated.z0_cyl
    g = validated.g
    if isinstance(fn, _LinearWave):
        t = fn.t
        damp = math.exp(-0.5 * float(t @ g @ t))
        phase = float(t @ mu)
        return damp * (math.cos(phase) if isinstance(fn, CosLinear) else math.sin(phase))
    if isinstance(fn, Monomial):
        alpha = fn.alpha
        if fn.degree > 2:
            return None
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


_REGISTRY = {cls.kind: cls for cls in (CosLinear, SinLinear, Monomial, IndicatorBall,
                                         BoundedCutoff, CounterexampleG)}


def from_config(spec: dict) -> TestFunction:
    """Construct a registry function from {"kind": ..., "params": {...}}: the
    params are the keyword arguments of the kind's class, all required."""
    if not isinstance(spec, dict) or set(spec) - {"kind", "params"}:
        raise ValueError(f"a function is {{'kind': ..., 'params': {{...}}}}, got {spec!r}")
    kind = spec.get("kind")
    if kind not in _REGISTRY:
        raise ValueError(f"unknown function kind {kind!r}; known kinds: {sorted(_REGISTRY)}")
    params = spec.get("params", {})
    if kind == "bounded_cutoff" and "inner" in params:
        params = {**params, "inner": from_config(params["inner"])}
    return _REGISTRY[kind](**params)
