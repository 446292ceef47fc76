"""Spectral densities of Gaussian fields with stationary increments.

A density is a nonnegative even function f on R^d.  The field it generates
through the harmonizable representation has the variogram
V(h) = E(X(x + h) - X(x))^2 = int 2(1 - cos(h.xi)) f(xi) dxi, which is
finite exactly when int (1 ^ |xi|^2) f(xi) dxi converges; over a term list
(below) that is decided term by term, with no grid (`require_admissible`).
Every density here is
radial, so V depends on |h| only and fixes the law of the field on any
point set: K(x, x') = (V(x) + V(x') - V(x - x')) / 2.

Built-in families: power-law (fractional-Brownian type), perturbed
(base times a bounded even modulation), band-limited, sum, scalar multiple,
zero, and the clamped difference produced by `difference_density`.  Each
gives its `terms()`: a finite sum of SpectralTerms
weight * r^(-2H-d) * trig(omega r) on lo <= r < hi, r = |xi|.  Sums,
scalar multiples, modulations and the difference are linear in the terms,
and `variogram` sums them term by term in d = 1 and d = 2: closed forms
for power-law terms in d = 1 (Mellin transforms when modulated), the plain
power law in d = 2 and unmodulated bands (through J1 in d = 2); a graded
Gauss-Legendre rule in angle over the 1-d form for a modulated power law
in d = 2; Gauss-Legendre in r for a modulated band.  A subclass that gives
no term list is refused by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .grids import FrequencyGrid

# Relative roundoff slack separating genuine domination violations and genuine
# sign changes from float noise.
ROUNDOFF_SLACK = 1e-12


class SpectralDensity:
    """Base class; subclasses implement vectorized pointwise evaluation."""

    dimension: int
    family: str

    def evaluate(self, xi: np.ndarray) -> np.ndarray:
        """Evaluate on an (m, d) array of frequencies; returns (m,) values in [0, inf]."""
        raise NotImplementedError

    def __call__(self, xi) -> float:
        """Evaluate at a single frequency (scalar in d=1, length-d sequence otherwise)."""
        pt = np.atleast_1d(np.asarray(xi, dtype=float))
        if pt.shape != (self.dimension,):
            raise ValueError(f"expected a point in R^{self.dimension}, got shape {pt.shape}")
        return float(self.evaluate(pt[None, :])[0])

    @property
    def label(self) -> str:
        return repr(self)

    def _radii(self, xi: np.ndarray) -> np.ndarray:
        return np.sqrt(np.sum(np.asarray(xi, dtype=float) ** 2, axis=1))

    def terms(self) -> tuple:
        """The density as a tuple of SpectralTerms (see the module docstring)."""
        raise TypeError(f"{type(self).__name__} gives no term list, so neither its "
                        f"admissibility nor its variogram has a closed form")


@dataclass(frozen=True)
class ZeroDensity(SpectralDensity):
    dimension: int = 1
    family: str = "zero"

    def evaluate(self, xi):
        return np.zeros(np.asarray(xi).shape[0])

    def terms(self):
        return ()


@dataclass(frozen=True)
class PowerLawDensity(SpectralDensity):
    """f(xi) = scale * |xi|^(-2H - d): the fractional-Brownian family.

    Evaluates to +inf at xi = 0; everywhere else finite.
    """

    dimension: int
    hurst: float
    scale: float
    family: str = "power-law"

    def __post_init__(self):
        # keep plain floats so labels and config echoes round-trip cleanly
        object.__setattr__(self, "hurst", float(self.hurst))
        object.__setattr__(self, "scale", float(self.scale))
        if not 0.0 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie in (0, 1), got {self.hurst}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be a positive real, got {self.scale}")

    def evaluate(self, xi):
        r = self._radii(xi)
        with np.errstate(divide="ignore"):
            return self.scale * r ** (-2.0 * self.hurst - self.dimension)

    def terms(self):
        return (SpectralTerm(self.scale, self.hurst),)


@dataclass(frozen=True)
class SineModulation:
    """Bounded even modulation m(u) = (offset + amplitude * sin(frequency*u)) / scale.

    Nonnegativity requires offset >= |amplitude|; evenness holds because the
    modulation is applied to u = |xi|.
    """

    offset: float
    amplitude: float
    frequency: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.offset < abs(self.amplitude):
            raise ValueError("offset must be >= |amplitude| for a nonnegative modulation")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")

    def value(self, u: np.ndarray) -> np.ndarray:
        return (self.offset + self.amplitude * np.sin(self.frequency * u)) / self.scale

    @property
    def upper_bound(self) -> float:
        return (self.offset + abs(self.amplitude)) / self.scale


@dataclass(frozen=True)
class PerturbedDensity(SpectralDensity):
    """Base density times a bounded even modulation of |xi|."""

    base: SpectralDensity
    modulation: SineModulation
    family: str = "perturbed"

    @property
    def dimension(self) -> int:
        return self.base.dimension

    def evaluate(self, xi):
        return self.base.evaluate(xi) * self.modulation.value(self._radii(xi))

    def terms(self):
        m = self.modulation
        out = []
        for term in self.base.terms():
            out.append(replace(term, weight=term.weight * m.offset / m.scale))
            sine = term.weight * m.amplitude / m.scale
            half = 0.5 * sine
            if term.trig == "cos" and term.omega == 0.0:
                out.append(replace(term, weight=sine, trig="sin", omega=m.frequency))
            elif term.trig == "cos":  # sin(a) cos(b) = (sin(a + b) + sin(a - b)) / 2
                out += [_sine(term, half, m.frequency + term.omega),
                        _sine(term, half, m.frequency - term.omega)]
            else:                     # sin(a) sin(b) = (cos(a - b) - cos(a + b)) / 2
                out += [replace(term, weight=half, omega=abs(m.frequency - term.omega),
                                trig="cos"),
                        replace(term, weight=-half, omega=m.frequency + term.omega,
                                trig="cos")]
        return _merged(out)


@dataclass(frozen=True)
class BandLimitedDensity(SpectralDensity):
    """amplitude on the annulus inner <= |xi| < outer, zero elsewhere."""

    dimension: int
    inner: float
    outer: float
    amplitude: float = 1.0
    family: str = "band-limited"

    def __post_init__(self):
        if not 0.0 <= self.inner < self.outer:
            raise ValueError("require 0 <= inner < outer")
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")

    def evaluate(self, xi):
        r = self._radii(xi)
        return np.where((r >= self.inner) & (r < self.outer), self.amplitude, 0.0)

    def terms(self):
        return (SpectralTerm(self.amplitude, None, lo=self.inner, hi=self.outer),)


@dataclass(frozen=True)
class SumDensity(SpectralDensity):
    first: SpectralDensity
    second: SpectralDensity
    family: str = "sum"

    def __post_init__(self):
        if self.first.dimension != self.second.dimension:
            raise ValueError("summands must share a dimension")

    @property
    def dimension(self) -> int:
        return self.first.dimension

    def evaluate(self, xi):
        return self.first.evaluate(xi) + self.second.evaluate(xi)

    def terms(self):
        return _merged(self.first.terms() + self.second.terms())


@dataclass(frozen=True)
class ScaledDensity(SpectralDensity):
    base: SpectralDensity
    factor: float
    family: str = "scalar-multiple"

    def __post_init__(self):
        if not (math.isfinite(self.factor) and self.factor >= 0):
            raise ValueError(f"factor must be a nonnegative real, got {self.factor}")

    @property
    def dimension(self) -> int:
        return self.base.dimension

    def evaluate(self, xi):
        return self.factor * self.base.evaluate(xi)

    def terms(self):
        return _merged([replace(t, weight=self.factor * t.weight)
                        for t in self.base.terms()])


@dataclass(frozen=True)
class DifferenceDensity(SpectralDensity):
    """Clamped difference max(minuend - subtrahend/divisor, 0).

    Produced by `difference_density` after a domination check; constructing it
    directly skips the check that makes the clamp a pure roundoff guard.
    """

    minuend: SpectralDensity
    subtrahend: SpectralDensity
    divisor: float
    family: str = "difference"

    @property
    def dimension(self) -> int:
        return self.minuend.dimension

    def evaluate(self, xi):
        raw = self.minuend.evaluate(xi) - self.subtrahend.evaluate(xi) / self.divisor
        return np.maximum(raw, 0.0)

    def terms(self):
        """The unclamped difference: the certificate makes the clamp a
        roundoff guard, so the residual's law is K_minuend - K_subtrahend / C."""
        return _merged(self.minuend.terms()
                       + tuple(replace(t, weight=-t.weight / self.divisor)
                               for t in self.subtrahend.terms()))


@lru_cache(maxsize=None)
def _unit_variance_scale(hurst: float, dimension: int) -> float:
    """Scale making the power-law field have unit variance at the first basis vector.

    d=1: Var = scale * 4 * int_0^inf (1 - cos u) u^(-2H-1) du, and the integral
    equals Gamma(2-2H) * (pi/2) * sinc(H - 1/2) / (2H) (the sinc rewrite removes
    the removable singularity of -Gamma(-2H) cos(pi H) at H = 1/2).
    d=2: Var = scale * 4*pi * int_0^inf (1 - J0(r)) r^(-2H-1) dr, with the
    integral equal to 2^(-2H-1) Gamma(2-H) / (H (1-H) Gamma(1+H)).  Gamma is
    math.gamma.
    """
    H = hurst
    if dimension == 1:
        integral = 4.0 * math.gamma(2 - 2 * H) * (np.pi / 2) * np.sinc(H - 0.5) / (2 * H)
    elif dimension == 2:
        integral = (4.0 * np.pi * 2.0 ** (-2 * H - 1) * math.gamma(2 - H)
                    / (H * (1 - H) * math.gamma(1 + H)))
    else:
        raise ValueError(f"dimension must be 1 or 2, got {dimension}")
    return 1.0 / integral


def fractional_brownian_density(hurst: float, dimension: int = 1) -> PowerLawDensity:
    """Power-law density normalized so that Var X(e1) = 1."""
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    return PowerLawDensity(dimension, hurst, _unit_variance_scale(hurst, dimension))


def brownian_density(dimension: int = 1) -> PowerLawDensity:
    """The H = 1/2 unit-variance power law; in d=1 this is f(xi) = 1/(2 pi xi^2)."""
    return fractional_brownian_density(0.5, dimension)


# --------------------------------------------------------------------------
# term lists and the variogram


@dataclass(frozen=True)
class SpectralTerm:
    """weight * r^(-2 hurst - d) * trig(omega r) on lo <= r < hi, r = |xi|.

    hurst None is r^0 (a band term); trig is "cos" or "sin", and cos at
    omega = 0 is the unmodulated term.  Power-law terms span (0, inf).
    """

    weight: float
    hurst: float | None
    trig: str = "cos"
    omega: float = 0.0
    lo: float = 0.0
    hi: float = math.inf


def _sine(term: SpectralTerm, weight: float, omega: float) -> SpectralTerm:
    """`term` with weight * sin(omega r) as its trig factor, omega of either sign."""
    return replace(term, weight=math.copysign(weight, omega), trig="sin", omega=abs(omega))


def _merged(terms) -> tuple:
    """The terms with equal shapes summed, in first-seen order, zeros and
    zero-frequency sines dropped: so f - f / 1 has no terms."""
    weights = {}
    for term in terms:
        key = replace(term, weight=0.0)
        weights[key] = weights.get(key, 0.0) + term.weight
    return tuple(replace(key, weight=w) for key, w in weights.items()
                 if w != 0.0 and not (key.trig == "sin" and key.omega == 0.0))


# the second difference 1 - cos(h r) of trig(omega r) is the sum over k of
# C_K trig(a_k r), a_k = omega, omega + h, omega - h
_C_K = (1.0, -0.5, -0.5)


def _x_minus_sin(x: np.ndarray) -> np.ndarray:
    """x - sin x for x >= 0, by its Taylor series below 1/4, where the
    difference cancels."""
    out = x - np.sin(x)
    small = x < 0.25
    z = x[small]
    y = z * z
    out[small] = z * y * (1 / 6 - y * (1 / 120 - y * (1 / 5040 - y * (
        1 / 362880 - y * (1 / 39916800 - y / 6227020800)))))
    return out


def _power_term(term: SpectralTerm, h: np.ndarray, dimension: int) -> np.ndarray:
    """4 w int_0^inf (1 - cos h r) r^(-1-2H) trig(omega r) dr in d = 1, and
    the unmodulated power law in d = 2, at lags h > 0.

    The modulated forms are Mellin transforms of the sum over a_k, with
    s = -2H (Gradshteyn & Ryzhik 3.761), written with no pole at H = 1/2:
    - cos: Gamma(s) cos(pi s/2) = pi / (2 Gamma(1 - s) sin(pi s/2)) times
      sum c_k |a_k|^(2H);
    - sin: Gamma(s) sin(pi s/2) sum c_k sign(a_k) |a_k|^(2H) is 0 * inf at
      H = 1/2; as sum c_k a_k = 0, it equals
      -Gamma(2 - 2H) sin(pi H) / (2H) sum c_k a_k ln|a_k| expm1(x_k) / x_k
      with x_k = (2H - 1) ln|a_k|.
    """
    H, w = term.hurst, term.weight
    if term.omega == 0.0:
        return (w / _unit_variance_scale(H, dimension)) * h ** (2.0 * H)
    total = np.zeros_like(h)
    for c, a in zip(_C_K, (term.omega, term.omega + h, term.omega - h)):
        a = np.broadcast_to(a, h.shape)
        if term.trig == "cos":
            total += c * np.abs(a) ** (2.0 * H)
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            log_a = np.log(np.abs(a))
            x = (2.0 * H - 1.0) * log_a
            ratio = np.where(x == 0.0, 1.0, np.expm1(x) / x)
            total += np.where(a == 0.0, 0.0, c * a * log_a * ratio)
    if term.trig == "cos":
        return -2.0 * np.pi * w / (math.gamma(1.0 + 2.0 * H) * math.sin(np.pi * H)) * total
    return (-4.0 * w * math.gamma(2.0 - 2.0 * H) * math.sin(np.pi * H) / (2.0 * H)) * total


# Gauss-Legendre nodes per panel in angle (2-d modulated power laws) and in
# r (modulated bands), the most panels in r, and the rule points (lags
# times nodes) taken at once
ANGLE_NODES = 64
BAND_NODES = 16
BAND_PANELS = 1 << 16
RULE_POINTS = 1 << 14


@lru_cache(maxsize=None)
def _gauss_legendre(count: int, grading: int = 1) -> tuple:
    """(nodes, weights) of the count-point Gauss-Legendre rule on [0, 1], by
    Newton on the recurrence (numpy.polynomial and LAPACK's eigensolver keep
    1-2 MiB resident), through t^p / (t^p + (1 - t)^p) for a grading p > 1,
    which makes an algebraic singularity at either end smooth."""
    x = np.cos(np.pi * (np.arange(count) + 0.75) / (count + 0.5))
    for _ in range(6):
        p, q = x, np.ones_like(x)  # P_1 and P_0, up to P_count and P_count-1
        for j in range(2, count + 1):
            p, q = ((2 * j - 1) * x * p - (j - 1) * q) / j, p
        slope = count * (x * p - q) / (x * x - 1.0)
        x = x - p / slope
    t, w = 0.5 * (x + 1.0), 1.0 / ((1.0 - x * x) * slope ** 2)
    if grading == 1:
        return t, w
    up, down = t ** grading, (1.0 - t) ** grading
    slope = grading * (up * (1.0 - t) ** (grading - 1) + t ** (grading - 1) * down)
    return up / (up + down), w * slope / (up + down) ** 2


def _bessel(x: np.ndarray, order: int) -> np.ndarray:
    """1 - J0(x) (order 0) or J1(x) (order 1) at x >= 0.  Below 40 by the
    48-point periodic rule, geometrically convergent (Trefethen & Weideman
    2014), on 1 - J0(x) = (1/pi) int_0^pi 2 sin^2(x sin t / 2) dt (no
    cancellation at small x) and J1(x) = (1/pi) int_0^pi sin t sin(x sin t) dt;
    from 40 by Hankel's J(x) = sqrt(2 / (pi x)) (P cos chi - Q sin chi) to
    x^-13, the k-th coefficient the product over j <= k of
    (4 order^2 - (2j - 1)^2) / 8j, chi = x - (2 order + 1) pi / 4 as in Cephes."""
    out = np.empty_like(x)
    near = x < 40.0
    z = x[near]
    sines = np.sin((np.arange(24) + 0.5) * (np.pi / 48))  # the nodes below pi / 2
    if order == 0:
        out[near] = sum(np.sin(0.5 * s * z) ** 2 for s in sines) / 12.0
    else:
        out[near] = sum(s * np.sin(s * z) for s in sines) / 24.0
    z = x[~near]
    a = np.cumprod([1.0] + [(4 * order * order - (2 * j - 1) ** 2) / (8.0 * j)
                            for j in range(1, 14)])
    inverse = 1.0 / (z * z)
    p = q = np.zeros_like(z)
    for k in range(12, -1, -2):   # Horner in 1 / x^2, with the signs (-1)^(k/2)
        p = p * -inverse + a[k]
        q = q * -inverse + a[k + 1]
    chi = z - (0.75 * np.pi if order else 0.25 * np.pi)
    far = np.sqrt(2.0 / (np.pi * z)) * (p * np.cos(chi) - q / z * np.sin(chi))
    out[~near] = 1.0 - far if order == 0 else far
    return out


def _in_slices(rule, h: np.ndarray, nodes: int) -> np.ndarray:
    """rule(h) over slices of the lags h of at most RULE_POINTS / nodes lags."""
    step = max(1, RULE_POINTS // nodes)
    return np.concatenate([rule(h[top:top + step]) for top in range(0, len(h), step)]
                          or [np.zeros(0)])


def _plane_power_term(term: SpectralTerm, h: np.ndarray) -> np.ndarray:
    """A modulated power-law term in d = 2 at lags h > 0:
    V2(h) = 2 int_0^(pi/2) V1(h cos t) dt over the 1-d closed form V1 of the
    same term (r r^(-2H-2) in polar measure is r^(-2H-1)), by the graded
    ANGLE_NODES rule on two panels split at V1's kink h cos t = omega."""
    t, w = _gauss_legendre(ANGLE_NODES, 4)

    def rule(at):
        kink = np.arccos(np.minimum(1.0, term.omega / at))[:, None]
        total = np.zeros_like(at)
        for start, stop in ((0.0, kink), (kink, 0.5 * np.pi)):
            width = stop - start
            angles = start + width * t
            values = _power_term(term, (at[:, None] * np.cos(angles)).ravel(), 1)
            total += 2.0 * (width * (values.reshape(angles.shape) * w)).sum(axis=1)
        return total
    return _in_slices(rule, h, 2 * ANGLE_NODES)


def _band_term(term: SpectralTerm, h: np.ndarray, dimension: int) -> np.ndarray:
    """A band term at lags h > 0: 4 w int_lo^hi (1 - cos h r) trig(omega r) dr
    in d = 1, 4 pi w int_lo^hi (1 - J0(h r)) trig(omega r) r dr in d = 2.
    Unmodulated: 4 w ((h hi - sin h hi) - (h lo - sin h lo)) / h with no
    cancellation, and 4 pi w ((hi^2 - lo^2) / 2 - (hi J1(h hi) - lo J1(h lo)) / h).
    Modulated: BAND_NODES Gauss-Legendre nodes on each of equal panels at
    most one period of the fastest oscillation, omega + h, long, with
    1 - cos h r written 2 sin^2(h r / 2)."""
    lo, hi, w = term.lo, term.hi, term.weight
    if term.omega == 0.0 and term.trig == "cos":
        if dimension == 1:
            return 4.0 * w * (_x_minus_sin(h * hi) - _x_minus_sin(h * lo)) / h
        return 4.0 * np.pi * w * (0.5 * (hi - lo) * (hi + lo)
                                  - (hi * _bessel(h * hi, 1) - lo * _bessel(h * lo, 1)) / h)
    panels = 1 + int((term.omega + np.max(h, initial=0.0)) * (hi - lo) / (2.0 * np.pi))
    if panels > BAND_PANELS:
        raise ValueError(f"a modulated band on [{lo:g}, {hi:g}) needs {panels} panels of "
                         f"its rule in r at lags up to {np.max(h):g}; at most {BAND_PANELS}")
    t, weights = _gauss_legendre(BAND_NODES)
    width = (hi - lo) / panels
    r = (lo + width * np.add.outer(np.arange(panels), t)).ravel()
    trig = np.cos if term.trig == "cos" else np.sin
    weights = np.tile(width * weights, panels) * trig(term.omega * r)
    weights *= 8.0 * w if dimension == 1 else 4.0 * np.pi * w * r

    def rule(at):
        x = np.multiply.outer(at, r)
        kernel = np.sin(0.5 * x) ** 2 if dimension == 1 else _bessel(x, 0)
        return (kernel * weights).sum(axis=1)
    return _in_slices(rule, h, len(r))


def _distinct(values: np.ndarray) -> tuple:
    """(sorted distinct values, the index of each value among them), as
    np.unique(values, return_inverse=True) without its import of numpy.ma."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.diff(ordered, prepend=np.nan) != 0.0  # x - y is 0 only if x == y
    index = np.empty(len(values), dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    return ordered[first], index


def variogram(density: SpectralDensity, lags) -> np.ndarray:
    """V(h) = int 2 (1 - cos h.xi) f(xi) dxi at each lag: (m,) scalars, whose
    sign is ignored, or (m, d) vectors.  The sum over the density's terms
    (see the module docstring); V(0) is +0.0.  Closed forms go lag by lag;
    a term that needs a rule (a modulated power law in d = 2, a modulated
    band, a 2-d band) is evaluated once per distinct lag radius."""
    lags = np.asarray(lags, dtype=float)
    h = np.sqrt(np.sum(lags ** 2, axis=-1)) if lags.ndim == 2 else np.abs(lags)
    values = np.zeros(h.shape)
    moved = h > 0.0
    at = h[moved]
    distinct = None
    for term in density.terms():
        if term.hurst is not None and (term.omega == 0.0 or density.dimension == 1):
            values[moved] += _power_term(term, at, density.dimension)
        elif term.hurst is None and term.omega == 0.0 and density.dimension == 1:
            values[moved] += _band_term(term, at, 1)
        else:
            radii, index = distinct = distinct or _distinct(at)
            rule = (_plane_power_term(term, radii) if term.hurst is not None
                    else _band_term(term, radii, density.dimension))
            values[moved] += rule[index]
    return values


# --------------------------------------------------------------------------
# admissibility


@dataclass(frozen=True)
class AdmissibilityResult:
    """The admissibility verdict of a density with its report on a grid.

    status is "admissible" or "inadmissible", by the term rule of
    `require_admissible`, and detail names the offending term.  value is
    the grid's sum for int (1 ^ |xi|^2) f dxi when admissible, else None;
    contributions holds the per-annulus partial sums (low j first).
    """

    status: str
    value: float | None
    contributions: tuple
    detail: str = ""


class InadmissibleDensityError(ValueError):
    """Raised when an operation requires an admissible density and the check fails."""


def _divergence(density: SpectralDensity, grid: FrequencyGrid) -> str:
    """Why int (1 ^ |xi|^2) f dxi diverges, naming the first term whose own
    integral does, or "" when none does.  A power-law term r^(-2H-d) on
    (0, inf) has a finite integral exactly when 0 < H < 1 (H < 1 at 0,
    H > 0 at infinity), a band term r^0 exactly when its upper edge is
    finite; every weight must be finite.  Also refuses (ValueError) a grid
    of another dimension, and (TypeError) a density without a term list."""
    if density.dimension != grid.dimension:
        raise ValueError(f"dimension mismatch: density d={density.dimension}, "
                         f"grid d={grid.dimension}")
    for term in density.terms():
        if not math.isfinite(term.weight):
            return f"the weight of {term} is not finite"
        if term.hurst is None and term.hi == math.inf:
            return f"the band {term} has no upper edge"
        if term.hurst is not None and not 0.0 < term.hurst < 1.0:
            return f"the power law {term} has hurst outside (0, 1)"
    return ""


def require_admissible(density: SpectralDensity, grid: FrequencyGrid) -> None:
    """Gate for operations whose preconditions demand admissibility: raises
    InadmissibleDensityError, naming the term, unless every term of the
    density has a finite integral (see _divergence).  The grid's nodes are
    not read; only its dimension is checked against the density's."""
    why = _divergence(density, grid)
    if why:
        raise InadmissibleDensityError(f"density {density.label} is inadmissible: {why}")


def check_admissible(density: SpectralDensity, grid: FrequencyGrid) -> AdmissibilityResult:
    """The verdict of `require_admissible` as a value, with the grid's
    per-annulus sums and their total as its report.

    A density value, term or sum that is not finite on the grid is a
    float64 range error of the grid, not a verdict: it is refused
    (ValueError), a node with the annulus it lies in.
    """
    why = _divergence(density, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        values = density.evaluate(grid.nodes)
        terms = grid.weights * np.minimum(1.0, grid.radii()) ** 2 * values
    bad = ~(np.isfinite(values) & np.isfinite(terms))
    if np.any(bad):
        j = grid.j_lo + int(grid.annulus[np.flatnonzero(bad)[0]])
        raise ValueError(f"density {density.label} is not finite in float64 at a node of "
                         f"the annulus [2^{j}, 2^{j + 1}) of {grid.grid_id}")
    contribs = np.zeros(grid.n_annuli)
    with np.errstate(over="ignore"):
        np.add.at(contribs, grid.annulus, terms)
        total = float(np.sum(contribs))
    if not np.isfinite(total):
        raise ValueError(f"the grid sum of density {density.label} is not finite in "
                         f"float64 on {grid.grid_id}")
    if why:
        return AdmissibilityResult("inadmissible", None, tuple(contribs), why)
    return AdmissibilityResult("admissible", total, tuple(contribs))


# --------------------------------------------------------------------------
# domination


@dataclass(frozen=True)
class DominationViolation:
    node: tuple
    dominated_value: float
    bound_value: float


@dataclass(frozen=True)
class DominationCertificate:
    """Record of a finite-grid check that f_X <= C * f_Y at every node.

    Certification is on the checked grid only; the grid identity is part of
    the certificate.
    """

    dominated: SpectralDensity       # f_X
    dominating: SpectralDensity      # f_Y
    constant: float                  # C
    grid: FrequencyGrid
    max_ratio: float
    verdict: str                     # "holds" | "violated"
    violation: DominationViolation | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def _density_ratios(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Pointwise f_X/f_Y with the conventions 0/0 = 0 and x/0 = inf for x > 0."""
    out = np.empty_like(fx)
    pos = fy > 0
    with np.errstate(invalid="ignore"):
        out[pos] = fx[pos] / fy[pos]
    out[~pos] = np.where(fx[~pos] > 0, np.inf, 0.0)
    return out


def check_domination(dominated: SpectralDensity, dominating: SpectralDensity,
                     constant: float, grid: FrequencyGrid) -> DominationCertificate:
    """Check f_X(xi) <= C f_Y(xi) + slack at every grid node.

    slack is ROUNDOFF_SLACK times the local magnitude, separating genuine
    violations from float noise.
    """
    if dominated.dimension != dominating.dimension:
        raise ValueError("dimension mismatch between densities")
    if dominated.dimension != grid.dimension:
        raise ValueError("dimension mismatch between densities and grid")
    if not 0.0 < constant < np.inf:
        raise ValueError(f"constant must be positive and finite, got {constant}")
    fx = dominated.evaluate(grid.nodes)
    fy = dominating.evaluate(grid.nodes)
    bound = constant * fy
    slack = ROUNDOFF_SLACK * np.maximum(np.abs(fx), np.abs(bound))
    ok = fx <= bound + slack
    max_ratio = float(np.max(_density_ratios(fx, fy)))
    if np.all(ok):
        return DominationCertificate(dominated, dominating, constant, grid,
                                     max_ratio, "holds")
    first = int(np.flatnonzero(~ok)[0])
    violation = DominationViolation(tuple(grid.nodes[first]),
                                    float(fx[first]), float(bound[first]))
    return DominationCertificate(dominated, dominating, constant, grid,
                                 max_ratio, "violated", violation)


def estimate_min_C(dominated: SpectralDensity, dominating: SpectralDensity,
                   grid: FrequencyGrid) -> float:
    """Smallest constant C with f_X <= C f_Y over the grid nodes; +inf when
    f_Y vanishes where f_X does not."""
    if dominated.dimension != dominating.dimension:
        raise ValueError("dimension mismatch between densities")
    if dominated.dimension != grid.dimension:
        raise ValueError("dimension mismatch between densities and grid")
    fx = dominated.evaluate(grid.nodes)
    fy = dominating.evaluate(grid.nodes)
    return float(np.max(_density_ratios(fx, fy)))


def difference_density(dominating: SpectralDensity, dominated: SpectralDensity,
                       constant: float,
                       certificate: DominationCertificate) -> SpectralDensity:
    """The residual density g = max(f_Y - f_X/C, 0).

    Requires a holds-verdict certificate for (f_X, f_Y, C): without one the
    difference could be genuinely signed and sampling from it meaningless.
    The clamp then only acts within roundoff of zero.
    """
    if certificate is None:
        raise ValueError("difference_density requires a domination certificate")
    if not certificate.holds:
        raise ValueError("domination certificate does not hold")
    if (certificate.dominated != dominated or certificate.dominating != dominating
            or certificate.constant != constant):
        raise ValueError("certificate does not match the supplied densities and constant")
    return DifferenceDensity(dominating, dominated, constant)
