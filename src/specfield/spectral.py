"""Spectral densities of Gaussian fields with stationary increments.

A density is a nonnegative even function f on R^d.  The field it generates
through the harmonizable representation has increment variance
v(u) = int 2(1 - cos(u.xi)) f(xi) dxi, which is finite exactly when
int (1 ^ |xi|^2) f(xi) dxi converges; that finiteness is what
`check_admissible` probes on a dyadic grid.

Built-in families: power-law (fractional-Brownian type), perturbed
(base times a bounded even modulation), band-limited, sum, scalar multiple,
zero, and the clamped difference produced by `difference_density`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import FrequencyGrid

# Relative roundoff slack separating genuine domination violations and genuine
# sign changes from float noise.
ROUNDOFF_SLACK = 1e-12

# Annulus-contribution ratio below which geometric decay counts as established,
# and above which sustained non-decay counts as divergence.
DECAY_ESTABLISHED = 0.92
DECAY_FAILED = 0.985
_END_WINDOW = 3


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


@dataclass(frozen=True)
class ZeroDensity(SpectralDensity):
    dimension: int = 1
    family: str = "zero"

    def evaluate(self, xi):
        return np.zeros(np.asarray(xi).shape[0])


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
# admissibility


@dataclass(frozen=True)
class AdmissibilityResult:
    """Outcome of the finiteness probe for int (1 ^ |xi|^2) f dxi on a grid.

    status is one of "admissible", "inadmissible", "inconclusive"; value is the
    quadrature estimate when admissible, else None.  contributions holds the
    per-annulus partial sums (low j first).
    """

    status: str
    value: float | None
    contributions: tuple
    detail: str = ""


def _end_decay(contribs: np.ndarray) -> str:
    """Classify the decay of the last _END_WINDOW+1 contributions toward an extreme.

    `contribs` is ordered so that the extreme annulus comes last.  Returns
    "established", "failed", or "unclear".
    """
    tail = contribs[-(_END_WINDOW + 1):]
    if np.all(tail == 0.0):
        return "established"
    if len(tail) < _END_WINDOW + 1 or np.any(tail[:-1] == 0.0):
        return "unclear"
    ratios = tail[1:] / tail[:-1]
    if np.all(ratios <= DECAY_ESTABLISHED):
        return "established"
    if np.all(ratios >= DECAY_FAILED):
        return "failed"
    return "unclear"


class InadmissibleDensityError(ValueError):
    """Raised when an operation requires an admissible density and the check fails."""


@lru_cache(maxsize=256)
def require_admissible(density: SpectralDensity, grid: FrequencyGrid) -> float:
    """Gate for operations whose preconditions demand admissibility.

    Returns the quadrature value of int (1 ^ |xi|^2) f dxi on success; raises
    InadmissibleDensityError for both "inadmissible" and "inconclusive" (an
    unsettled check must not silently authorize sampling).  Cached per
    (density, grid) since callers re-check the same pair many times.
    """
    result = check_admissible(density, grid)
    if result.status != "admissible":
        raise InadmissibleDensityError(
            f"density {density.label} is {result.status} on {grid.grid_id}: {result.detail}")
    return result.value


def check_admissible(density: SpectralDensity, grid: FrequencyGrid) -> AdmissibilityResult:
    """Quadrature finiteness check with geometric-decay verdicts at both grid ends.

    "inconclusive" is a value, not an error: the grid extremes did not settle
    whether the contributions keep decaying.
    """
    if density.dimension != grid.dimension:
        raise ValueError(f"dimension mismatch: density d={density.dimension}, "
                         f"grid d={grid.dimension}")
    values = density.evaluate(grid.nodes)
    r2 = grid.radii() ** 2
    terms = grid.weights * np.minimum(1.0, r2) * values
    contribs = np.zeros(grid.n_annuli)
    np.add.at(contribs, grid.annulus, terms)
    total = float(np.sum(contribs))

    if np.all(contribs == 0.0):
        return AdmissibilityResult("admissible", 0.0, tuple(contribs), "identically zero")
    if not np.isfinite(total):
        return AdmissibilityResult("inadmissible", None, tuple(contribs),
                                   "non-finite quadrature value")

    high = _end_decay(contribs)
    low = _end_decay(contribs[::-1])
    if high == "failed" or low == "failed":
        end = "high" if high == "failed" else "low"
        return AdmissibilityResult("inadmissible", None, tuple(contribs),
                                   f"contributions do not decay at the {end}-frequency end")
    if high == "established" and low == "established":
        return AdmissibilityResult("admissible", total, tuple(contribs), "")
    return AdmissibilityResult("inconclusive", None, tuple(contribs),
                               "decay not established at the grid extremes")


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
