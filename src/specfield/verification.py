"""Monte Carlo verification of ball-probability inequalities.

Every operation here estimates P(||field|| <= r) quantities by replicated
synthesis and reports exact binomial confidence intervals with a three-way
verdict: "consistent" (the inequality direction is visibly respected),
"violated" (the wrong direction at the configured confidence, after
Bonferroni adjustment over radii), or "underpowered" (point estimates lean
the wrong way but the intervals overlap).  Violations of the inequalities
indicate bugs, not discoveries; underpowered is never coerced to either side.

Replicas are addressed by counter-based streams and produced in order, in
blocks whose bounds depend only on the replica count and the grids, so
reports are reproducible bit-for-bit from (config, master seed).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .covariance import covariance_matrix
from .grids import FrequencyGrid, SpatialGrid
from .spectral import DominationCertificate, SpectralDensity
from .synthesis import CouplingSynthesizer, FieldPair, SpectralSynthesizer

# Pilot draws (quantile estimation) use replicate ids offset past every
# verification replica (MCConfig refuses more replicas than this), so the
# two stream ranges never collide.
PILOT_REPLICATE_BASE = 1 << 31

# Dyadic scales of the quadratic-variation regression; the two finest grid
# scales (lags 1 and 2) are excluded as spectral-truncation casualties.
HURST_SCALES = (2, 3, 4, 5)
MIN_HURST_RESOLUTION = 256

VERDICT_ORDER = ("consistent", "underpowered", "violated")


def check_radii(radii) -> tuple:
    """Ball radii as floats: finite, positive and sorted ascending."""
    radii = tuple(float(r) for r in radii)
    if not all(0.0 < r < np.inf for r in radii) or list(radii) != sorted(radii):
        raise ValueError(f"radii must be finite, positive and sorted ascending, "
                         f"got {radii}")
    return radii


@dataclass(frozen=True)
class MCConfig:
    """Replica budget, seed, grids, radii, and confidence for one campaign."""

    n_replicas: int
    master_seed: int
    frequency_grid: FrequencyGrid
    spatial_grid: SpatialGrid
    radii: tuple = ()
    confidence: float = 0.99

    def __post_init__(self):
        if self.n_replicas < 100:
            raise ValueError("need at least 100 replicas for any verdict to mean much")
        if self.n_replicas > PILOT_REPLICATE_BASE:
            raise ValueError(f"{self.n_replicas} replicas would reach the pilot streams, "
                             f"which start at {PILOT_REPLICATE_BASE}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must lie in (0, 1), got {self.confidence}")
        object.__setattr__(self, "radii", check_radii(self.radii))


def _collect_blocks(work, n_replicas: int, sampler) -> list:
    """work(ids) for consecutive blocks of replica ids, in order, of the
    size the sampler's prepare(n) returns (the rule is in `synthesis`)."""
    size = sampler.prepare(n_replicas)
    return [work(range(start, min(start + size, n_replicas)))
            for start in range(0, n_replicas, size)]


# --------------------------------------------------------------------------
# exact binomial machinery and verdicts


def _stirling_error(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n), from lgamma up to 15 and from the
    asymptotic series beyond (Loader 2000)."""
    if n <= 15:
        return (math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n
                - 0.5 * math.log(2.0 * math.pi))
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / n


def _deviance(k: float, mean: float) -> float:
    """k log(k / mean) + mean - k, by a series where the two nearly cancel."""
    if abs(k - mean) >= 0.1 * (k + mean):
        return k * math.log(k / mean) + mean - k
    v = (k - mean) / (k + mean)
    total = (k - mean) * v
    term = 2.0 * k * v
    v *= v
    j = 3
    while True:
        term *= v
        updated = total + term / j
        if updated == total:
            return total
        total = updated
        j += 2


def _binomial_term(k: int, n: int, p: float) -> float:
    """C(n, k) p^k (1 - p)^(n-k) to full relative precision (Loader 2000).

    The saddle-point form is insensitive to the rounding of 1 - p, which
    would cost up to n ulps in p^k (1 - p)^(n-k) taken directly.
    """
    q = 1.0 - p
    if k == 0:
        return math.exp(n * math.log1p(-p)) if p < 0.5 else q ** n
    if k == n:
        return p ** n
    exponent = (_stirling_error(n) - _stirling_error(k) - _stirling_error(n - k)
                - _deviance(k, n * p) - _deviance(n - k, n * q))
    return math.exp(exponent) * math.sqrt(n / (2.0 * math.pi * k * (n - k)))


def _beta_fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) / (x^a y^b / B(a, b)) for lam = a - (a + b) x >= 0, y = 1 - x.

    The continued fraction of Didonato & Morris (1992, BFRAC of TOMS 708),
    which takes the cancelling a - (a + b) x and 1 - x as the exact lam and y.
    """
    c = lam + 1.0
    c0 = b / a
    c1 = 1.0 / a + 1.0
    p = 1.0
    s = a + 1.0
    n = 0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r, r_prev = c1 / c, math.inf
    while abs(r - r_prev) > 1e-15 * r:
        n += 1
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (t + 1.0) / (c1 + t + t)
        beta = n + w / s + e * (c + n * (y + 1.0))
        p = t + 1.0
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r_prev, r = r, anp1 / bnp1
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    return r


def _beta_quantile(a: int, b: int, level: float) -> float:
    """x with I_x(a, b) = level, for integers a, b >= 1 and 0 < level < 1.

    I_x(a, b) is x y f(x) times the continued fraction of _beta_fraction,
    taken as 1 - I_y(b, a) above the mean, where y = 1 - x and the beta
    density f(x) = (a + b - 1) C(a + b - 2, a - 1) x^(a-1) y^(b-1) is a
    binomial term.  Newton steps on I_x - level, with bisection whenever a
    step leaves the bracket, start from the normal approximation.  Against
    a 40-digit reference the quantile is right to 1.3e-15 relative on the
    Clopper-Pearson grid of the tests (n = a + b - 1 up to 100,000, levels
    0.975 to 0.9995).
    """
    lo, hi = 0.0, 1.0
    mean = a / (a + b)
    x = mean + NormalDist().inv_cdf(level) * math.sqrt(mean * (1.0 - mean) / (a + b + 1))
    if not lo < x < hi:
        x = mean
    while True:
        y = 1.0 - x
        density = (a + b - 1) * _binomial_term(a - 1, a + b - 2, x)
        lam = (a + b) * y - b if a > b else a - (a + b) * x
        if lam >= 0.0:
            excess = x * y * density * _beta_fraction(a, b, x, y, lam) - level
        else:
            excess = (1.0 - level) - x * y * density * _beta_fraction(b, a, y, x, -lam)
        if excess < 0.0:
            lo = x
        else:
            hi = x
        step = excess / density if density > 0.0 else math.inf
        if abs(step) <= 1e-13 * x:
            return x - step
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if x in (lo, hi):
                return x


def _check_binomial(successes: int, n: int, level: float) -> tuple:
    """(successes, n, level) as int, int, float, or ValueError naming the
    value that no binomial experiment can have."""
    successes, n, level = operator.index(successes), operator.index(n), float(level)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 0 <= successes <= n:
        raise ValueError(f"successes must lie in [0, {n}], got {successes}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    return successes, n, level


def clopper_pearson_lower(successes: int, n: int, level: float) -> float:
    """One-sided exact lower confidence bound at the given level.

    The 1 - level quantile of Beta(successes, n - successes + 1), from
    _beta_quantile (continued fraction, Loader binomial term, bracketed
    Newton); 0 when successes = 0.
    """
    successes, n, level = _check_binomial(successes, n, level)
    if successes == 0:
        return 0.0
    return _beta_quantile(successes, n - successes + 1, 1.0 - level)


def clopper_pearson_upper(successes: int, n: int, level: float) -> float:
    """One-sided exact upper confidence bound at the given level.

    The level quantile of Beta(successes + 1, n - successes), from
    _beta_quantile (continued fraction, Loader binomial term, bracketed
    Newton); 1 when successes = n.
    """
    successes, n, level = _check_binomial(successes, n, level)
    if successes == n:
        return 1.0
    return _beta_quantile(successes + 1, n - successes, level)


@dataclass(frozen=True)
class RadiusComparison:
    """One radius of an inequality check: counts, bounds, margin, verdict."""

    radius: float
    n_replicas: int
    successes_lhs: int
    successes_rhs: int
    p_lhs: float
    p_rhs: float
    lower_lhs: float
    upper_lhs: float
    lower_rhs: float
    upper_rhs: float
    margin: float
    verdict: str


def compare_counts(successes_lhs: int, successes_rhs: int, n_replicas: int,
                   confidence: float, n_radii: int = 1,
                   radius: float = float("nan")) -> RadiusComparison:
    """Verdict for one radius of an 'lhs <= rhs' inequality from success counts.

    The per-radius error budget is (1 - confidence)/n_radii (Bonferroni),
    split between the two one-sided bounds.  "violated" means the exact
    intervals separate the wrong way; "consistent" means the point estimates
    respect the direction within one standard error per side plus 1/n;
    anything between is "underpowered".
    """
    n = n_replicas
    if not isinstance(n_radii, numbers.Integral) or n_radii < 1:
        raise ValueError(f"n_radii must be an integer >= 1, got {n_radii!r}")
    for successes in (successes_lhs, successes_rhs):
        _check_binomial(successes, n, confidence)
    alpha = (1.0 - confidence) / n_radii
    side_level = 1.0 - alpha / 2.0
    p_lhs = successes_lhs / n
    p_rhs = successes_rhs / n
    lower_lhs = clopper_pearson_lower(successes_lhs, n, side_level)
    upper_lhs = clopper_pearson_upper(successes_lhs, n, side_level)
    lower_rhs = clopper_pearson_lower(successes_rhs, n, side_level)
    upper_rhs = clopper_pearson_upper(successes_rhs, n, side_level)
    if lower_lhs > upper_rhs:
        verdict = "violated"
    else:
        se_lhs = np.sqrt(p_lhs * (1.0 - p_lhs) / n)
        se_rhs = np.sqrt(p_rhs * (1.0 - p_rhs) / n)
        slack = se_lhs + se_rhs + 1.0 / n
        verdict = "consistent" if p_lhs <= p_rhs + slack else "underpowered"
    return RadiusComparison(radius, n, successes_lhs, successes_rhs, p_lhs, p_rhs,
                            lower_lhs, upper_lhs, lower_rhs, upper_rhs,
                            upper_lhs - lower_rhs, verdict)


@dataclass(frozen=True)
class InequalityReport:
    """All radii of one inequality check plus provenance."""

    name: str
    rows: tuple
    n_replicas: int
    master_seed: int
    confidence: float
    lhs_label: str
    rhs_label: str
    samplers: tuple = ()   # (field, SpectralSynthesizer.describe()) per drawn field

    @property
    def worst_verdict(self) -> str:
        worst = 0
        for row in self.rows:
            worst = max(worst, VERDICT_ORDER.index(row.verdict))
        return VERDICT_ORDER[worst]


def _report_from_norms(name: str, lhs_norms: np.ndarray, rhs_norms: np.ndarray,
                       cfg: MCConfig, lhs_label: str, rhs_label: str,
                       samplers: tuple) -> InequalityReport:
    if not cfg.radii:
        raise ValueError(f"{name} needs at least one radius in the config")
    rows = []
    for radius in cfg.radii:
        successes_lhs = int(np.count_nonzero(lhs_norms <= radius))
        successes_rhs = int(np.count_nonzero(rhs_norms <= radius))
        rows.append(compare_counts(successes_lhs, successes_rhs, cfg.n_replicas,
                                   cfg.confidence, len(cfg.radii), radius))
    return InequalityReport(name, tuple(rows), cfg.n_replicas, cfg.master_seed,
                            cfg.confidence, lhs_label, rhs_label, samplers)


# --------------------------------------------------------------------------
# Anderson-type inequalities


def _resolve_shift(shift, spatial_grid: SpatialGrid) -> np.ndarray:
    """The shift as a finite float array with one value per grid point."""
    values = np.asarray(shift, dtype=float)
    if values.shape != (spatial_grid.size,):
        raise ValueError(f"shift shape {values.shape} does not match grid size "
                         f"{spatial_grid.size}")
    if not np.all(np.isfinite(values)):
        raise ValueError("shift values must be finite")
    return values


def verify_anderson_shift(density: SpectralDensity, shift, norm,
                          cfg: MCConfig) -> InequalityReport:
    """Check P(||X + shift|| <= r) <= P(||X|| <= r) at every config radius.

    `shift` holds one value per point of cfg.spatial_grid.  Both sides use
    the same replicas (the shift is deterministic), which cuts variance and
    makes shift = 0 give lhs = rhs exactly.
    """
    shift_values = _resolve_shift(shift, cfg.spatial_grid)
    synth = SpectralSynthesizer(density, cfg.frequency_grid, cfg.spatial_grid)

    def work(ids: range) -> np.ndarray:
        block = synth.sample_block(cfg.master_seed, ids)
        return np.column_stack([norm(block + shift_values, cfg.spatial_grid),
                                norm(block, cfg.spatial_grid)])

    rows = np.concatenate(_collect_blocks(work, cfg.n_replicas, synth))
    return _report_from_norms("anderson-shift", rows[:, 0], rows[:, 1], cfg,
                              lhs_label=f"||X + shift|| (X ~ {density.label})",
                              rhs_label="||X||", samplers=(("main", synth.describe()),))


def verify_anderson_sum(density_one: SpectralDensity, density_two: SpectralDensity,
                        norm, cfg: MCConfig) -> InequalityReport:
    """Check P(||X1 + X2|| <= r) <= P(||X1|| <= r) for independent X1, X2.

    X1 and X2 are drawn as a FieldPair: replicate k takes both from the two
    halves of stream k's row.  Both sides share the X1 replicas.
    """
    pair = FieldPair(SpectralSynthesizer(density_one, cfg.frequency_grid, cfg.spatial_grid),
                     SpectralSynthesizer(density_two, cfg.frequency_grid, cfg.spatial_grid))

    def work(ids: range) -> np.ndarray:
        x1, x2 = pair.sample_block(cfg.master_seed, ids)
        return np.column_stack([norm(x1 + x2, cfg.spatial_grid),
                                norm(x1, cfg.spatial_grid)])

    rows = np.concatenate(_collect_blocks(work, cfg.n_replicas, pair))
    return _report_from_norms("anderson-sum", rows[:, 0], rows[:, 1], cfg,
                              lhs_label=f"||X1 + X2|| (X1 ~ {density_one.label}, "
                                        f"X2 ~ {density_two.label})",
                              rhs_label="||X1||",
                              samplers=(("x", pair.first.describe()),
                                        ("y", pair.second.describe())))


# --------------------------------------------------------------------------
# coupling law and the domination-based ball-probability comparison


def _standardized_max(deviation: np.ndarray, se: np.ndarray,
                      se_multiple: float) -> float:
    """max |deviation| / (se_multiple * se), with 0/0 treated as 0.

    A zero standard error with a nonzero deviation maps to +inf: a constant
    estimator that still misses its target deserves a loud failure.
    """
    dev = np.abs(deviation)
    ratio = np.full(dev.shape, np.inf)
    positive = se > 0.0
    ratio[positive] = dev[positive] / (se_multiple * se[positive])
    ratio[dev == 0.0] = 0.0
    return float(np.max(ratio, initial=0.0))


def _mean_and_se(total: np.ndarray, total_squares: np.ndarray,
                 n: int) -> tuple:
    """Mean and standard error of a product from its sum and sum of squares
    over n replicas; the ddof-1 variance is clipped at 0 against roundoff."""
    mean = total / n
    variance = np.maximum(total_squares - total * mean, 0.0) / (n - 1)
    return mean, np.sqrt(variance) / np.sqrt(n)


@dataclass(frozen=True, eq=False)
class CouplingLawReport:
    """Both distributional checks of the decomposition at once.

    covariance_match: max standardized |empirical cov(y_rep) - the
    covariance of f_Y| over grid pairs, scaled so passing means <= 1 (i.e. within 3 SE).
    cross_orthogonality: max |empirical E[x1(x) x2(x')]| / SE, passing <= 3.
    """

    covariance_match: float
    cross_orthogonality: float
    n_replicas: int
    master_seed: int
    constant: float
    density_x_label: str
    density_y_label: str
    empirical: np.ndarray
    reference: np.ndarray
    cross: np.ndarray
    samplers: tuple = ()   # (field, SpectralSynthesizer.describe()) per drawn field

    @property
    def covariance_match_passed(self) -> bool:
        return self.covariance_match <= 1.0

    @property
    def cross_orthogonality_passed(self) -> bool:
        return self.cross_orthogonality <= 3.0

    @property
    def passed(self) -> bool:
        return self.covariance_match_passed and self.cross_orthogonality_passed


def verify_coupling_law(density_x: SpectralDensity, density_y: SpectralDensity,
                        constant: float, cfg: MCConfig,
                        certificate: DominationCertificate) -> CouplingLawReport:
    """Empirically confirm the decomposition's law identity and independence.

    (a) the empirical covariance of y_rep = C^{-1/2} x1 + x2 must match the
    covariance of f_Y (covariance_matrix) within 3 SE per grid pair; (b) the empirical
    cross-covariance of x1 and x2 must be within 3 SE of zero per pair.
    The sums of the products and of their squares are added up block by
    block, so memory is O(N^2) whatever the replica count.
    """
    coupler = CouplingSynthesizer(density_x, density_y, constant, certificate,
                                  cfg.frequency_grid, cfg.spatial_grid)
    reference = covariance_matrix(density_y, cfg.spatial_grid, cfg.frequency_grid)

    # sums over replicas of y_i y_j, (y_i y_j)^2, x1_i x2_j and (x1_i x2_j)^2
    sums = np.zeros((4, cfg.spatial_grid.size, cfg.spatial_grid.size))

    def work(ids: range):
        x1, x2, y = coupler.sample_block(cfg.master_seed, ids)
        sums[0] += y.T @ y
        sums[2] += x1.T @ x2
        # the squares overwrite the block, so one block is held, not two
        for values in (x1, x2, y):
            np.square(values, out=values)
        sums[1] += y.T @ y
        sums[3] += x1.T @ x2

    n = cfg.n_replicas
    _collect_blocks(work, n, coupler)
    empirical, se_y = _mean_and_se(sums[0], sums[1], n)
    match_stat = _standardized_max(empirical - reference, se_y, 3.0)
    cross, se_cross = _mean_and_se(sums[2], sums[3], n)
    cross_stat = _standardized_max(cross, se_cross, 1.0)

    return CouplingLawReport(match_stat, cross_stat, n, cfg.master_seed,
                             float(constant), density_x.label, density_y.label,
                             empirical, reference, cross, coupler.describe())


def verify_comparison(density_x: SpectralDensity, density_y: SpectralDensity,
                      constant: float, norm, cfg: MCConfig,
                      certificate: DominationCertificate) -> InequalityReport:
    """Check P(||Y|| <= r) <= P(||C^{-1/2} X|| <= r) at every config radius.

    Y is represented by the coupling (y_rep) and X by its x1 component, so the
    two sides are strongly paired.
    """
    coupler = CouplingSynthesizer(density_x, density_y, constant, certificate,
                                  cfg.frequency_grid, cfg.spatial_grid)
    inv_root = float(constant) ** -0.5

    def work(ids: range) -> np.ndarray:
        x1, _, y = coupler.sample_block(cfg.master_seed, ids)
        return np.column_stack([norm(y, cfg.spatial_grid),
                                norm(inv_root * x1, cfg.spatial_grid)])

    rows = np.concatenate(_collect_blocks(work, cfg.n_replicas, coupler))
    return _report_from_norms("comparison", rows[:, 0], rows[:, 1], cfg,
                              lhs_label=f"||Y|| (Y ~ {density_y.label})",
                              rhs_label=f"||C^-1/2 X|| (X ~ {density_x.label}, "
                                        f"C={float(constant)!r})",
                              samplers=coupler.describe())


def coupling_norm_quantiles(density_x: SpectralDensity, density_y: SpectralDensity,
                            constant: float, norm, cfg: MCConfig,
                            certificate: DominationCertificate,
                            count: int = 5, span: float = 0.9,
                            n_pilot: int = 2000) -> tuple:
    """Radii at evenly spaced quantiles of ||Y||, spanning the central `span`.

    Pilot replicas use a disjoint stream range, so a later verification run
    with the same master seed stays independent of the pilot.  The radii
    are numpy's "linear" quantiles of the pilot norms, bit for bit, but
    computed from one sort without np.quantile, whose np.unique call
    imports numpy.ma (about 15 ms) under numpy 2.4.
    """
    if not 1 <= count:
        raise ValueError("count must be at least 1")
    if not 0.0 < span < 1.0:
        raise ValueError("span must lie in (0, 1)")
    if n_pilot < 100:
        raise ValueError(f"n_pilot must be at least 100, got {n_pilot}")
    coupler = CouplingSynthesizer(density_x, density_y, constant, certificate,
                                  cfg.frequency_grid, cfg.spatial_grid)

    def work(ids: range) -> np.ndarray:
        pilot = [PILOT_REPLICATE_BASE + k for k in ids]
        return norm(coupler.sample_block(cfg.master_seed, pilot)[2], cfg.spatial_grid)

    norms = np.concatenate(_collect_blocks(work, n_pilot, coupler))
    tail = (1.0 - span) / 2.0
    probs = np.linspace(tail, 1.0 - tail, count)
    return tuple(float(q) for q in _linear_quantiles(norms, probs))


def _linear_quantiles(values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """np.quantile(values, probs) for finite values and probs in [0, 1].

    numpy's "linear" rule, step for step: the order statistics a, b either
    side of (n - 1) q, and the lerp a + (b - a) g below g = 1/2, else
    b - (b - a) (1 - g).  The bits match, except that a tie between -0.0
    and 0.0 may sort either way; norms are never -0.0.
    """
    ordered = np.sort(values)
    where = (ordered.size - 1) * probs
    below = np.floor(where)
    gamma = where - below
    lower = below.astype(np.intp)
    a = ordered[lower]
    b = ordered[np.minimum(lower + 1, ordered.size - 1)]
    return np.where(gamma < 0.5, a + (b - a) * gamma, b - (b - a) * (1 - gamma))


# --------------------------------------------------------------------------
# path-regularity estimation


def quadratic_variation_profile(values: np.ndarray,
                                scales=HURST_SCALES) -> np.ndarray:
    """log2 of the mean squared lag-2^j increment, per scale j.

    A path of shape (N,) gives one profile; a block of shape (B, N) gives
    one profile per row.
    """
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape[:-1] + (len(scales),))
    for i, j in enumerate(scales):
        lag = 1 << j
        if lag >= values.shape[-1]:
            raise ValueError(f"path too short for lag {lag}")
        inc = values[..., lag:] - values[..., :-lag]
        mean_square = np.mean(inc * inc, axis=-1)
        if np.any(mean_square <= 0.0):
            raise ValueError("degenerate path: zero quadratic variation")
        out[..., i] = np.log2(mean_square)
    return out


def _profile_hurst(profile: np.ndarray, scales=HURST_SCALES):
    """Half the least-squares slope of each log2 profile against j.

    E of the lag-l mean squared increment scales like l^{2H}, so the log2
    profile against j has slope 2H.
    """
    slope = np.polyfit(np.asarray(scales, dtype=float), profile.T, 1)[0]
    return slope / 2.0


@dataclass(frozen=True)
class HurstEstimate:
    estimate: float
    stderr: float
    ci_lower: float
    ci_upper: float
    confidence: float
    n_replicas: int
    n_points: int
    scales: tuple
    mean_log2_variation: tuple
    density_label: str
    samplers: tuple = ()   # (field, SpectralSynthesizer.describe()) per drawn field


def estimate_holder_exponent(density: SpectralDensity, cfg: MCConfig) -> HurstEstimate:
    """Average per-path regularity exponent over replicas, with a CI from
    the replica spread."""
    if density.dimension != 1:
        raise ValueError("the exponent estimator is defined for 1-d paths")
    if cfg.spatial_grid.resolution < MIN_HURST_RESOLUTION:
        raise ValueError(f"grid too coarse for the estimator: need at least "
                         f"{MIN_HURST_RESOLUTION} points per path")
    synth = SpectralSynthesizer(density, cfg.frequency_grid, cfg.spatial_grid)

    def work(ids: range) -> np.ndarray:
        profile = quadratic_variation_profile(synth.sample_block(cfg.master_seed, ids))
        return np.column_stack([_profile_hurst(profile), profile])

    rows = np.concatenate(_collect_blocks(work, cfg.n_replicas, synth))
    estimates = rows[:, 0]
    estimate = float(np.mean(estimates))
    stderr = float(np.std(estimates, ddof=1) / np.sqrt(cfg.n_replicas))
    z = NormalDist().inv_cdf((1.0 + cfg.confidence) / 2.0)
    mean_profile = tuple(float(v) for v in np.mean(rows[:, 1:], axis=0))
    return HurstEstimate(estimate, stderr, estimate - z * stderr,
                         estimate + z * stderr, cfg.confidence, cfg.n_replicas,
                         cfg.spatial_grid.resolution, tuple(HURST_SCALES),
                         mean_profile, density.label, (("main", synth.describe()),))
