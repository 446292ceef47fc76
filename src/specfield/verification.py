"""Monte Carlo verification of ball-probability inequalities.

Every operation here estimates P(||field|| <= r) quantities by replicated
synthesis and reports exact binomial confidence intervals with a three-way
verdict: "consistent" (the inequality direction is visibly respected),
"violated" (the wrong direction at the configured confidence, after
Bonferroni adjustment over radii), or "underpowered" (point estimates lean
the wrong way but the intervals overlap).  Violations of the inequalities
indicate bugs, not discoveries; underpowered is never coerced to either side.

Replicas are addressed by counter-based streams and produced in blocks whose
bounds depend only on the replica count and the grid, so reports are
reproducible bit-for-bit from (config, master seed) regardless of thread
count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from .covariance import covariance_matrix
from .grids import FrequencyGrid, SpatialGrid
from .spectral import DominationCertificate, SpectralDensity
from .synthesis import CouplingSynthesizer, SpectralSynthesizer, block_rows

# Pilot draws (quantile estimation) use replicate ids offset far past any
# verification replica so the two stream ranges never collide.
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
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must lie in (0, 1), got {self.confidence}")
        object.__setattr__(self, "radii", check_radii(self.radii))


def _collect_blocks(work, n_replicas: int, samplers, threads: int) -> list:
    """work(ids) for consecutive blocks of replica ids, results in block order.

    A block holds B = min(n, max(1, BLOCK_BYTES // (8 M))) replicas for M
    noise draws each, so its bounds depend on n and the grid only.  When more
    than one block reuses the samplers' spectral factors, they are kept whole,
    built once before the blocks go to the pool.  Reductions over the block
    results happen in block order, so the output is independent of threads.
    """
    size = min(n_replicas, block_rows(samplers[0].frequency_grid.size))
    blocks = [range(start, min(start + size, n_replicas))
              for start in range(0, n_replicas, size)]
    if len(blocks) > 1:
        for sampler in samplers:
            sampler.keep_factor()
    if threads <= 1:
        return [work(ids) for ids in blocks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, blocks))


# --------------------------------------------------------------------------
# exact binomial machinery and verdicts


def clopper_pearson_lower(successes: int, n: int, level: float) -> float:
    """One-sided exact lower confidence bound at the given level."""
    if successes == 0:
        return 0.0
    return float(special.betaincinv(successes, n - successes + 1, 1.0 - level))


def clopper_pearson_upper(successes: int, n: int, level: float) -> float:
    """One-sided exact upper confidence bound at the given level."""
    if successes == n:
        return 1.0
    return float(special.betaincinv(successes + 1, n - successes, level))


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

    @property
    def worst_verdict(self) -> str:
        worst = 0
        for row in self.rows:
            worst = max(worst, VERDICT_ORDER.index(row.verdict))
        return VERDICT_ORDER[worst]


def _report_from_norms(name: str, lhs_norms: np.ndarray, rhs_norms: np.ndarray,
                       cfg: MCConfig, lhs_label: str,
                       rhs_label: str) -> InequalityReport:
    if not cfg.radii:
        raise ValueError(f"{name} needs at least one radius in the config")
    rows = []
    for radius in cfg.radii:
        successes_lhs = int(np.count_nonzero(lhs_norms <= radius))
        successes_rhs = int(np.count_nonzero(rhs_norms <= radius))
        rows.append(compare_counts(successes_lhs, successes_rhs, cfg.n_replicas,
                                   cfg.confidence, len(cfg.radii), radius))
    return InequalityReport(name, tuple(rows), cfg.n_replicas, cfg.master_seed,
                            cfg.confidence, lhs_label, rhs_label)


# --------------------------------------------------------------------------
# ball probabilities


@dataclass(frozen=True)
class BallProbabilityEstimate:
    radius: float
    p_hat: float
    lower: float
    upper: float
    successes: int
    n_replicas: int
    confidence: float


def _ball_estimates(norm_values: np.ndarray, radii, n: int,
                    confidence: float) -> tuple:
    side_level = (1.0 + confidence) / 2.0
    out = []
    for radius in radii:
        successes = int(np.count_nonzero(norm_values <= radius))
        out.append(BallProbabilityEstimate(
            float(radius), successes / n,
            clopper_pearson_lower(successes, n, side_level),
            clopper_pearson_upper(successes, n, side_level),
            successes, n, confidence))
    return tuple(out)


def ball_probability_profile(density: SpectralDensity, norm, cfg: MCConfig,
                             threads: int = 1) -> tuple:
    """Estimates at every cfg radius from one shared replica set.

    Sharing replicas makes p-hat exactly nondecreasing in r.
    """
    if not cfg.radii:
        raise ValueError("profile needs at least one radius in the config")
    synth = SpectralSynthesizer(density, cfg.frequency_grid, cfg.spatial_grid)

    def work(ids: range) -> np.ndarray:
        return norm(synth.sample_block(cfg.master_seed, ids), cfg.spatial_grid)

    norms = np.concatenate(_collect_blocks(work, cfg.n_replicas, (synth,), threads))
    return _ball_estimates(norms, cfg.radii, cfg.n_replicas, cfg.confidence)


# --------------------------------------------------------------------------
# Anderson-type inequalities


def _resolve_shift(shift, spatial_grid: SpatialGrid) -> np.ndarray:
    if hasattr(shift, "values") and hasattr(shift, "grid"):
        if shift.grid != spatial_grid:
            raise ValueError("shift sample lives on a different grid "
                             f"({shift.grid.grid_id} vs {spatial_grid.grid_id})")
        return np.asarray(shift.values, dtype=float)
    if callable(shift):
        values = np.asarray(shift(spatial_grid.points), dtype=float)
    else:
        values = np.asarray(shift, dtype=float)
    if values.shape != (spatial_grid.size,):
        raise ValueError(f"shift shape {values.shape} does not match grid size "
                         f"{spatial_grid.size}")
    if not np.all(np.isfinite(values)):
        raise ValueError("shift values must be finite")
    return values


def verify_anderson_shift(density: SpectralDensity, shift, norm,
                          cfg: MCConfig, threads: int = 1) -> InequalityReport:
    """Check P(||X + shift|| <= r) <= P(||X|| <= r) at every config radius.

    Both sides use the same replicas (the shift is deterministic), which cuts
    variance and makes shift = 0 give lhs = rhs exactly.
    """
    shift_values = _resolve_shift(shift, cfg.spatial_grid)
    synth = SpectralSynthesizer(density, cfg.frequency_grid, cfg.spatial_grid)

    def work(ids: range) -> np.ndarray:
        block = synth.sample_block(cfg.master_seed, ids)
        return np.column_stack([norm(block + shift_values, cfg.spatial_grid),
                                norm(block, cfg.spatial_grid)])

    rows = np.concatenate(_collect_blocks(work, cfg.n_replicas, (synth,), threads))
    return _report_from_norms("anderson-shift", rows[:, 0], rows[:, 1], cfg,
                              lhs_label=f"||X + shift|| (X ~ {density.label})",
                              rhs_label="||X||")


def verify_anderson_sum(density_one: SpectralDensity, density_two: SpectralDensity,
                        norm, cfg: MCConfig, threads: int = 1) -> InequalityReport:
    """Check P(||X1 + X2|| <= r) <= P(||X1|| <= r) for independent X1, X2.

    Replicate k draws X1 on stream 2k and X2 on stream 2k+1; both sides share
    the X1 replicas.
    """
    synth_one = SpectralSynthesizer(density_one, cfg.frequency_grid, cfg.spatial_grid)
    synth_two = SpectralSynthesizer(density_two, cfg.frequency_grid, cfg.spatial_grid)

    def work(ids: range) -> np.ndarray:
        x1 = synth_one.sample_block(cfg.master_seed, [2 * k for k in ids])
        x2 = synth_two.sample_block(cfg.master_seed, [2 * k + 1 for k in ids])
        return np.column_stack([norm(x1 + x2, cfg.spatial_grid),
                                norm(x1, cfg.spatial_grid)])

    rows = np.concatenate(_collect_blocks(work, cfg.n_replicas,
                                          (synth_one, synth_two), threads))
    return _report_from_norms("anderson-sum", rows[:, 0], rows[:, 1], cfg,
                              lhs_label=f"||X1 + X2|| (X1 ~ {density_one.label}, "
                                        f"X2 ~ {density_two.label})",
                              rhs_label="||X1||")


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

    covariance_match: max standardized |empirical cov(y_rep) - quadrature
    cov(f_Y)| over grid pairs, scaled so passing means <= 1 (i.e. within 3 SE).
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
                        certificate: DominationCertificate,
                        threads: int = 1) -> CouplingLawReport:
    """Empirically confirm the decomposition's law identity and independence.

    (a) the empirical covariance of y_rep = C^{-1/2} x1 + x2 must match the
    quadrature covariance of f_Y within 3 SE per grid pair; (b) the empirical
    cross-covariance of x1 and x2 must be within 3 SE of zero per pair.
    The sums of the products and of their squares are added up block by
    block, so memory is O(N^2) whatever the replica count.
    """
    coupler = CouplingSynthesizer(density_x, density_y, constant, certificate,
                                  cfg.frequency_grid, cfg.spatial_grid)
    reference = covariance_matrix(density_y, cfg.spatial_grid.points,
                                  cfg.frequency_grid).entries

    def work(ids: range) -> tuple:
        x1, x2, y = coupler.sample_block(cfg.master_seed, ids)
        squares_x1, squares_x2, squares_y = x1 * x1, x2 * x2, y * y
        return (y.T @ y, squares_y.T @ squares_y, x1.T @ x2,
                squares_x1.T @ squares_x2)

    n = cfg.n_replicas
    sums = [sum(parts) for parts in
            zip(*_collect_blocks(work, n, (coupler,), threads))]
    empirical, se_y = _mean_and_se(sums[0], sums[1], n)
    match_stat = _standardized_max(empirical - reference, se_y, 3.0)
    cross, se_cross = _mean_and_se(sums[2], sums[3], n)
    cross_stat = _standardized_max(cross, se_cross, 1.0)

    return CouplingLawReport(match_stat, cross_stat, n, cfg.master_seed,
                             float(constant), density_x.label, density_y.label,
                             empirical, reference, cross)


def verify_comparison(density_x: SpectralDensity, density_y: SpectralDensity,
                      constant: float, norm, cfg: MCConfig,
                      certificate: DominationCertificate,
                      threads: int = 1) -> InequalityReport:
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

    rows = np.concatenate(_collect_blocks(work, cfg.n_replicas, (coupler,), threads))
    return _report_from_norms("comparison", rows[:, 0], rows[:, 1], cfg,
                              lhs_label=f"||Y|| (Y ~ {density_y.label})",
                              rhs_label=f"||C^-1/2 X|| (X ~ {density_x.label}, "
                                        f"C={float(constant)!r})")


def coupling_norm_quantiles(density_x: SpectralDensity, density_y: SpectralDensity,
                            constant: float, norm, cfg: MCConfig,
                            certificate: DominationCertificate,
                            count: int = 5, span: float = 0.9,
                            n_pilot: int = 2000, threads: int = 1) -> tuple:
    """Radii at evenly spaced quantiles of ||Y||, spanning the central `span`.

    Pilot replicas use a disjoint stream range, so a later verification run
    with the same master seed stays independent of the pilot.
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

    norms = np.concatenate(_collect_blocks(work, n_pilot, (coupler,), threads))
    tail = (1.0 - span) / 2.0
    probs = np.linspace(tail, 1.0 - tail, count)
    return tuple(float(q) for q in np.quantile(norms, probs))


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


def estimate_holder_exponent(density: SpectralDensity, cfg: MCConfig,
                             threads: int = 1) -> HurstEstimate:
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

    rows = np.concatenate(_collect_blocks(work, cfg.n_replicas, (synth,), threads))
    estimates = rows[:, 0]
    estimate = float(np.mean(estimates))
    stderr = float(np.std(estimates, ddof=1) / np.sqrt(cfg.n_replicas))
    z = float(special.ndtri((1.0 + cfg.confidence) / 2.0))
    mean_profile = tuple(float(v) for v in np.mean(rows[:, 1:], axis=0))
    return HurstEstimate(estimate, stderr, estimate - z * stderr,
                         estimate + z * stderr, cfg.confidence, cfg.n_replicas,
                         cfg.spatial_grid.resolution, tuple(HURST_SCALES),
                         mean_profile, density.label)
