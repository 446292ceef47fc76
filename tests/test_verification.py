import numpy as np
import pytest
from scipy import stats

import specfield as sf
from specfield import (MCConfig, SupNorm, ZeroDensity, ball_probability_profile,
                       check_domination, clopper_pearson_lower, clopper_pearson_upper,
                       compare_counts, coupling_norm_quantiles,
                       estimate_holder_exponent,
                       power_law_covariance_matrix,
                       quadratic_variation_profile, uniform_spatial_grid,
                       verify_anderson_shift, verify_anderson_sum,
                       verify_comparison, verify_coupling_law)
from specfield.synthesis import block_rows
from specfield.verification import (InequalityReport, RadiusComparison,
                                    _collect_blocks, _profile_hurst,
                                    _resolve_shift, _standardized_max)


def small_mc(default_grid, seed=5, n=300, radii=(0.3, 0.6, 1.2), resolution=8):
    return MCConfig(n, seed, default_grid, uniform_spatial_grid(1, resolution),
                    radii=radii)


class TestClopperPearson:
    def test_zero_successes_closed_form(self):
        n, level = 50, 0.975
        assert clopper_pearson_lower(0, n, level) == 0.0
        assert np.isclose(clopper_pearson_upper(0, n, level),
                          1.0 - (1.0 - level) ** (1.0 / n), rtol=1e-12)

    def test_full_successes_closed_form(self):
        n, level = 50, 0.975
        assert clopper_pearson_upper(n, n, level) == 1.0
        assert np.isclose(clopper_pearson_lower(n, n, level),
                          (1.0 - level) ** (1.0 / n), rtol=1e-12)

    def test_interval_brackets_the_estimate(self):
        lower = clopper_pearson_lower(30, 100, 0.995)
        upper = clopper_pearson_upper(30, 100, 0.995)
        assert lower < 0.3 < upper

    def test_higher_level_widens(self):
        assert (clopper_pearson_lower(30, 100, 0.999)
                < clopper_pearson_lower(30, 100, 0.95))

    def test_bounds_equal_beta_quantiles(self):
        # the bounds invert the regularized incomplete beta directly; they
        # must be the very floats of the beta quantiles they replace
        for n in (1, 2, 7, 100, 999, 20000):
            counts = np.unique(np.concatenate([np.arange(min(n, 60) + 1),
                                               np.linspace(0, n, 120).astype(int),
                                               np.arange(max(0, n - 60), n + 1)]))
            for level in (0.975, 0.995, 0.9995):
                for k in counts:
                    if k > 0:
                        assert clopper_pearson_lower(k, n, level) == float(
                            stats.beta.ppf(1.0 - level, k, n - k + 1))
                    if k < n:
                        assert clopper_pearson_upper(k, n, level) == float(
                            stats.beta.ppf(level, k + 1, n - k))

    def test_exact_binomial_inversion(self):
        # the lower bound p solves P(Bin(n, p) >= k) = 1 - level
        k, n, level = 30, 100, 0.995
        p = clopper_pearson_lower(k, n, level)
        assert np.isclose(stats.binom.sf(k - 1, n, p), 1.0 - level, rtol=1e-9)


class TestVerdictEngine:
    def test_separated_counts_are_violated(self):
        row = compare_counts(6000, 4000, 10000, 0.99)
        assert row.verdict == "violated"
        assert row.lower_lhs > row.upper_rhs
        assert row.margin > 0

    def test_equal_counts_are_consistent(self):
        row = compare_counts(5000, 5000, 10000, 0.99)
        assert row.verdict == "consistent"
        assert row.p_lhs == row.p_rhs

    def test_tiny_excess_within_noise_is_consistent(self):
        row = compare_counts(5005, 5000, 10000, 0.99)
        assert row.verdict == "consistent"

    def test_moderate_excess_is_underpowered(self):
        row = compare_counts(5200, 5000, 10000, 0.99)
        assert row.verdict == "underpowered"

    def test_correct_direction_is_consistent(self):
        row = compare_counts(4000, 6000, 10000, 0.99)
        assert row.verdict == "consistent"
        assert row.margin < 0

    def test_bonferroni_widens_bounds(self):
        single = compare_counts(5200, 5000, 10000, 0.99, n_radii=1)
        multi = compare_counts(5200, 5000, 10000, 0.99, n_radii=5)
        assert multi.lower_lhs < single.lower_lhs
        assert multi.upper_rhs > single.upper_rhs

    def test_worst_verdict_ordering(self):
        def row(verdict):
            return RadiusComparison(1.0, 100, 50, 50, 0.5, 0.5, 0.4, 0.6, 0.4,
                                    0.6, 0.2, verdict)
        report = InequalityReport("t", (row("consistent"), row("underpowered")),
                                  100, 0, 0.99, "l", "r")
        assert report.worst_verdict == "underpowered"
        report = InequalityReport("t", (row("violated"), row("consistent")),
                                  100, 0, 0.99, "l", "r")
        assert report.worst_verdict == "violated"


class TestMCConfig:
    def test_minimum_replicas(self, default_grid):
        with pytest.raises(ValueError, match="100"):
            MCConfig(50, 0, default_grid, uniform_spatial_grid(1, 8))

    def test_radii_must_be_sorted_positive(self, default_grid):
        grid = uniform_spatial_grid(1, 8)
        with pytest.raises(ValueError, match="positive"):
            MCConfig(100, 0, default_grid, grid, radii=(-1.0,))
        with pytest.raises(ValueError, match="sorted"):
            MCConfig(100, 0, default_grid, grid, radii=(2.0, 1.0))

    @pytest.mark.parametrize("radii", [(float("nan"),), (float("inf"),), (0.3, float("nan"))],
                             ids=["nan", "inf", "0.3-nan"])
    def test_radii_must_be_finite(self, default_grid, radii):
        with pytest.raises(ValueError, match="finite"):
            MCConfig(100, 0, default_grid, uniform_spatial_grid(1, 8), radii=radii)

    def test_confidence_range(self, default_grid):
        with pytest.raises(ValueError, match="confidence"):
            MCConfig(100, 0, default_grid, uniform_spatial_grid(1, 8),
                     confidence=1.0)


class TestCollectBlocks:
    def test_threading_never_changes_results(self, default_grid, space_8, brownian):
        n = 2 * block_rows(default_grid.size) + 51       # three blocks, one short
        synth = sf.SpectralSynthesizer(brownian, default_grid, space_8)

        def work(ids):
            return synth.sample_block(3, ids)
        serial = np.concatenate(_collect_blocks(work, n, (synth,), 1))
        threaded = np.concatenate(_collect_blocks(work, n, (synth,), 4))
        assert serial.shape == (n, 8)
        assert serial.tobytes() == threaded.tobytes()

    def test_blocks_depend_on_count_and_grid_only(self, default_grid, space_8,
                                                  brownian):
        size = block_rows(default_grid.size)
        synth = sf.SpectralSynthesizer(brownian, default_grid, space_8)
        for threads in (1, 3):
            blocks = _collect_blocks(lambda ids: ids, 2 * size + 1, (synth,), threads)
            assert blocks == [range(0, size), range(size, 2 * size),
                              range(2 * size, 2 * size + 1)]
        assert _collect_blocks(lambda ids: ids, 5, (synth,), 2) == [range(5)]

    def test_factor_is_kept_only_when_blocks_reuse_it(self, default_grid, space_8,
                                                       brownian):
        single = sf.SpectralSynthesizer(brownian, default_grid, space_8)
        _collect_blocks(lambda ids: None, block_rows(default_grid.size), (single,), 1)
        assert single._factor is None
        several = sf.SpectralSynthesizer(brownian, default_grid, space_8)
        _collect_blocks(lambda ids: None, block_rows(default_grid.size) + 1,
                        (several,), 1)
        assert several._factor.shape == (8, default_grid.size)


class TestBallProbabilities:
    def test_profile_is_monotone_in_radius(self, default_grid, brownian):
        cfg = small_mc(default_grid, radii=(0.2, 0.5, 0.9, 1.5))
        profile = ball_probability_profile(brownian, SupNorm(), cfg)
        p_hats = [e.p_hat for e in profile]
        assert p_hats == sorted(p_hats)
        for e in profile:
            assert 0.0 <= e.lower <= e.p_hat <= e.upper <= 1.0

    def test_single_estimate_matches_profile(self, default_grid, brownian):
        # a one-radius profile is the same estimate as that radius of a wider
        # profile, because both share one replica set
        single = ball_probability_profile(brownian, SupNorm(),
                                          small_mc(default_grid, radii=(0.5,)))
        profile = ball_probability_profile(brownian, SupNorm(),
                                           small_mc(default_grid, radii=(0.2, 0.5)))
        assert single == profile[1:]

    def test_radius_validation(self, default_grid):
        with pytest.raises(ValueError, match="positive"):
            small_mc(default_grid, radii=(-0.5,))


class TestAndersonShift:
    def test_zero_shift_pairs_both_sides_exactly(self, default_grid, brownian):
        cfg = small_mc(default_grid)
        report = verify_anderson_shift(brownian, np.zeros(8), SupNorm(), cfg)
        for row in report.rows:
            assert row.successes_lhs == row.successes_rhs
            assert row.verdict == "consistent"
        assert report.worst_verdict == "consistent"

    def test_linear_shift_is_consistent(self, default_grid, brownian):
        cfg = small_mc(default_grid)
        shift = 0.5 * cfg.spatial_grid.points[:, 0]
        report = verify_anderson_shift(brownian, shift, SupNorm(), cfg)
        assert report.worst_verdict in ("consistent", "underpowered")
        assert report.n_replicas == cfg.n_replicas

    def test_huge_shift_empties_the_ball(self, default_grid, brownian):
        cfg = small_mc(default_grid)
        report = verify_anderson_shift(brownian, 50.0 * np.ones(8), SupNorm(), cfg)
        for row in report.rows:
            assert row.successes_lhs == 0
            assert row.verdict == "consistent"

    def test_callable_shift(self, default_grid, brownian):
        cfg = small_mc(default_grid)
        report = verify_anderson_shift(brownian, lambda pts: 0.5 * pts[:, 0],
                                       SupNorm(), cfg)
        assert report.name == "anderson-shift"

    def test_threads_do_not_change_the_report(self, default_grid, brownian):
        cfg = small_mc(default_grid, n=120)
        shift = 0.5 * cfg.spatial_grid.points[:, 0]
        a = verify_anderson_shift(brownian, shift, SupNorm(), cfg, threads=1)
        b = verify_anderson_shift(brownian, shift, SupNorm(), cfg, threads=4)
        assert a.rows == b.rows

    def test_needs_radii(self, default_grid, brownian):
        cfg = small_mc(default_grid, radii=())
        with pytest.raises(ValueError, match="radius"):
            verify_anderson_shift(brownian, np.zeros(8), SupNorm(), cfg)


class TestShiftResolution:
    def test_field_sample_shift(self, default_grid, brownian):
        cfg = small_mc(default_grid)
        sample = sf.SpectralSynthesizer(brownian, default_grid,
                                        cfg.spatial_grid).sample(77, 0)
        resolved = _resolve_shift(sample, cfg.spatial_grid)
        assert np.array_equal(resolved, sample.values)

    def test_grid_mismatch_rejected(self, default_grid, brownian):
        sample = sf.SpectralSynthesizer(brownian, default_grid,
                                        uniform_spatial_grid(1, 16)).sample(77, 0)
        with pytest.raises(ValueError, match="different grid"):
            _resolve_shift(sample, uniform_spatial_grid(1, 8))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            _resolve_shift(np.zeros(5), uniform_spatial_grid(1, 8))

    def test_nonfinite_rejected(self):
        bad = np.full(8, np.nan)
        with pytest.raises(ValueError, match="finite"):
            _resolve_shift(bad, uniform_spatial_grid(1, 8))


class TestAndersonSum:
    def test_zero_second_density_pairs_exactly(self, default_grid, brownian):
        cfg = small_mc(default_grid)
        report = verify_anderson_sum(brownian, ZeroDensity(1), SupNorm(), cfg)
        for row in report.rows:
            assert row.successes_lhs == row.successes_rhs
            assert row.verdict == "consistent"

    def test_perturbed_pair_has_no_violations(self, default_grid, fbm_pair):
        perturbed, base = fbm_pair
        cfg = small_mc(default_grid)
        report = verify_anderson_sum(perturbed, base, SupNorm(), cfg)
        assert report.worst_verdict != "violated"


class TestCouplingLaw:
    def test_identical_densities_are_exactly_orthogonal(self, default_grid,
                                                        brownian):
        cfg = small_mc(default_grid, radii=())
        cert = check_domination(brownian, brownian, 1.0, default_grid)
        report = verify_coupling_law(brownian, brownian, 1.0, cfg, cert)
        # the residual component is identically zero, so every cross product is
        assert np.all(report.cross == 0.0)
        assert report.cross_orthogonality == 0.0
        assert report.cross_orthogonality_passed
        assert np.isfinite(report.covariance_match)

    def test_perturbed_pair_passes(self, default_grid, fbm_pair):
        perturbed, base = fbm_pair
        cfg = small_mc(default_grid, n=400, radii=())
        cert = check_domination(perturbed, base, 1.0, default_grid)
        report = verify_coupling_law(perturbed, base, 1.0, cfg, cert)
        assert report.passed
        assert report.covariance_match <= 1.0
        assert report.cross_orthogonality <= 3.0
        assert report.empirical.shape == (8, 8)

    def test_streamed_moments_match_the_product_tensors(self, default_grid,
                                                        fbm_pair):
        perturbed, base = fbm_pair
        n = 150
        cfg = small_mc(default_grid, n=n, radii=())
        cert = check_domination(perturbed, base, 1.0, default_grid)
        report = verify_coupling_law(perturbed, base, 1.0, cfg, cert)
        # the parent's formulas over (n, N, N) product tensors, on the same
        # block of replicas
        coupler = sf.CouplingSynthesizer(perturbed, base, 1.0, cert, default_grid,
                                         cfg.spatial_grid)
        x1, x2, y = coupler.sample_block(cfg.master_seed, range(n))
        products_y = y[:, :, None] * y[:, None, :]
        mean = products_y.mean(axis=0)
        se_y = products_y.std(axis=0, ddof=1) / np.sqrt(n)
        products_cross = x1[:, :, None] * x2[:, None, :]
        cross = products_cross.mean(axis=0)
        se_cross = products_cross.std(axis=0, ddof=1) / np.sqrt(n)

        def close(a, b):
            return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
        assert close(report.empirical, mean)
        assert close(report.cross, cross)
        match = _standardized_max(mean - report.reference, se_y, 3.0)
        assert abs(report.covariance_match - match) <= 1e-12 * match
        orthogonality = _standardized_max(cross, se_cross, 1.0)
        assert abs(report.cross_orthogonality - orthogonality) <= 1e-12 * orthogonality
        # the origin row is exactly zero on both sides, so its ratio is 0
        # rather than 0/0
        assert np.all(report.empirical[0] == 0.0)
        assert np.all(report.reference[0] == 0.0)
        assert np.isfinite(report.covariance_match)

    def test_threads_do_not_change_the_report(self, default_grid, fbm_pair):
        perturbed, base = fbm_pair
        cfg = small_mc(default_grid, n=150, radii=())
        cert = check_domination(perturbed, base, 1.0, default_grid)
        a = verify_coupling_law(perturbed, base, 1.0, cfg, cert, threads=1)
        b = verify_coupling_law(perturbed, base, 1.0, cfg, cert, threads=3)
        assert np.array_equal(a.empirical, b.empirical)
        assert np.array_equal(a.cross, b.cross)


class TestComparison:
    def test_identical_densities_pair_exactly(self, default_grid, brownian):
        cfg = small_mc(default_grid)
        cert = check_domination(brownian, brownian, 1.0, default_grid)
        report = verify_comparison(brownian, brownian, 1.0, SupNorm(), cfg, cert)
        for row in report.rows:
            assert row.successes_lhs == row.successes_rhs
            assert row.verdict == "consistent"

    def test_perturbed_pair_has_no_violations(self, default_grid, fbm_pair):
        perturbed, base = fbm_pair
        cfg = small_mc(default_grid, n=400)
        cert = check_domination(perturbed, base, 1.0, default_grid)
        report = verify_comparison(perturbed, base, 1.0, SupNorm(), cfg, cert)
        assert report.worst_verdict != "violated"


class TestQuantileRadii:
    def test_quantiles_are_sorted_and_bracketed(self, default_grid, fbm_pair):
        perturbed, base = fbm_pair
        cfg = small_mc(default_grid, radii=())
        cert = check_domination(perturbed, base, 1.0, default_grid)
        radii = coupling_norm_quantiles(perturbed, base, 1.0, SupNorm(), cfg,
                                        cert, count=5, span=0.9, n_pilot=200)
        assert len(radii) == 5
        assert list(radii) == sorted(radii)
        assert radii[0] > 0

    def test_determinism(self, default_grid, fbm_pair):
        perturbed, base = fbm_pair
        cfg = small_mc(default_grid, radii=())
        cert = check_domination(perturbed, base, 1.0, default_grid)
        kwargs = dict(count=3, span=0.8, n_pilot=150)
        a = coupling_norm_quantiles(perturbed, base, 1.0, SupNorm(), cfg, cert,
                                    **kwargs)
        b = coupling_norm_quantiles(perturbed, base, 1.0, SupNorm(), cfg, cert,
                                    **kwargs)
        assert a == b

    def test_span_validation(self, default_grid, fbm_pair):
        perturbed, base = fbm_pair
        cfg = small_mc(default_grid, radii=())
        cert = check_domination(perturbed, base, 1.0, default_grid)
        with pytest.raises(ValueError, match="span"):
            coupling_norm_quantiles(perturbed, base, 1.0, SupNorm(), cfg, cert,
                                    span=1.0)

    def test_pilot_count_validation(self, default_grid, fbm_pair):
        perturbed, base = fbm_pair
        cfg = small_mc(default_grid, radii=())
        cert = check_domination(perturbed, base, 1.0, default_grid)
        for n_pilot in (0, 99):
            with pytest.raises(ValueError, match="n_pilot must be at least 100"):
                coupling_norm_quantiles(perturbed, base, 1.0, SupNorm(), cfg, cert,
                                        n_pilot=n_pilot)


class TestStandardizedMax:
    def test_zero_over_zero_is_zero(self):
        assert _standardized_max(np.zeros(3), np.zeros(3), 3.0) == 0.0

    def test_nonzero_over_zero_is_infinite(self):
        dev = np.array([0.0, 0.5])
        se = np.zeros(2)
        assert _standardized_max(dev, se, 3.0) == np.inf

    def test_zero_deviation_over_positive_se_is_zero(self):
        assert _standardized_max(np.zeros(2), np.ones(2), 3.0) == 0.0

    def test_plain_ratio(self):
        dev = np.array([0.3, -0.6])
        se = np.array([0.1, 0.1])
        assert np.isclose(_standardized_max(dev, se, 3.0), 2.0)


class TestPathRegularity:
    def test_profile_of_exact_self_similar_path(self):
        # quadratic variation of a deterministic ramp: increments scale with
        # the lag exactly, so the log2 profile has slope exactly 2
        values = np.arange(1024, dtype=float)
        profile = quadratic_variation_profile(values)
        slopes = np.diff(profile)
        assert np.allclose(slopes, 2.0, atol=1e-12)
        assert _profile_hurst(profile) == pytest.approx(1.0, abs=1e-12)

    def test_block_profiles_and_exponents_are_per_row(self):
        rng = np.random.default_rng(8)
        block = np.cumsum(rng.normal(size=(5, 512)), axis=1)
        profiles = quadratic_variation_profile(block)
        estimates = _profile_hurst(profiles)
        assert profiles.shape == (5, 4) and estimates.shape == (5,)
        for row, profile, estimate in zip(block, profiles, estimates):
            assert np.allclose(quadratic_variation_profile(row), profile,
                               rtol=0, atol=1e-12)
            assert abs(_profile_hurst(quadratic_variation_profile(row)) - estimate) <= 1e-12

    def test_short_path_rejected(self):
        with pytest.raises(ValueError, match="short"):
            quadratic_variation_profile(np.arange(16, dtype=float))

    def test_degenerate_path_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            quadratic_variation_profile(np.ones(256))

    @pytest.mark.parametrize("hurst", [0.4, 0.6])
    def test_exact_sampler_paths_recover_the_exponent(self, hurst):
        # factorized closed-form sampling is a quadrature-free route to the
        # estimator, so this checks the regression rather than the synthesis
        grid = uniform_spatial_grid(1, 512)
        matrix = power_law_covariance_matrix(grid.points, hurst)
        sampler = sf.ExactFieldSampler(matrix, grid)
        estimates = [_profile_hurst(quadratic_variation_profile(sampler.sample(3, k).values))
                     for k in range(40)]
        assert abs(np.mean(estimates) - hurst) < 0.05

    def test_estimator_needs_line_fields(self, grid_2d):
        f2 = sf.fractional_brownian_density(0.5, dimension=2)
        cfg = MCConfig(100, 0, grid_2d, uniform_spatial_grid(2, 300))
        with pytest.raises(ValueError, match="1-d"):
            estimate_holder_exponent(f2, cfg)

    def test_estimator_needs_fine_grids(self, default_grid, brownian):
        cfg = MCConfig(100, 0, default_grid, uniform_spatial_grid(1, 64))
        with pytest.raises(ValueError, match="coarse"):
            estimate_holder_exponent(brownian, cfg)

    def test_spectral_estimate_at_modest_size(self, default_grid, brownian):
        cfg = MCConfig(100, 41, default_grid, uniform_spatial_grid(1, 256))
        est = estimate_holder_exponent(brownian, cfg)
        assert abs(est.estimate - 0.5) < 0.05
        assert est.ci_lower < est.estimate < est.ci_upper
        assert est.stderr > 0
        assert len(est.mean_log2_variation) == len(est.scales)
