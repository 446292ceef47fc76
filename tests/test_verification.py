import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import specfield as sf
from specfield import (MCConfig, SupNorm, ZeroDensity,
                       check_domination, clopper_pearson_lower, clopper_pearson_upper,
                       compare_counts, coupling_norm_quantiles,
                       estimate_holder_exponent,
                       power_law_covariance_matrix,
                       quadratic_variation_profile, uniform_spatial_grid,
                       verify_anderson_shift, verify_anderson_sum,
                       verify_comparison, verify_coupling_law)
from specfield.synthesis import block_rows
from specfield.verification import (PILOT_REPLICATE_BASE, InequalityReport,
                                    RadiusComparison, _collect_blocks, _linear_quantiles,
                                    _profile_hurst, _resolve_shift, _standardized_max)


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

    def test_bounds_match_beta_quantiles(self):
        # the bounds are beta quantiles; against scipy's they agree to 1e-12
        # relative up to n = 20,000 and to 1e-11 at the 100,000 replicas of
        # acceptance 06
        for n in (1, 2, 7, 100, 999, 20000, 100000):
            rtol = 1e-12 if n <= 20000 else 1e-11
            counts = np.unique(np.concatenate([np.arange(min(n, 60) + 1),
                                               np.linspace(0, n, 120).astype(int),
                                               np.arange(max(0, n - 60), n + 1)]))
            for level in (0.975, 0.995, 0.9995):
                for k in counts:
                    if k > 0:
                        assert np.isclose(clopper_pearson_lower(k, n, level),
                                          stats.beta.ppf(1.0 - level, k, n - k + 1),
                                          rtol=rtol, atol=0.0)
                    if k < n:
                        assert np.isclose(clopper_pearson_upper(k, n, level),
                                          stats.beta.ppf(level, k + 1, n - k),
                                          rtol=rtol, atol=0.0)

    def test_exact_binomial_inversion(self):
        # the lower bound p solves P(Bin(n, p) >= k) = 1 - level and the upper
        # bound P(Bin(n, p) <= k) = 1 - level, to 1e-12 relative.  Each tail is
        # evaluated in the smaller of p and 1 - p, which is exact.  Where p is
        # so close to 1 that one ulp of p moves the tail by more (the upper
        # bound at k = n - 1: 2e-9 per ulp at n = 100,000), that step is the
        # tolerance, since no float does better
        level = 0.995

        def at_least(k, n, p):
            return (stats.binom.sf(k - 1, n, p) if p <= 0.5
                    else stats.binom.cdf(n - k, n, 1.0 - p))

        def at_most(k, n, p):
            return (stats.binom.cdf(k, n, p) if p <= 0.5
                    else stats.binom.sf(n - k - 1, n, 1.0 - p))

        def assert_solves(tail, p):
            ulp_step = abs(tail(np.nextafter(p, 1.0)) - tail(p))
            assert abs(tail(p) - (1.0 - level)) <= 1e-12 * (1.0 - level) + ulp_step

        for n in (100, 100000):
            for k in (1, n // 2, n - 1):
                assert_solves(lambda p: at_least(k, n, p), clopper_pearson_lower(k, n, level))
                assert_solves(lambda p: at_most(k, n, p), clopper_pearson_upper(k, n, level))

    @given(n=st.integers(1, 100000), data=st.data(),
           level=st.floats(0.5, 0.999), gap=st.floats(1e-6, 0.0009))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_count_and_level(self, n, data, level, gap):
        k = data.draw(st.integers(0, n - 1))
        for bound in (clopper_pearson_lower, clopper_pearson_upper):
            assert bound(k, n, level) <= bound(k + 1, n, level)
        assert (clopper_pearson_lower(k, n, level + gap)
                <= clopper_pearson_lower(k, n, level))
        assert (clopper_pearson_upper(k, n, level + gap)
                >= clopper_pearson_upper(k, n, level))

    @pytest.mark.parametrize("successes, n, level, named", [
        (120, 100, 0.99, "120"), (-5, 100, 0.99, "-5"), (0, 0, 0.99, "got 0"),
        (3, 100, 0.0, "got 0.0"), (3, 100, 1.0, "got 1.0"), (3, 100, np.nan, "nan")])
    def test_impossible_inputs_are_refused(self, successes, n, level, named):
        for bound in (clopper_pearson_lower, clopper_pearson_upper):
            with pytest.raises(ValueError, match=named):
                bound(successes, n, level)


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

    @pytest.mark.parametrize("lhs, rhs, n, confidence, named", [
        (120, 50, 100, 0.99, "120"), (-5, 50, 100, 0.99, "-5"),
        (50, 120, 100, 0.99, "120"), (0, 0, 0, 0.99, "got 0"),
        (50, 50, 100, 1.0, "got 1.0"), (50, 50, 100, 0.0, "got 0.0")])
    def test_impossible_counts_are_refused(self, lhs, rhs, n, confidence, named):
        with pytest.raises(ValueError, match=named):
            compare_counts(lhs, rhs, n, confidence)

    @pytest.mark.parametrize("n_radii", [0, -1, 1.5, 2.0])
    def test_radius_count_must_be_a_positive_integer(self, n_radii):
        # 0 divided by zero and -1 was blamed on the side level 1.005
        with pytest.raises(ValueError, match=f"n_radii must be an integer >= 1, "
                                             f"got {n_radii!r}"):
            compare_counts(5, 5, 100, 0.99, n_radii=n_radii)

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

    def test_replicas_stay_below_the_pilot_streams(self, default_grid):
        # main replicas use streams 0..n-1 and pilot draws 2^31 + j, so more
        # than 2^31 replicas would reuse pilot streams
        grid = uniform_spatial_grid(1, 8)
        assert MCConfig(PILOT_REPLICATE_BASE, 0, default_grid, grid).n_replicas == 1 << 31
        with pytest.raises(ValueError, match="2147483649 replicas .* start at 2147483648"):
            MCConfig(PILOT_REPLICATE_BASE + 1, 0, default_grid, grid)


class TestCollectBlocks:
    # With no more replicas than points, 1-d blocks of the exact law are
    # drawn by circulant embedding (L normals a row, and its spectrum and
    # path); every other campaign through the exact sampler on K (width N).
    def test_plane_rows_agree_across_blocks_at_roundoff(self, monkeypatch):
        # a 2-d modulated density, drawn by Cholesky
        from specfield import synthesis
        density = sf.PerturbedDensity(sf.fractional_brownian_density(0.5, 2),
                                      sf.SineModulation(2.0, 1.0, scale=3.0))
        grid = sf.dyadic_frequency_grid(2, -6, 6, 16)
        space = uniform_spatial_grid(2, 27)
        n = space.size
        synth = sf.SpectralSynthesizer(density, grid, space)

        def work(ids):
            return synth.sample_block(3, ids)
        whole = synth.sample_block(3, range(n))
        monkeypatch.setattr(synthesis, "block_rows", lambda width: 300)
        blocks = _collect_blocks(work, n, synth)
        assert [len(block) for block in blocks] == [300, 300, 129]
        assert dict(synth.describe())["sampler"] == "cholesky"
        # the GEMM's own blocking follows its shape, so rows agree at
        # roundoff, not bit for bit: hence block bounds fixed by n and grids
        blocks = np.concatenate(blocks)
        assert np.max(np.abs(blocks - whole)) <= 1e-13 * np.max(np.abs(whole))

    def test_low_rank_rows_do_not_depend_on_blocks(
            self, default_grid, space_8, brownian, monkeypatch):
        from specfield import synthesis
        synth = sf.SpectralSynthesizer(brownian, default_grid, space_8)

        def work(ids):
            return synth.sample_block(3, ids)
        whole = np.concatenate(_collect_blocks(work, 200, synth))
        monkeypatch.setattr(synthesis, "block_rows", lambda width: 64)
        blocks = _collect_blocks(work, 200, synth)
        assert [len(block) for block in blocks] == [64, 64, 64, 8]
        assert np.concatenate(blocks).tobytes() == whole.tobytes()

    def test_blocks_depend_on_count_and_grid_only(self, default_grid, space_8,
                                                  brownian):
        # 1,025 points embed at L = 2,048: 2,048 normals, 2,050 floats of
        # spectrum, 2,048 of transform and 1,025 of path a row
        circulant = sf.SpectralSynthesizer(brownian, default_grid,
                                           uniform_spatial_grid(1, 1025))
        low_rank = sf.SpectralSynthesizer(brownian, default_grid, space_8)
        for synth, size in ((circulant, block_rows(3 * 2048 + 2 + 1025)),
                            (low_rank, block_rows(space_8.size))):
            blocks = _collect_blocks(lambda ids: ids, 2 * size + 1, synth)
            assert blocks == [range(0, size), range(size, 2 * size),
                              range(2 * size, 2 * size + 1)]
            assert _collect_blocks(lambda ids: ids, 5, synth) == [range(5)]

    def test_plane_factor_is_built_once_per_campaign(self, grid_2d, monkeypatch):
        # the Cholesky factor of a 2-d modulated density's K serves one
        # block or several alike
        from specfield import synthesis
        builds = []
        gram = synthesis.covariance_matrix
        monkeypatch.setattr(synthesis, "covariance_matrix",
                            lambda *args: builds.append(args) or gram(*args))
        density = sf.PerturbedDensity(sf.fractional_brownian_density(0.5, 2),
                                      sf.SineModulation(2.0, 1.0, scale=3.0))
        space = uniform_spatial_grid(2, 3)
        monkeypatch.setattr(synthesis, "block_rows", lambda width: 4)
        for n in (4, 9, 40):
            synth = sf.SpectralSynthesizer(density, grid_2d, space)
            _collect_blocks(lambda ids: synth.sample_block(0, ids), n, synth)
            assert isinstance(synth.way, sf.ExactFieldSampler)
            assert synth.way._factor.shape == (9, 9)
        assert len(builds) == 3


class TestBallProbabilities:
    def test_profile_is_monotone_in_radius(self, default_grid, brownian):
        # the rhs of a zero-shift report is the ball-probability profile
        cfg = small_mc(default_grid, radii=(0.2, 0.5, 0.9, 1.5))
        rows = verify_anderson_shift(brownian, np.zeros(8), SupNorm(), cfg).rows
        counts = [row.successes_rhs for row in rows]
        assert counts == sorted(counts)
        for row in rows:
            assert 0.0 <= row.lower_rhs <= row.p_rhs <= row.upper_rhs <= 1.0

    def test_single_estimate_matches_profile(self, default_grid, brownian):
        # a one-radius report counts the same successes as that radius of a
        # wider report, because both share one replica set
        single = verify_anderson_shift(brownian, np.zeros(8), SupNorm(),
                                       small_mc(default_grid, radii=(0.5,)))
        profile = verify_anderson_shift(brownian, np.zeros(8), SupNorm(),
                                        small_mc(default_grid, radii=(0.2, 0.5)))
        assert single.rows[0].successes_rhs == profile.rows[1].successes_rhs
        assert single.rows[0].successes_lhs == profile.rows[1].successes_lhs

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
        # a shift given as a function is evaluated on the grid by the caller
        cfg = small_mc(default_grid)
        report = verify_anderson_shift(brownian, 0.5 * cfg.spatial_grid.points[:, 0],
                                       SupNorm(), cfg)
        assert report.name == "anderson-shift"

    def test_needs_radii(self, default_grid, brownian):
        cfg = small_mc(default_grid, radii=())
        with pytest.raises(ValueError, match="radius"):
            verify_anderson_shift(brownian, np.zeros(8), SupNorm(), cfg)


class TestShiftResolution:
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

    def test_one_noise_draw_per_block(self, default_grid, fbm_pair, monkeypatch):
        # replicate k draws X1 and X2 from the two halves of one row of
        # stream k, so each block is one draw of 2N normals a row
        from specfield import synthesis
        perturbed, base = fbm_pair
        draws = []
        draw = synthesis.hermitian_noise
        monkeypatch.setattr(synthesis, "hermitian_noise",
                            lambda width, seed, ids: draws.append((len(ids), width))
                            or draw(width, seed, ids))
        monkeypatch.setattr(synthesis, "block_rows", lambda width: 128)
        verify_anderson_sum(perturbed, base, SupNorm(), small_mc(default_grid))
        assert draws == [(128, 16), (128, 16), (44, 16)]


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
        coupler.prepare(n)
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

    def test_running_sums_hold_one_block(self, fbm_pair, monkeypatch):
        # 200 replicas on 64 points take one exact block; two replicas per
        # block make 100, whose moments must not all be held at once.  A
        # coarse frequency grid keeps the factor build below that peak.
        import tracemalloc
        from specfield import synthesis
        perturbed, base = fbm_pair
        grid = sf.dyadic_frequency_grid(j_lo=-12, j_hi=12, nodes_per_annulus=16)
        cfg = small_mc(grid, n=200, radii=(), resolution=64)
        cert = check_domination(perturbed, base, 1.0, grid)

        def traced():
            tracemalloc.start()
            try:
                report = verify_coupling_law(perturbed, base, 1.0, cfg, cert)
                return report, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        one, one_peak = traced()
        blocks = []
        sample_block = sf.CouplingSynthesizer.sample_block
        monkeypatch.setattr(synthesis, "block_rows", lambda width: 2)
        monkeypatch.setattr(sf.CouplingSynthesizer, "sample_block",
                            lambda self, seed, ids: blocks.append(len(ids))
                            or sample_block(self, seed, ids))
        many, many_peak = traced()
        assert blocks == [2] * 100
        # one block's four 64 x 64 moment arrays take 128 KiB
        assert many_peak < one_peak + 4 * 64 * 64 * 8
        for a, b in ((many.empirical, one.empirical), (many.cross, one.cross)):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
        assert abs(many.covariance_match - one.covariance_match) <= 1e-9
        assert abs(many.cross_orthogonality - one.cross_orthogonality) <= 1e-9


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

    @pytest.mark.parametrize("n_pilot", [100, 101, 150, 2000])
    def test_radii_are_numpy_linear_quantiles(self, default_grid, fbm_pair, n_pilot):
        # the radii come from one sort, not np.quantile, and must keep its
        # bits; rounding the norms to 0.1 makes ties
        perturbed, base = fbm_pair
        cfg = small_mc(default_grid, radii=())
        cert = check_domination(perturbed, base, 1.0, default_grid)
        for decimals in (None, 1):
            norms = []

            def norm(values, grid):
                out = SupNorm()(values, grid)
                norms.append(out if decimals is None else np.round(out, decimals))
                return norms[-1]

            for count in (1, 3, 5):
                for span in (0.5, 0.8, 0.9):
                    norms.clear()
                    radii = coupling_norm_quantiles(perturbed, base, 1.0, norm, cfg,
                                                    cert, count=count, span=span,
                                                    n_pilot=n_pilot)
                    pilot = np.concatenate(norms)
                    assert pilot.size == n_pilot
                    if decimals is not None:
                        assert np.unique(pilot).size < n_pilot
                    tail = (1.0 - span) / 2.0
                    expected = np.quantile(pilot, np.linspace(tail, 1.0 - tail, count))
                    assert np.array(radii).tobytes() == expected.tobytes()

    def test_linear_rule_matches_numpy_on_a_fine_probability_grid(self):
        # the two-sided lerp matters in the last bit: a + (b - a) g alone
        # misses np.quantile on a few of these 1,001 levels per size
        rng = np.random.default_rng(2)
        probs = np.linspace(0.0, 1.0, 1001)
        for n in (1, 2, 100, 101, 150, 2000):
            for values in (np.abs(rng.standard_normal(n)),
                           np.round(np.abs(rng.standard_normal(n)), 1)):
                assert (_linear_quantiles(values, probs).tobytes()
                        == np.quantile(values, probs).tobytes())

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
