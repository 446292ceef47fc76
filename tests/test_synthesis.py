import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import stats

import specfield as sf
from specfield import (BandLimitedDensity, CouplingSynthesizer, ExactFieldSampler,
                       FieldSample, IndefiniteMatrixError, SpectralSynthesizer,
                       ZeroDensity, check_domination, covariance_matrix, hermitian_noise,
                       uniform_spatial_grid)


def plane_modulated_case(resolution, j_lo=-6, j_hi=6):
    """A 2-d modulated density, whose sine term takes the angular rule, with
    a 16-node frequency grid and a resolution x resolution spatial grid."""
    base = sf.fractional_brownian_density(0.5, dimension=2)
    density = sf.PerturbedDensity(base, sf.SineModulation(2.0, 1.0, scale=3.0))
    return (density, sf.dyadic_frequency_grid(2, j_lo, j_hi, 16),
            uniform_spatial_grid(2, resolution))


def stream_normals(master_seed, stream_id, width):
    """The first `width` normals of stream (master_seed, stream_id), from a
    fresh generator keyed by the pair."""
    key = np.array([master_seed, stream_id], dtype=np.uint64)
    return Generator(Philox(key=key)).standard_normal(width)


class TestSubstreams:
    def test_streams_are_reproducible(self):
        a = hermitian_noise(5, 42, [7, 7])
        assert np.array_equal(a[0], a[1])
        assert np.array_equal(a, hermitian_noise(5, 42, [7, 7]))

    def test_streams_are_distinct(self):
        a, b = hermitian_noise(5, 42, [7, 8])
        c = hermitian_noise(5, 43, [7])[0]
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seed_bounds(self):
        with pytest.raises(ValueError, match="master seed"):
            hermitian_noise(5, -1, [0])
        with pytest.raises(ValueError, match="stream id"):
            hermitian_noise(5, 0, [2 ** 64])


class TestHermitianNoise:
    def test_unit_second_moment(self, default_grid):
        noise = hermitian_noise(default_grid.size, 11, [3])
        assert noise.shape == (1, default_grid.size)
        assert np.isclose(np.mean(noise ** 2), 1.0, atol=0.05)

    def test_determinism_and_stream_separation(self):
        a = hermitian_noise(64, 11, [3])
        b = hermitian_noise(64, 11, [3])
        c = hermitian_noise(64, 11, [4])
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_block_rows_are_their_streams(self):
        # the reused generator must leave nothing of one row in the next,
        # including the extreme keys
        ids = [9, 3, 4, 9, 2 ** 64 - 1, 0]
        for width in (8, 5248):
            block = hermitian_noise(width, 2 ** 64 - 1, ids)
            for row, stream_id in zip(block, ids):
                expected = stream_normals(2 ** 64 - 1, stream_id, width)
                assert row.tobytes() == expected.tobytes()

    def test_stream_id_range_is_checked(self):
        with pytest.raises(ValueError, match="stream id"):
            hermitian_noise(8, 0, [1, 2 ** 64])
        with pytest.raises(ValueError, match="master seed"):
            hermitian_noise(8, -1, [1])
        # the block's keys are checked before any row is drawn, and the
        # error names the first bad id
        with pytest.raises(ValueError, match="stream id .* 18446744073709551616"):
            hermitian_noise(8, 0, [0, 5, 2 ** 64, 7])
        with pytest.raises(ValueError, match="stream id .* got -3$"):
            hermitian_noise(8, 0, [4, -3, 2 ** 64])


class TestSpectralSynthesizer:
    def test_sample_is_deterministic(self, default_grid, space_8, brownian):
        synth = SpectralSynthesizer(brownian, default_grid, space_8)
        a = synth.sample(99, 0)
        b = synth.sample(99, 0)
        assert np.array_equal(a.values, b.values)
        one_off = SpectralSynthesizer(brownian, default_grid, space_8).sample(99, 0)
        assert np.array_equal(a.values, one_off.values)

    def test_streams_give_distinct_samples(self, default_grid, space_8, brownian):
        synth = SpectralSynthesizer(brownian, default_grid, space_8)
        assert not np.array_equal(synth.sample(99, 0).values,
                                  synth.sample(99, 1).values)

    def test_sample_vanishes_at_origin(self, default_grid, space_8, brownian):
        values = SpectralSynthesizer(brownian, default_grid, space_8).sample(99, 0).values
        assert values[space_8.origin_index] == 0.0
        # a -0.0 origin would print as "-0.0" in the CSV outputs
        assert not np.signbit(values[0])

    def test_sample_metadata(self, default_grid, space_8, brownian):
        sample = SpectralSynthesizer(brownian, default_grid, space_8).sample(99, 5)
        assert sample.master_seed == 99
        assert sample.stream_id == 5
        assert sample.size == 8

    def test_zero_density_gives_zero_field(self, default_grid, space_8):
        sample = SpectralSynthesizer(ZeroDensity(1), default_grid, space_8).sample(99, 0)
        assert np.all(sample.values == 0.0)

    def test_empirical_variance_matches_the_kernel(self, default_grid, brownian):
        grid = uniform_spatial_grid(1, 2)  # points 0 and 1
        synth = SpectralSynthesizer(brownian, default_grid, grid)
        n = 4000
        values = np.array([synth.sample(7, k).values[1] for k in range(n)])
        target = covariance_matrix(brownian, [1.0], default_grid)[0, 0]
        # variance estimate has relative standard error sqrt(2/n)
        assert np.isclose(np.mean(values ** 2), target,
                          rtol=4.0 * np.sqrt(2.0 / n))
        assert abs(np.mean(values)) <= 4.0 / np.sqrt(n)

    def test_admissibility_gate(self, default_grid, space_8):
        # a band with no upper edge has no field; the gate names its term
        with pytest.raises(sf.InadmissibleDensityError, match="no upper edge"):
            SpectralSynthesizer(BandLimitedDensity(1, 0.0, np.inf), default_grid,
                                space_8)

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("hurst", [0.01, 0.03, 0.99])
    def test_extreme_hurst_is_admissible_and_draws(self, default_grid, grid_2d,
                                                   dimension, hurst):
        grid = default_grid if dimension == 1 else grid_2d
        density = sf.fractional_brownian_density(hurst, dimension)
        assert sf.check_admissible(density, grid).status == "admissible"
        space = uniform_spatial_grid(dimension, 8 if dimension == 1 else 3)
        synth = SpectralSynthesizer(density, grid, space)
        for n in (1, 20):  # circulant in d = 1, then Cholesky
            synth.prepare(n)
            block = synth.sample_block(3, range(n))
            assert block.shape == (n, space.size) and np.all(np.isfinite(block))

    def test_dimension_checks(self, default_grid, brownian):
        with pytest.raises(ValueError, match="dimension"):
            SpectralSynthesizer(brownian, default_grid, uniform_spatial_grid(2, 3))


class TestSampleBlock:
    def test_sample_is_the_one_row_block(self, default_grid, space_8, fbm_pair):
        # on fresh samplers, and on ones that prepare(n > N) sent to the
        # exact path; the exact sampler has no prepare
        perturbed, base = fbm_pair
        cert = check_domination(perturbed, base, 3.0, default_grid)
        for prepared in (False, True):
            samplers = [SpectralSynthesizer(base, default_grid, space_8),
                        CouplingSynthesizer(perturbed, base, 3.0, cert, default_grid,
                                            space_8)]
            if prepared:
                for sampler in samplers:
                    assert sampler.prepare(1000) == 1000
                assert isinstance(samplers[0].way, ExactFieldSampler)
            else:
                samplers.append(ExactFieldSampler(covariance_matrix(base, space_8,
                                                                    default_grid), space_8))
            for sampler in samplers:
                for k in (0, 5):
                    samples, rows = sampler.sample(19, k), sampler.sample_block(19, [k])
                    if isinstance(samples, FieldSample):
                        samples, rows = (samples,), (rows,)
                    for sample, row in zip(samples, rows, strict=True):
                        assert sample.values.tobytes() == row[0].tobytes()
                        assert (sample.master_seed, sample.stream_id) == (19, k)

    def test_one_sample_on_4096_points_stays_within_two_blocks(self, default_grid,
                                                                brownian):
        # one circulant row of L = 8,192: its normals, half-spectrum,
        # transform and path, and the embedding's root
        synth = SpectralSynthesizer(brownian, default_grid, uniform_spatial_grid(1, 4096))
        tracemalloc.start()
        try:
            synth.sample(3, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(synth.way, sf.synthesis._Circulant) and synth.way.width == 8192
        assert peak < 2 * sf.synthesis.BLOCK_BYTES

    @pytest.mark.parametrize("dimension,resolution", [(1, 8), (1, 300), (2, 8)])
    def test_unprepared_and_prepared_draws_agree_bitwise(self, default_grid, grid_2d,
                                                         dimension, resolution):
        # without a prepare() a sampler draws the way of n <= N: circulant
        # in d = 1, the Cholesky factor of the exact K in d = 2
        grid = default_grid if dimension == 1 else grid_2d
        density = sf.fractional_brownian_density(0.5, dimension)
        space = uniform_spatial_grid(dimension, resolution)
        unprepared = SpectralSynthesizer(density, grid, space)
        prepared = SpectralSynthesizer(density, grid, space)
        assert prepared.prepare(3) == 3
        ids = [4, 0, 17]
        assert (unprepared.sample_block(5, ids).tobytes()
                == prepared.sample_block(5, ids).tobytes())
        assert unprepared.describe() == prepared.describe()

    def test_block_matches_per_replica_samples(self, default_grid, space_8, fbm_pair):
        perturbed, base = fbm_pair
        synth = SpectralSynthesizer(base, default_grid, space_8)
        block = synth.sample_block(12, range(40))
        rows = np.array([synth.sample(12, k).values for k in range(40)])
        assert np.max(np.abs(block - rows)) <= 1e-12 * np.max(np.abs(block))
        assert not np.any(np.signbit(block[:, space_8.origin_index]))

        cert = check_domination(perturbed, base, 1.0, default_grid)
        coupler = CouplingSynthesizer(perturbed, base, 1.0, cert, default_grid, space_8)
        x1, x2, y = coupler.sample_block(12, range(5))
        assert np.array_equal(y, x1 + x2)
        for k in range(5):
            for got, row in zip(coupler.sample(12, k), (x1[k], x2[k], y[k])):
                assert np.max(np.abs(got.values - row)) <= 1e-12 * np.max(np.abs(y))

    def test_plane_modulated_blocks_are_cholesky_draws_of_the_kernel(self):
        # with no more replicas than points a 2-d modulated density is drawn
        # by the Cholesky factor of its K, bit for bit the exact sampler's
        # draw of it
        density, grid, space = plane_modulated_case(3)
        synth = SpectralSynthesizer(density, grid, space)
        assert synth.prepare(6) == 6
        assert dict(synth.describe()) == {"sampler": "cholesky", "sampler_jitter_rung": 1}
        oracle = ExactFieldSampler(covariance_matrix(density, space, grid), space)
        ids = [4, 0, 2 ** 64 - 1, 3, 3, 9]
        block = synth.sample_block(4, ids)
        assert block.tobytes() == oracle.sample_block(4, ids).tobytes()
        origin = block[:, space.origin_index]
        assert np.all(origin == 0.0) and not np.any(np.signbit(origin))
        assert np.all(block[:, 1:] != 0.0)

    def test_single_block_campaign_never_holds_the_whole_factor(self, monkeypatch):
        from specfield import synthesis, verification
        # 100 replicas on 12 x 12 points of a 2-d modulated density: one
        # block, drawn by the Cholesky factor of K; the campaign's traced
        # peak, K, its factor and the angular rule's work, stays within one
        # block
        density, grid, space = plane_modulated_case(12, j_lo=-14, j_hi=14)
        synths = []

        class Kept(SpectralSynthesizer):
            def __init__(self, *args):
                super().__init__(*args)
                synths.append(self)
        monkeypatch.setattr(verification, "SpectralSynthesizer", Kept)
        cfg = sf.MCConfig(100, 41, grid, space, radii=(0.5,))
        tracemalloc.start()
        try:
            sf.verify_anderson_shift(density, np.zeros(space.size), sf.SupNorm(), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [dict(synth.describe())["sampler"] for synth in synths] == ["cholesky"]
        assert peak < synthesis.BLOCK_BYTES


class TestPlaneLaw:
    """Draws of a 2-d modulated density against a variogram built in the
    test from the hypergeometric form of its sine term."""

    @staticmethod
    def radial_increments(block, m):
        """(radii^2, means): per row of an (n, m^2) block on an m x m grid,
        the mean of (X(x) - X(x'))^2 over the pairs whose lag is
        (a, b) grid steps, pooled by a^2 + b^2."""
        field = block.reshape(len(block), m, m)
        sums, counts = {}, {}
        for a in range(m):
            for b in range(-m + 1, m):
                if a == 0 and b <= 0:
                    continue
                ahead, behind = ((slice(b, m), slice(0, m - b)) if b >= 0
                                 else (slice(0, m + b), slice(-b, m)))
                step = field[:, a:, ahead] - field[:, :m - a, behind]
                key = a * a + b * b
                sums[key] = sums.get(key, 0.0) + np.einsum("ijk,ijk->i", step, step)
                counts[key] = counts.get(key, 0) + step[0].size
        keys = sorted(sums)
        return np.array(keys), np.stack([sums[k] / counts[k] for k in keys], axis=1)

    def test_plane_perturbed_draws_carry_the_variogram(self, grid_2d):
        # fBm H = 0.7 times (2 + sin |xi|) / 3 on 8 x 8 points: V is 2/3 of
        # h^1.4 plus the sine term of weight scale / 3, here from 2F1.
        # Every lattice radius's mean squared increment lies within the
        # Bonferroni normal quantile of a family-wise false-alarm rate of
        # 1e-3; the same draws reject the law whose sine weight is 1.2 times
        # as large (max |z| 5.9-9.0 against 4.2 at seeds 0-5; 7.3 at seed 23)
        from test_spectral import hypergeometric_variogram
        base = sf.fractional_brownian_density(0.7, 2)
        density = sf.PerturbedDensity(base, sf.SineModulation(2.0, 1.0, scale=3.0))
        space = uniform_spatial_grid(2, 8)
        synth = SpectralSynthesizer(density, grid_2d, space)
        n = 40000
        rows = synth.prepare(n)
        assert dict(synth.describe())["sampler"] == "cholesky"
        blocks = [self.radial_increments(synth.sample_block(23, range(top, min(top + rows, n))),
                                         8) for top in range(0, n, rows)]
        keys, means = blocks[0][0], np.concatenate([block for _, block in blocks])
        lags = space.spacing * np.sqrt(keys)
        se = means.std(axis=0, ddof=1) / np.sqrt(n)
        threshold = stats.norm.isf(1e-3 / (2 * len(keys)))
        for factor, accepted in ((1.0, True), (1.2, False)):
            variogram = 2.0 / 3.0 * lags ** 1.4 + hypergeometric_variogram(
                factor * base.scale / 3.0, 0.7, "sin", 1.0, lags)
            z = (means.mean(axis=0) - variogram) / se
            assert (np.max(np.abs(z)) <= threshold) == accepted


class TestLowRankFactor:
    """Campaigns with more replicas than points draw through the exact
    sampler on the kernel K of covariance_matrix: L L^T = K + jitter I."""

    @pytest.mark.parametrize("dimension,resolution", [(1, 8), (1, 64), (2, 8)])
    def test_factor_reproduces_the_kernel(self, default_grid, grid_2d, dimension,
                                          resolution):
        # the first rung's jitter, 1e-8 of max K, is far above the 1e-13
        # tolerance, so a later rung would fail this; the kernel is the
        # exact one of the power law
        grid = default_grid if dimension == 1 else grid_2d
        density = sf.fractional_brownian_density(0.7, dimension)
        space = uniform_spatial_grid(dimension, resolution)
        synth = SpectralSynthesizer(density, grid, space)
        synth.prepare(space.size + 1)
        kernel = sf.power_law_covariance_matrix(space.points, 0.7)
        assert synth.way.jitter_rung == 1
        jitter = sf.synthesis.PSD_NOISE_FACTOR * np.max(np.diag(kernel))
        factor = synth.way._factor
        assert synth.way.grid is space
        assert (np.max(np.abs(factor @ factor.T - kernel - jitter * np.eye(space.size)))
                <= 1e-13 * np.max(kernel))

    @pytest.mark.parametrize("dimension,resolution,hurst", [
        (1, 1024, 0.1), (1, 1024, 0.5), (1, 1024, 0.9), (2, 16, 0.5)])
    def test_near_singular_kernels_factor_at_the_first_rung(
            self, default_grid, grid_2d, dimension, resolution, hurst, monkeypatch):
        # off the origin, the exact K's min/max eigenvalue is 2.4e-4, 5.9e-7
        # and 4.8e-10 in d = 1 and 1.0e-4 in d = 2
        grid = default_grid if dimension == 1 else grid_2d
        density = sf.fractional_brownian_density(hurst, dimension)
        space = uniform_spatial_grid(dimension, resolution)
        attempts = []
        cholesky = np.linalg.cholesky

        def counting(matrix):
            attempts.append(len(matrix))
            return cholesky(matrix)
        monkeypatch.setattr(np.linalg, "cholesky", counting)
        synth = SpectralSynthesizer(density, grid, space)
        synth.prepare(space.size + 1)
        assert attempts == [space.size]
        block = synth.sample_block(5, range(3))
        assert np.all(block[:, 0] == 0.0) and not np.any(np.signbit(block[:, 0]))

    @pytest.mark.parametrize("dimension,resolution", [(1, 8), (2, 3)])
    def test_blocks_carry_the_kernel(self, default_grid, grid_2d, dimension, resolution):
        # every distinct second moment off the origin within the Bonferroni
        # normal quantile of a family-wise false-alarm rate of 1e-3
        grid = default_grid if dimension == 1 else grid_2d
        density = sf.fractional_brownian_density(0.5, dimension)
        space = uniform_spatial_grid(dimension, resolution)
        synth = SpectralSynthesizer(density, grid, space)
        n = 20000
        synth.prepare(n)
        block = synth.sample_block(77, range(n))
        assert np.all(block[:, 0] == 0.0) and not np.any(np.signbit(block[:, 0]))
        rows, cols = np.triu_indices(space.size, 0)
        off_origin = rows > 0
        rows, cols = rows[off_origin], cols[off_origin]
        products = block[:, rows] * block[:, cols]
        kernel = covariance_matrix(density, space.points, grid)[rows, cols]
        z = (products.mean(axis=0) - kernel) / (products.std(axis=0, ddof=1)
                                                / np.sqrt(n))
        threshold = stats.norm.isf(1e-3 / (2 * len(kernel)))
        assert np.max(np.abs(z)) <= threshold

    def test_more_replicas_than_points_switch_to_the_factor(self, default_grid,
                                                            space_8, brownian):
        synth = SpectralSynthesizer(brownian, default_grid, space_8)
        assert synth.prepare(8) == 8
        assert isinstance(synth.way, sf.synthesis._Circulant)
        assert synth.prepare(9) == 9
        way = synth.way
        assert way._factor.shape == (8, 8) and way.scratch == 0
        assert synth.describe() == way.describe() == (
            ("sampler", "cholesky"), ("sampler_jitter_rung", way.jitter_rung))
        assert synth.prepare(8) == 8
        assert isinstance(synth.way, sf.synthesis._Circulant)

    def test_long_path_campaigns_draw_by_circulant_embedding(self, default_grid,
                                                             brownian):
        # estimate-hurst on 4,096 points and 100 replicas: L = 8,192, and a
        # block counts each row's 8,192 normals, 8,194 floats of spectrum,
        # 8,192 of transform and 4,096 of path
        synth = SpectralSynthesizer(brownian, default_grid,
                                    uniform_spatial_grid(1, 4096))
        rows = synth.prepare(100)
        assert rows == sf.synthesis.block_rows(3 * 8192 + 2 + 4096) == 36
        assert (synth.way.width, synth.way.scratch) == (8192, 2 * 8192 + 2)
        assert dict(synth.describe())["sampler"] == "circulant"


class TestFieldSampleValidation:
    def test_rejects_wrong_shape(self, space_8):
        with pytest.raises(ValueError, match="shape"):
            FieldSample(space_8, np.zeros(5), 0, 0)
        with pytest.raises(ValueError, match="shape"):
            FieldSample(space_8, np.zeros((1, 8)), 0, 0)

    def test_rejects_nonzero_origin(self, space_8):
        values = np.ones(8)
        with pytest.raises(ValueError, match="origin"):
            FieldSample(space_8, values, 0, 0)
        # a -0.0 would print as "-0.0" in the CSV outputs
        values[0] = -0.0
        with pytest.raises(ValueError, match="origin"):
            FieldSample(space_8, values, 0, 0)

    def test_rejects_nonfinite(self, space_8):
        values = np.zeros(8)
        values[3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            FieldSample(space_8, values, 0, 0)


# the grid {0, 1} of the 2 x 2 arrays the exact sampler is handed below
PAIR = uniform_spatial_grid(1, 2)


class TestExactSampler:
    def test_zero_matrix_gives_zero_sample(self):
        sample = ExactFieldSampler(np.zeros((2, 2)), PAIR).sample(3, 0)
        assert np.all(sample.values == 0.0)

    def test_single_point_distribution(self):
        variance = 2.5
        sampler = ExactFieldSampler(np.diag([0.0, variance]), PAIR)
        n = 2000
        draws = sampler.sample_block(5, range(n))[:, 1]
        assert abs(np.mean(draws)) <= 4.0 * np.sqrt(variance / n)
        assert np.isclose(np.var(draws), variance, rtol=4.0 * np.sqrt(2.0 / n))

    def test_determinism(self, default_grid, space_8, brownian):
        matrix = covariance_matrix(brownian, space_8.points, default_grid)
        a = ExactFieldSampler(matrix, space_8).sample(17, 2)
        b = ExactFieldSampler(matrix, space_8).sample(17, 2)
        assert np.array_equal(a.values, b.values)
        assert (a.master_seed, a.stream_id) == (17, 2)

    def test_block_rows_are_the_factor_times_their_streams(self, default_grid, space_8,
                                                           brownian):
        sampler = ExactFieldSampler(covariance_matrix(brownian, space_8, default_grid),
                                    space_8)
        ids = [5, 0, 17, 2 ** 64 - 1]
        block = sampler.sample_block(11, ids)
        for row, stream_id in zip(block, ids):
            expected = sampler._factor @ stream_normals(11, stream_id, 8)
            expected[0] = 0.0
            assert np.max(np.abs(row - expected)) <= 1e-14 * np.max(np.abs(expected))
            # one row is one matrix-vector product, bit for bit
            one = sampler.sample_block(11, [stream_id])[0]
            assert one.tobytes() == expected.tobytes()
            assert sampler.sample(11, stream_id).values.tobytes() == one.tobytes()
        assert not np.any(np.signbit(block[:, 0]))

    def test_origin_forced_to_zero(self, default_grid, space_8, brownian):
        # the jittered factor gives the origin a ~1e-4 amplitude; the sampler
        # must pin it back to exactly zero
        matrix = covariance_matrix(brownian, space_8.points, default_grid)
        sample = ExactFieldSampler(matrix, space_8).sample(17, 2)
        assert sample.values[0] == 0.0

    def test_grid_point_mismatch(self, default_grid, space_8, brownian):
        # an array carries no points, so only a grid of another size is caught
        matrix = covariance_matrix(brownian, space_8.points, default_grid)
        other = uniform_spatial_grid(1, 9)
        with pytest.raises(ValueError, match="9 grid points"):
            ExactFieldSampler(matrix, other)

    def test_empirical_covariance_matches_matrix(self, default_grid, brownian):
        points = uniform_spatial_grid(1, 3)
        matrix = covariance_matrix(brownian, points, default_grid)
        sampler = ExactFieldSampler(matrix, points)
        n = 3000
        rows = sampler.sample_block(23, range(n))
        empirical = rows.T @ rows / n
        se = np.sqrt(2.0 / n) * np.max(matrix)
        assert np.allclose(empirical, matrix, atol=4.0 * se)


class TestJitterLadder:
    def sampler(self, defect):
        # eigenvalues 2 + defect and -defect: indefinite by exactly `defect`
        entries = np.array([[1.0, 1.0 + defect], [1.0 + defect, 1.0]])
        return ExactFieldSampler(entries, PAIR)

    def test_first_rung_absorbs_tiny_defect(self):
        sample = self.sampler(5e-9).sample(1, 0)
        assert np.all(np.isfinite(sample.values))

    def test_escalation_absorbs_moderate_defect(self):
        # needs the 8x rung: base jitter is 1e-8 * max diagonal = 1e-8
        sample = self.sampler(5e-8).sample(1, 0)
        assert np.all(np.isfinite(sample.values))

    def test_genuinely_indefinite_matrix_is_rejected(self):
        # the error names the size and the largest jitter tried, 8e-8
        with pytest.raises(IndefiniteMatrixError,
                           match="2 x 2 .* positive semidefinite within jitter 8.000e-08"):
            self.sampler(1e-5)


class TestCoupling:
    def test_streams_and_linearity(self, default_grid, space_8, fbm_pair):
        perturbed, base = fbm_pair
        cert = check_domination(perturbed, base, 1.0, default_grid)
        coupler = CouplingSynthesizer(perturbed, base, 1.0, cert, default_grid,
                                      space_8)
        x1, x2, y_rep = coupler.sample(31, 3)
        assert (x1.stream_id, x2.stream_id, y_rep.stream_id) == (3, 3, 3)
        assert np.array_equal(y_rep.values, x1.values + x2.values)

    def test_one_off_matches_synthesizer(self, default_grid, space_8, fbm_pair):
        perturbed, base = fbm_pair
        cert = check_domination(perturbed, base, 1.0, default_grid)
        coupler = CouplingSynthesizer(perturbed, base, 1.0, cert, default_grid,
                                      space_8)
        a = coupler.sample(31, 2)[2]
        b = CouplingSynthesizer(perturbed, base, 1.0, cert, default_grid,
                                space_8).sample(31, 2)[2]
        assert np.array_equal(a.values, b.values)

    def test_identical_densities_make_residual_vanish(self, default_grid,
                                                      space_8, brownian):
        cert = check_domination(brownian, brownian, 1.0, default_grid)
        x1, x2, y_rep = CouplingSynthesizer(brownian, brownian, 1.0, cert,
                                            default_grid, space_8).sample(31, 0)
        assert np.all(x2.values == 0.0)
        assert np.array_equal(y_rep.values, x1.values)

    def test_zero_dominated_density_passes_through(self, default_grid, space_8,
                                                   brownian):
        zero = ZeroDensity(1)
        cert = check_domination(zero, brownian, 1.0, default_grid)
        x1, x2, y_rep = CouplingSynthesizer(zero, brownian, 1.0, cert,
                                            default_grid, space_8).sample(31, 0)
        assert np.all(x1.values == 0.0)
        assert np.array_equal(y_rep.values, x2.values)

    def test_constant_three_variance(self, default_grid, space_8, fbm_pair):
        # y = x1/sqrt(3) + x2 must still carry the dominating law
        perturbed, base = fbm_pair
        cert = check_domination(perturbed, base, 3.0, default_grid)
        coupler = CouplingSynthesizer(perturbed, base, 3.0, cert, default_grid,
                                      space_8)
        n = 1500
        tail = coupler.sample_block(13, range(n))[2][:, -1]
        target = covariance_matrix(base, [1.0], default_grid)[0, 0]
        assert np.isclose(np.mean(tail ** 2), target, rtol=4.0 * np.sqrt(2.0 / n))

    def test_sample_is_the_one_row_block(self, default_grid, space_8, fbm_pair):
        perturbed, base = fbm_pair
        cert = check_domination(perturbed, base, 3.0, default_grid)
        coupler = CouplingSynthesizer(perturbed, base, 3.0, cert, default_grid,
                                      space_8)
        for k in (0, 4):
            samples = coupler.sample(17, k)
            rows = coupler.sample_block(17, [k])
            for sample, row in zip(samples, rows):
                assert sample.values.tobytes() == row[0].tobytes()
                assert (sample.master_seed, sample.stream_id) == (17, k)
            x1, x2, y_rep = (sample.values for sample in samples)
            assert np.array_equal(y_rep, 3.0 ** -0.5 * x1 + x2)

    def test_one_noise_draw_per_coupled_block(self, default_grid, space_8, fbm_pair,
                                              monkeypatch):
        # each block, and each one-replicate sample, sets up one stream per
        # replicate and draws one row of 2W normals from it, W the width of
        # the way the last prepare() chose
        perturbed, base = fbm_pair
        cert = check_domination(perturbed, base, 1.0, default_grid)
        coupler = CouplingSynthesizer(perturbed, base, 1.0, cert, default_grid, space_8)
        draws = []
        draw = sf.synthesis.hermitian_noise
        monkeypatch.setattr(sf.synthesis, "hermitian_noise",
                            lambda width, seed, ids: draws.append((len(ids), width))
                            or draw(width, seed, ids))
        coupler.sample_block(3, range(5))
        coupler.sample(3, 0)
        assert coupler.prepare(300) == 300
        coupler.sample_block(3, range(300))
        coupler.sample(3, 0)
        # both fields embed at L = 16 on 8 points; the Cholesky way takes N
        circulant, exact = 16 + 16, 2 * space_8.size
        assert draws == [(5, circulant), (1, circulant), (300, exact), (1, exact)]

    def test_coupled_block_peak_stays_below_two_draws(self, default_grid, fbm_pair):
        # a coupling-law-sized campaign: 64 points, 5,000 replicates, exact.
        # Drawing x1 and x2 from streams 2k and 2k+1 in one 5,000-row block
        # peaked at 8,159,672 traced bytes; the coupled row is wider, so its
        # blocks are sized by the whole working row to stay below that
        perturbed, base = fbm_pair
        cert = check_domination(perturbed, base, 1.0, default_grid)
        coupler = CouplingSynthesizer(perturbed, base, 1.0, cert, default_grid,
                                      uniform_spatial_grid(1, 64))
        rows = coupler.prepare(5000)
        assert rows == 3276
        tracemalloc.start()
        try:
            coupler.sample_block(9, range(rows))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8_159_672

    def test_certificate_from_another_grid_is_rejected(self):
        # the pair is dominated on j = -5..5 but not on j = -5..12, where the
        # clamp of the residual would silently change the law
        dominated = BandLimitedDensity(1, 100.0, 200.0)
        dominating = BandLimitedDensity(1, 0.0, 150.0)
        checked = sf.dyadic_frequency_grid(1, -5, 5, 16)
        sampled = sf.dyadic_frequency_grid(1, -5, 12, 16)
        cert = check_domination(dominated, dominating, 1.0, checked)
        assert cert.holds
        assert not check_domination(dominated, dominating, 1.0, sampled).holds
        with pytest.raises(ValueError, match="certificate was checked on"):
            CouplingSynthesizer(dominated, dominating, 1.0, cert, sampled,
                                uniform_spatial_grid(1, 4))


def fgn_covariance(hurst, points, lags):
    """Covariance at lags k of the increments of unit-variance fBm on a
    uniform grid of `points` points (fractional Gaussian noise)."""
    k = np.abs(np.asarray(lags, dtype=float))
    h2 = 2 * hurst
    return 0.5 * ((k + 1) ** h2 + np.abs(k - 1) ** h2 - 2 * k ** h2) / (points - 1) ** h2


class TestCirculantEmbedding:
    """1-d campaigns of no more replicas than points draw their increments by
    circulant embedding of the exact variogram."""

    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_increment_covariance_is_the_exact_one(self, default_grid, hurst):
        # at 256 points the sampler's law is read off the images of the unit
        # noise vectors, as it is linear in its noise; at 4,096 points off
        # the embedding's own eigenvalues, the root squared over the
        # variance of its normals
        density = sf.fractional_brownian_density(hurst)
        for points in (256, 4096):
            synth = SpectralSynthesizer(density, default_grid,
                                        uniform_spatial_grid(1, points))
            way = synth.way
            assert isinstance(way, sf.synthesis._Circulant) and way.min_ratio >= 0.0
            size = way.width
            lags = np.arange(points - 1)
            c0 = fgn_covariance(hurst, points, 0)
            if points == 256:
                increments = np.diff(way._synthesize(np.eye(size)), axis=1)
                expected = fgn_covariance(hurst, points, lags[:, None] - lags[None, :])
                assert np.max(np.abs(increments.T @ increments - expected)) <= 1e-6 * c0
            variance = np.full(size // 2 + 1, size / 2)
            variance[[0, -1]] = size
            row = np.fft.irfft(way._root ** 2 / variance, n=size)[:points - 1]
            assert np.max(np.abs(row - fgn_covariance(hurst, points, lags))) <= 1e-6 * c0

    def test_block_rows_are_the_one_row_blocks_bitwise(self, default_grid, fbm_pair):
        synth = SpectralSynthesizer(fbm_pair[0], default_grid, uniform_spatial_grid(1, 300))
        ids = [7, 0, 2 ** 64 - 1, 3, 3]
        block = synth.sample_block(12, ids)
        assert dict(synth.describe())["sampler"] == "circulant"
        for row, k in zip(block, ids):
            assert row.tobytes() == synth.sample_block(12, [k])[0].tobytes()
        assert np.all(block[:, 0] == 0.0) and not np.any(np.signbit(block[:, 0]))

    def test_first_size_is_doubled_when_it_does_not_embed(self, default_grid, fbm_pair):
        # the shipped perturbed density at H = 1/2 dips below zero at
        # L = 8,192 on 4,096 points and embeds at 16,384
        way = sf.synthesis._Circulant.embed(fbm_pair[0], uniform_spatial_grid(1, 4096))
        assert way.width == 16384 and way.min_ratio > 0.3

    def test_negative_embeddings_fall_back_to_cholesky(self):
        # the residual (1 - sin r) f / 3 of H = 0.1 is negative at L = 512
        # and 1,024 on 256 points; its exact K factors at the first rung.
        # (The pair's admissibility is settled on j = -10..10, not on the
        # default grid.)
        grid = sf.dyadic_frequency_grid(1, -10, 10, 32)
        base = sf.fractional_brownian_density(0.1)
        perturbed = sf.PerturbedDensity(base, sf.SineModulation(2.0, 1.0, scale=3.0))
        cert = check_domination(perturbed, base, 1.0, grid)
        space = uniform_spatial_grid(1, 256)
        coupler = CouplingSynthesizer(perturbed, base, 1.0, cert, grid, space)
        assert coupler.prepare(100) == 100
        (_, first), (_, second) = coupler.describe()
        assert dict(first)["sampler"] == "circulant"
        assert dict(second) == {"sampler": "cholesky", "sampler_jitter_rung": 1}
        assert coupler._pair.second.way.width == 256

    def test_shipped_residual_at_4096_points_reaches_the_fallback(
            self, default_grid, fbm_pair, monkeypatch):
        # at 4,096 points the shipped residual embeds at L = 16,384 with
        # min eigenvalue / max 9.9e-5; a floor above that sends it to the
        # Cholesky way while x stays circulant, and the coupled row takes
        # 16,384 + 4,096 normals
        perturbed, base = fbm_pair
        monkeypatch.setattr(sf.synthesis, "EMBEDDING_FLOOR", 1e-4)
        cert = check_domination(perturbed, base, 1.0, default_grid)
        space = uniform_spatial_grid(1, 4096)
        coupler = CouplingSynthesizer(perturbed, base, 1.0, cert, default_grid, space)
        draws = []
        draw = sf.synthesis.hermitian_noise
        monkeypatch.setattr(sf.synthesis, "hermitian_noise",
                            lambda width, seed, ids: draws.append((len(ids), width))
                            or draw(width, seed, ids))
        rows = coupler.prepare(100)
        (_, first), (_, second) = coupler.describe()
        assert (dict(first)["sampler"], dict(first)["sampler_size"]) == ("circulant", 16384)
        assert dict(second)["sampler"] == "cholesky"
        x1, x2, y = coupler.sample_block(4, range(2))
        assert draws == [(2, 16384 + 4096)]
        assert rows == sf.synthesis.block_rows(16384 + 4096 + 3 * 4096 + 2 * 16384 + 2)
        assert np.all(y[:, 0] == 0.0) and np.all(np.isfinite(y))
