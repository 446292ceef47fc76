import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specfield as sf
from specfield import (BandLimitedDensity, CouplingSynthesizer, ExactFieldSampler,
                       InadmissibleDensityError, SpectralSynthesizer,
                       check_domination,
                       covariance_matrix, difference_density, dyadic_frequency_grid,
                       hermitian_noise, power_law_covariance_matrix, uniform_spatial_grid)
from specfield.synthesis import PSD_NOISE_FACTOR

BROWNIAN_POINTS = (0.25, 0.5, 0.75, 1.0)


def kernel(density, x, y, grid):
    """K(x, y) as an entry of covariance_matrix (one point when x == y)."""
    points = [x] if np.array_equal(x, y) else [x, y]
    return covariance_matrix(density, points, grid)[0, -1]


def psd_floor(matrix):
    """How far below zero a covariance's eigenvalues may dip."""
    return PSD_NOISE_FACTOR * np.max(np.diag(matrix))


# the points of the 2 x 2 arrays the exact sampler is handed below
PAIR = uniform_spatial_grid(1, 2)


class TestBrownianOracle:
    def test_increments_match_min(self, default_grid, brownian):
        # closed form: K(x, x') = min(x, x') for x, x' >= 0
        matrix = covariance_matrix(brownian, BROWNIAN_POINTS, default_grid)
        expected = np.minimum.outer(BROWNIAN_POINTS, BROWNIAN_POINTS)
        assert np.allclose(matrix, expected, rtol=1e-12, atol=0.0)

    def test_coarse_and_fine_frequency_grids_agree_bitwise(self, brownian):
        # K is read off the variogram; the frequency grid only gates
        # admissibility, so refining it changes no bit
        coarse = dyadic_frequency_grid(1, -9, 9, 8)
        fine = dyadic_frequency_grid(1, -10, 10, 16)
        assert (covariance_matrix(brownian, BROWNIAN_POINTS, coarse).tobytes()
                == covariance_matrix(brownian, BROWNIAN_POINTS, fine).tobytes())


class TestPowerLawOracle:
    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    def test_matrix_matches_closed_form(self, default_grid, hurst):
        f = sf.fractional_brownian_density(hurst)
        points = [0.5, 1.0]
        matrix = covariance_matrix(f, points, default_grid)
        closed = power_law_covariance_matrix(points, hurst)
        assert np.allclose(matrix, closed, rtol=1e-12, atol=0.0)

    def test_closed_form_diagonal_is_the_variogram(self):
        points = np.array([0.3, 0.6, 1.0])
        matrix = power_law_covariance_matrix(points, 0.4)
        assert np.allclose(np.diag(matrix), points ** 0.8, rtol=1e-12)

    def test_increment_closed_form_scalar_and_batch(self):
        # at H = 1/2 every entry is the Brownian min(x, x'), one pair or many
        pair = power_law_covariance_matrix([0.5, 1.0], 0.5)
        assert np.isclose(pair[0, 1], 0.5, rtol=1e-12)
        batch = power_law_covariance_matrix(BROWNIAN_POINTS, 0.5)
        assert np.allclose(batch,
                           np.minimum.outer(BROWNIAN_POINTS, BROWNIAN_POINTS),
                           rtol=1e-12)


class TestKernelStructure:
    @given(x=st.floats(-2.0, 2.0), y=st.floats(-2.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_stationary_increment_identity(self, default_grid, x, y):
        # K(x, x') = (v(x) + v(x') - v(x - x'))/2 with v(u) = K(u, u): K is
        # built from the variogram, so the identity holds to roundoff
        f = sf.fractional_brownian_density(0.35)
        points = np.unique([x, y, x - y])
        matrix = covariance_matrix(f, points, default_grid)
        at = {u: int(np.flatnonzero(points == u)[0]) for u in (x, y, x - y)}
        k = matrix[at[x], at[y]]
        combined = 0.5 * (matrix[at[x], at[x]] + matrix[at[y], at[y]]
                          - matrix[at[x - y], at[x - y]])
        assert np.isclose(k, combined, rtol=1e-9, atol=1e-9)

    def test_value_at_origin_is_zero(self, default_grid, brownian):
        assert kernel(brownian, 0.0, 0.7, default_grid) == 0.0
        assert kernel(brownian, 0.0, 0.0, default_grid) == 0.0

    def test_admissibility_gate(self, default_grid):
        # a band with no upper edge has no field; the gate names its term
        with pytest.raises(InadmissibleDensityError, match="no upper edge"):
            covariance_matrix(BandLimitedDensity(1, 0.0, np.inf), [0.5], default_grid)

    def test_dimension_mismatch(self, default_grid):
        f2 = sf.fractional_brownian_density(0.5, dimension=2)
        with pytest.raises(ValueError):
            covariance_matrix(f2, [0.5], default_grid)


class TestCovarianceMatrix:
    def test_matrix_is_exactly_symmetric(self, default_grid, brownian):
        matrix = covariance_matrix(brownian, np.linspace(0, 1, 9), default_grid)
        assert np.array_equal(matrix, matrix.T)

    def test_origin_row_exactly_zero(self, default_grid, brownian):
        # rows follow the points, so the origin's are row and column 0
        matrix = covariance_matrix(brownian, np.linspace(0, 1, 9), default_grid)
        assert np.all(matrix[0] == 0.0)
        assert np.all(matrix[:, 0] == 0.0)

    def test_eigenvalue_floor(self, default_grid, brownian):
        for density, points in [(brownian, np.linspace(0, 1, 8)),
                                (sf.fractional_brownian_density(0.7),
                                 np.linspace(0, 1, 16))]:
            matrix = covariance_matrix(density, points, default_grid)
            assert np.linalg.eigvalsh(matrix)[0] >= -psd_floor(matrix)

    def test_matches_pointwise_increments(self, default_grid, brownian):
        points = [0.25, 0.5, 1.0]
        matrix = covariance_matrix(brownian, points, default_grid)
        for i, x in enumerate(points):
            for j, y in enumerate(points):
                expected = kernel(brownian, x, y, default_grid)
                assert np.isclose(matrix[i, j], expected, rtol=1e-12,
                                  atol=1e-15)

    def test_rejects_duplicate_points(self, default_grid, grid_2d):
        def on_grid(points):
            dimension = points.shape[1]
            return covariance_matrix(sf.fractional_brownian_density(0.5, dimension),
                                     points, default_grid if dimension == 1 else grid_2d)

        def closed_form(points):
            return power_law_covariance_matrix(points, 0.5)
        # a 2-d duplicate that is not next to its twin in input order
        plane = np.array([[0.5, 0.25], [0.25, 0.5], [0.5, 0.5], [0.5, 0.25]])
        for matrix in (on_grid, closed_form):
            with pytest.raises(ValueError, match="distinct"):
                matrix(np.array([[0.5], [0.5]]))
            # points compare as floats: -0.0 is 0.0
            with pytest.raises(ValueError, match="distinct"):
                matrix(np.array([[-0.0], [0.0]]))
            with pytest.raises(ValueError, match="distinct"):
                matrix(plane)
            assert matrix(plane[:3]).shape == (3, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_points(self, default_grid, bad):
        density = sf.fractional_brownian_density(0.5)
        for points in ([0.25, bad, 1.0], [[0.25], [bad]]):
            with pytest.raises(ValueError, match="points must be finite"):
                covariance_matrix(density, points, default_grid)
            with pytest.raises(ValueError, match="points must be finite"):
                power_law_covariance_matrix(points, 0.5)

    # the exact sampler is where a caller's own array enters, so it checks
    # what the covariance functions guarantee by construction

    def test_rejects_asymmetric_entries(self):
        entries = np.array([[1.0, 0.2], [0.200001, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            ExactFieldSampler(entries, PAIR)

    def test_rejects_nonfinite_entries(self):
        entries = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            ExactFieldSampler(entries, PAIR)

    def test_rejects_negative_diagonal(self):
        entries = np.array([[-1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="diagonal"):
            ExactFieldSampler(entries, PAIR)

    def test_shape_mismatch(self):
        for entries in (np.eye(3), np.ones((2, 3)), np.ones(2)):
            with pytest.raises(ValueError, match="shape"):
                ExactFieldSampler(entries, PAIR)


def perturbed(hurst, dimension):
    """The base density times (2 + sin |xi|) / 3: in d = 2 its sine term
    takes the angular rule."""
    return sf.PerturbedDensity(sf.fractional_brownian_density(hurst, dimension),
                               sf.SineModulation(2.0, 1.0, scale=3.0))


class TestLagGram:
    """K is read off the variogram at the lags of its pairs: on a grid from
    a table of the distinct squared lag radii, elsewhere pair by pair."""

    @pytest.mark.parametrize("dimension,resolution", [(1, 8), (1, 300), (2, 8)])
    def test_exactly_symmetric_with_a_positive_zero_origin(self, default_grid, grid_2d,
                                                          dimension, resolution):
        grid = default_grid if dimension == 1 else grid_2d
        space = uniform_spatial_grid(dimension, resolution)
        for density in (sf.fractional_brownian_density(0.3, dimension),
                        perturbed(0.3, dimension)):
            gram = covariance_matrix(density, space, grid)
            assert np.array_equal(gram, gram.T)
            for origin in (gram[0], gram[:, 0]):
                assert np.all(origin == 0.0) and not np.any(np.signbit(origin))

    @pytest.mark.parametrize("dimension,resolution", [(1, 8), (2, 3), (2, 8)])
    def test_every_entry_is_the_variogram_identity(self, default_grid, grid_2d,
                                                   dimension, resolution):
        # pair by pair from spectral.variogram, the table's entries bit for bit;
        # on a grid only d = 2 takes the table
        grid = default_grid if dimension == 1 else grid_2d
        points = uniform_spatial_grid(dimension, resolution).points
        assert (sf.covariance._lag_codes(points) is None) == (dimension == 1)
        density = perturbed(0.7, dimension)
        at = sf.spectral.variogram(density, points)
        lags = (points[:, None] - points[None]).reshape(-1, dimension)
        between = sf.spectral.variogram(density, lags).reshape(len(points), -1)
        upper = np.triu(0.5 * (at[:, None] + at[None, :] - between))
        expected = upper + np.triu(upper, 1).T
        assert covariance_matrix(density, points, grid).tobytes() == expected.tobytes()

    def test_does_not_depend_on_the_row_blocks(self, grid_2d, monkeypatch):
        # 8 x 8 points in blocks of 64 rows or of 1, through the table and
        # pair by pair
        density = perturbed(0.3, 2)
        space = uniform_spatial_grid(2, 8)
        grams = []
        for entries in (1 << 15, 1):
            monkeypatch.setattr(sf.covariance, "GRAM_BLOCK_ENTRIES", entries)
            grams.append(covariance_matrix(density, space, grid_2d))
            monkeypatch.setattr(sf.covariance, "_lag_codes", lambda points: None)
            grams.append(covariance_matrix(density, space, grid_2d))
            monkeypatch.undo()
        assert all(gram.tobytes() == grams[0].tobytes() for gram in grams)

    def test_plane_grid_workspace_is_small(self, grid_2d):
        for density in (sf.fractional_brownian_density(0.5, 2), perturbed(0.5, 2)):
            space = uniform_spatial_grid(2, 8)
            covariance_matrix(density, space, grid_2d)  # rules and caches built
            tracemalloc.start()
            try:
                gram = covariance_matrix(density, space, grid_2d)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= gram.nbytes + (3 << 20)

    def test_4096_points_hold_the_gram_and_two_blocks(self, default_grid, grid_2d):
        # 4,096 points pair by pair in d = 1 and from the table in d = 2
        for density, space, grid in (
                (sf.fractional_brownian_density(0.7), uniform_spatial_grid(1, 4096),
                 default_grid),
                (perturbed(0.5, 2), uniform_spatial_grid(2, 64), grid_2d)):
            tracemalloc.start()
            try:
                gram = covariance_matrix(density, space, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= gram.nbytes + 2 * sf.synthesis.BLOCK_BYTES
            assert gram[0, 0] == 0.0 and np.all(np.diag(gram)[1:] > 0.0)


class TestCouplingKernel:
    """The kernel identity behind the coupling: K_Y = K_X / C + K_residual,
    with x1 and the residual mapped by their own synthesizers from the two
    disjoint halves of one stream's row."""

    def halves(self, coupler, seed, ids):
        """The two parts of the coupled rows of the streams, W1 and W2
        normals wide for the ways the two fields chose."""
        width = coupler._pair.first.way.width
        noise = hermitian_noise(width + coupler._pair.second.way.width, seed, ids)
        return noise[:, :width], noise[:, width:]

    def make_coupler(self, grid, fx, fy, constant=1.0):
        cert = check_domination(fx, fy, constant, grid)
        return CouplingSynthesizer(fx, fy, constant, cert, grid,
                                   uniform_spatial_grid(1, 8))

    def test_requires_certificate(self, default_grid, fbm_pair):
        perturbed, base = fbm_pair
        with pytest.raises(ValueError, match="certificate"):
            CouplingSynthesizer(perturbed, base, 1.0, None, default_grid,
                                uniform_spatial_grid(1, 8))

    def test_full_components_sum_the_two_kernels(self, default_grid, fbm_pair):
        perturbed, base = fbm_pair
        points = uniform_spatial_grid(1, 8).points
        k_y = covariance_matrix(base, points, default_grid)
        k_x = covariance_matrix(perturbed, points, default_grid)
        for constant in (1.0, 3.0):
            cert = check_domination(perturbed, base, constant, default_grid)
            residual = difference_density(base, perturbed, constant, cert)
            k_res = covariance_matrix(residual, points, default_grid)
            assert (np.max(np.abs(k_y - (k_x / constant + k_res)))
                    <= 1e-12 * np.max(np.abs(k_y)))

    def test_identical_densities_reproduce_dominating_kernel(self, default_grid,
                                                             brownian):
        cert = check_domination(brownian, brownian, 1.0, default_grid)
        residual = difference_density(brownian, brownian, 1.0, cert)
        points = uniform_spatial_grid(1, 8).points
        assert not np.any(covariance_matrix(residual, points, default_grid))

    def test_first_component_reduces_to_dominated_kernel(self, default_grid,
                                                         fbm_pair):
        # x1 is the f_X synthesizer's map of the first half of stream k's row,
        # whose normals are the first ones of stream k
        perturbed, base = fbm_pair
        coupler = self.make_coupler(default_grid, perturbed, base)
        x1 = coupler.sample_block(5, range(4))[0]
        direct = SpectralSynthesizer(perturbed, default_grid, coupler.spatial_grid)
        first, _ = self.halves(coupler, 5, range(4))
        assert np.array_equal(first, hermitian_noise(direct.way.width, 5, range(4)))
        assert x1.tobytes() == direct.way._synthesize(first).tobytes()

    def test_orthogonal_components_give_zero(self, default_grid, fbm_pair):
        # x2 is the residual synthesizer's map of the second half of stream
        # k's row, which never meets the first half that x1 reads, so the
        # cross kernel vanishes
        perturbed, base = fbm_pair
        coupler = self.make_coupler(default_grid, perturbed, base, 3.0)
        x2 = coupler.sample_block(5, range(4))[1]
        residual = difference_density(base, perturbed, 3.0, coupler.certificate)
        direct = SpectralSynthesizer(residual, default_grid, coupler.spatial_grid)
        _, second = self.halves(coupler, 5, range(4))
        assert x2.tobytes() == direct.way._synthesize(second).tobytes()
        streams = [sample.stream_id for sample in coupler.sample(5, 2)[:2]]
        assert streams == [2, 2]

    def test_extended_kernel_is_positive_semidefinite(self, default_grid,
                                                      fbm_pair):
        perturbed, base = fbm_pair
        points = uniform_spatial_grid(1, 8).points
        for constant in (1.0, 3.0):
            cert = check_domination(perturbed, base, constant, default_grid)
            residual = difference_density(base, perturbed, constant, cert)
            matrix = covariance_matrix(residual, points, default_grid)
            assert np.linalg.eigvalsh(matrix)[0] >= -psd_floor(matrix)


class TestPlaneKernel:
    def test_variance_at_unit_vectors_matches(self, grid_2d):
        f = sf.fractional_brownian_density(0.5, dimension=2)
        v1, v2 = np.diag(covariance_matrix(f, [(1.0, 0.0), (0.0, 1.0)],
                                           grid_2d))
        # isotropy: V depends on |h| alone
        assert np.isclose(v1, v2, rtol=1e-6)

    def test_matrix_on_square_grid(self, grid_2d):
        f = sf.fractional_brownian_density(0.5, dimension=2)
        pts = sf.uniform_spatial_grid(2, 3).points
        matrix = covariance_matrix(f, pts, grid_2d)
        assert matrix.shape == (9, 9)
        assert np.array_equal(matrix, matrix.T)
        assert np.linalg.eigvalsh(matrix)[0] >= -psd_floor(matrix)


class TestExactKernel:
    """K from the closed-form variogram, on a grid and on a point list."""

    @pytest.mark.parametrize("dimension,resolution", [(1, 8), (1, 300), (2, 8)])
    def test_grid_and_point_list_agree_bitwise(self, default_grid, grid_2d, fbm_pair,
                                               dimension, resolution):
        # so a caller that hands over the points prices what the grid runs
        grid = default_grid if dimension == 1 else grid_2d
        space = uniform_spatial_grid(dimension, resolution)
        densities = [sf.fractional_brownian_density(0.3, dimension)]
        densities += list(fbm_pair) if dimension == 1 else [
            perturbed(0.3, 2), BandLimitedDensity(2, 0.5, 64.0),
            sf.PerturbedDensity(BandLimitedDensity(2, 0.5, 8.0), sf.SineModulation(1.0, 1.0))]
        for density in densities:
            on_grid = covariance_matrix(density, space, grid)
            listed = covariance_matrix(density, space.points, grid)
            assert on_grid.tobytes() == listed.tobytes()
            assert np.array_equal(on_grid, on_grid.T)
            for origin in (on_grid[0], on_grid[:, 0]):
                assert np.all(origin == 0.0) and not np.any(np.signbit(origin))

    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_kernel_at_eight_points_is_the_closed_form(self, default_grid, space_8,
                                                       hurst):
        x = space_8.points[:, 0]
        h2 = 2 * hurst
        closed = 0.5 * (x[:, None] ** h2 + x[None, :] ** h2
                        - np.abs(x[:, None] - x[None, :]) ** h2)
        kernel = covariance_matrix(sf.fractional_brownian_density(hurst), space_8,
                                   default_grid)
        assert np.max(np.abs(kernel - closed)) <= 1e-12 * np.max(closed)

    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
    def test_plane_kernel_does_not_depend_on_the_frequency_grid(self, grid_2d, hurst):
        # the grid gates admissibility only: a coarser one gives the same K
        space = uniform_spatial_grid(2, 4)
        coarse = dyadic_frequency_grid(2, -12, 12, 8)
        for density in (perturbed(hurst, 2), BandLimitedDensity(2, 0.5, 64.0)):
            assert (covariance_matrix(density, space, grid_2d).tobytes()
                    == covariance_matrix(density, space, coarse).tobytes())
