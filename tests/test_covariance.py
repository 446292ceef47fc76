import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specfield as sf
from specfield import (CouplingSynthesizer, ExactFieldSampler, InadmissibleDensityError,
                       PowerLawDensity, SpectralSynthesizer, check_domination,
                       covariance_matrix, difference_density, dyadic_frequency_grid,
                       hermitian_noise, power_law_covariance_matrix, uniform_spatial_grid)
from specfield.covariance import PSD_NOISE_FACTOR

BROWNIAN_POINTS = (0.25, 0.5, 0.75, 1.0)


def kernel(density, x, y, grid):
    """K(x, y) as an entry of covariance_matrix (one point when x == y)."""
    points = [x] if np.array_equal(x, y) else [x, y]
    return covariance_matrix(density, points, grid)[0, -1]


def psd_floor(matrix):
    """How far below zero a quadrature covariance's eigenvalues may dip."""
    return PSD_NOISE_FACTOR * np.max(np.diag(matrix))


# the points of the 2 x 2 arrays the exact sampler is handed below
PAIR = uniform_spatial_grid(1, 2)


class TestBrownianOracle:
    def test_increments_match_min(self, default_grid, brownian):
        # closed form: K(x, x') = min(x, x') for x, x' >= 0
        matrix = covariance_matrix(brownian, BROWNIAN_POINTS, default_grid)
        expected = np.minimum.outer(BROWNIAN_POINTS, BROWNIAN_POINTS)
        assert np.allclose(matrix, expected, rtol=0.01, atol=0.0)

    def test_refinement_shrinks_the_error(self, brownian):
        # richer quadrature must track the closed form markedly better
        coarse = dyadic_frequency_grid(1, -9, 9, 8)
        fine = dyadic_frequency_grid(1, -10, 10, 16)
        expected = np.minimum.outer(BROWNIAN_POINTS, BROWNIAN_POINTS)
        err = {id(g): np.max(np.abs(covariance_matrix(brownian, BROWNIAN_POINTS,
                                                      g) - expected))
               for g in (coarse, fine)}
        assert err[id(fine)] <= 0.5 * err[id(coarse)]


class TestPowerLawOracle:
    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    def test_matrix_matches_closed_form(self, default_grid, hurst):
        f = sf.fractional_brownian_density(hurst)
        points = [0.5, 1.0]
        matrix = covariance_matrix(f, points, default_grid)
        closed = power_law_covariance_matrix(points, hurst)
        assert np.allclose(matrix, closed, rtol=0.02)

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
        # K(x, x') = (v(x) + v(x') - v(x - x'))/2 with v(u) = K(u, u); the
        # quadrature inherits the identity node by node, so it holds to roundoff
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
        with pytest.raises(InadmissibleDensityError):
            covariance_matrix(PowerLawDensity(1, 0.03, 1.0), [0.5], default_grid)

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

    @pytest.mark.parametrize("block_bytes", [sf.covariance.BLOCK_BYTES, 8 * 300 * 64])
    def test_chunked_gram_matches_the_whole_factor(self, default_grid, brownian,
                                                   block_bytes, monkeypatch):
        # 300 points split the 2,624 node pairs into two chunks; the small
        # budget gives 82 chunks of 32 pairs and row blocks of 64 points
        monkeypatch.setattr(sf.covariance, "BLOCK_BYTES", block_bytes)
        points = np.linspace(0, 1, 300)[:, None]
        assert sf.covariance.block_rows(2 * 300) < len(default_grid.nodes)
        factor = sf.covariance.spectral_factor(brownian, points, default_grid)
        whole = factor @ factor.T
        entries = sf.covariance.quadrature_gram(brownian, points, default_grid)
        assert np.array_equal(entries, entries.T)
        assert np.max(np.abs(entries - whole)) <= 1e-13 * np.max(whole)

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
        def quadrature(points):
            dimension = points.shape[1]
            return covariance_matrix(sf.fractional_brownian_density(0.5, dimension),
                                     points, default_grid if dimension == 1 else grid_2d)

        def closed_form(points):
            return power_law_covariance_matrix(points, 0.5)
        # a 2-d duplicate that is not next to its twin in input order
        plane = np.array([[0.5, 0.25], [0.25, 0.5], [0.5, 0.5], [0.5, 0.25]])
        for matrix in (quadrature, closed_form):
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


EPS = np.finfo(float).eps
needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= EPS, reason="long double is no wider than double")


def long_double_factor(density, points, grid, pairs=slice(None)):
    """R over the stored nodes `pairs` selects, from long-double points and
    nodes, in the half-angle form, with the float amplitude sqrt(w f); also
    |x.xi| and sum_i |x_i xi_i| per entry."""
    amplitude = np.sqrt(grid.weights[pairs] * density.evaluate(grid.nodes[pairs]))
    x = np.asarray(points, dtype=np.longdouble)
    xi = grid.nodes[pairs].astype(np.longdouble)
    theta = x @ xi.T
    reference = np.empty((theta.shape[0], 2 * theta.shape[1]), dtype=np.longdouble)
    reference[:, 0::2] = -2.0 * np.sin(theta / 2) ** 2 * amplitude
    reference[:, 1::2] = -np.sin(theta) * amplitude
    pair = lambda a: np.repeat(a, 2, axis=-1).astype(float)
    return (reference, pair(amplitude), pair(np.abs(theta)),
            pair(np.abs(x) @ np.abs(xi).T))


class TestHalfAngleFactor:
    """R from the per-axis half-angle phase tables of a sum set of points."""

    @needs_long_double
    def test_small_phases_are_exact_to_relative_roundoff(self, default_grid):
        # cos(x.xi) - 1 lost up to all of its digits at |x.xi| << 1; the
        # annuli [1/2, 1) and [1, 2) hold phases from 1e-4 to past 1
        density = sf.fractional_brownian_density(0.7)
        space = uniform_spatial_grid(1, 4096)
        pairs = slice(19 * 64, 21 * 64)
        factor = sf.covariance.spectral_factor(density, space, default_grid, pairs)
        reference, amplitude, theta, _ = long_double_factor(
            density, space.points, default_grid, pairs)
        error = np.abs(factor - reference).astype(float)
        small = (theta <= 1.0) & (reference != 0)
        assert np.count_nonzero(small) > 100_000
        assert np.all(error[small] <= 1e-14 * np.abs(reference[small]).astype(float))
        assert np.all(error <= 4 * EPS * amplitude * (1.0 + theta))

    @needs_long_double
    @pytest.mark.parametrize("listed", [False, True])
    @pytest.mark.parametrize("dimension,resolution", [(1, 300), (2, 16)])
    def test_every_entry_within_the_phase_condition(self, default_grid, dimension,
                                                    resolution, listed):
        # sum_i |x_i xi_i| is |x.xi| in d = 1; in d = 2 it bounds the roundoff
        # of x.xi itself, which no float phase escapes when the terms cancel.
        # A grid goes through its split, a point list through (points, {0}).
        grid = default_grid if dimension == 1 else dyadic_frequency_grid(2, -6, 6, 16)
        density = sf.fractional_brownian_density(0.7, dimension)
        space = uniform_spatial_grid(dimension, resolution)
        points = space.points if listed else space
        factor = sf.covariance.spectral_factor(density, points, grid)
        reference, amplitude, _, condition = long_double_factor(density, space.points,
                                                                 grid)
        error = np.abs(factor - reference).astype(float)
        assert np.all(error <= 4 * EPS * amplitude * (1.0 + condition))

    @pytest.mark.parametrize("dimension,resolution", [(1, 300), (2, 16)])
    def test_columns_do_not_depend_on_the_chunk(self, default_grid, dimension,
                                                resolution):
        # 300 = 17 x 18 - 6 points: the (u, v) product has a short last u-row
        grid = default_grid if dimension == 1 else dyadic_frequency_grid(2, -6, 6, 16)
        density = sf.fractional_brownian_density(0.3, dimension)
        space = uniform_spatial_grid(dimension, resolution)
        whole = sf.covariance.spectral_factor(density, space, grid)
        half = len(grid.nodes) // 2
        columns = np.concatenate(
            [sf.covariance.spectral_factor(density, space, grid, part)
             for part in (slice(0, half), slice(half, half + 1), slice(half + 1, None))],
            axis=1)
        assert columns.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_origin_row_is_positive_zero(self, default_grid, grid_2d, dimension):
        grid = default_grid if dimension == 1 else grid_2d
        density = sf.fractional_brownian_density(0.5, dimension)
        space = uniform_spatial_grid(dimension, 8)
        origin = sf.covariance.spectral_factor(density, space, grid)[0]
        assert np.all(origin == 0.0) and not np.any(np.signbit(origin))
        listed = sf.covariance.spectral_factor(density, [[0.5] * dimension,
                                                         [0.0] * dimension], grid)[1]
        assert np.all(listed == 0.0) and not np.any(np.signbit(listed))


class TestRowWiseFill:
    """A chunk of R is filled one u-row at a time from progression tables."""

    def test_one_chunk_holds_no_chunk_wide_temporary(self, default_grid):
        # 4,096 points take 128 node pairs per 8 MiB chunk; a (4096, 128)
        # float temporary of the scaled s alone would add 4 MiB
        density = sf.fractional_brownian_density(0.7)
        space = uniform_spatial_grid(1, 4096)
        pairs = sf.covariance.block_rows(2 * space.size)
        assert pairs == 128
        sf.covariance.spectral_factor(density, space, default_grid, slice(0, pairs))
        tracemalloc.start()
        try:
            chunk = sf.covariance.spectral_factor(density, space, default_grid,
                                                  slice(0, pairs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= chunk.nbytes + (1 << 20)

    @pytest.mark.parametrize("dimension,resolution", [(1, 4096), (2, 8)])
    def test_trig_rows_per_set(self, default_grid, grid_2d, dimension, resolution,
                               monkeypatch):
        # each progression of n points takes trig on rows 1..b-1 and the
        # multiples of b, b = ceil(sqrt(n)); the other rows are products
        grid = default_grid if dimension == 1 else grid_2d
        density = sf.fractional_brownian_density(0.5, dimension)
        space = uniform_spatial_grid(dimension, resolution)
        sets = space.split()
        seen = []
        trig = sf.covariance._half_angle

        def counting(points, nodes, out):
            seen.append(len(points))
            return trig(points, nodes, out)
        monkeypatch.setattr(sf.covariance, "_half_angle", counting)
        sf.covariance.spectral_factor(density, space, grid, slice(0, 64))
        # one call for rows 1..b-1 and one for the multiples of b, per set
        assert len(seen) == 2 * len(sets)
        for rows, points in zip(zip(seen[::2], seen[1::2]), sets):
            assert sum(rows) <= math.ceil(2 * math.sqrt(len(points))) < len(points)


def long_double_gram(densities, points, grid):
    """g(x) + g(x') - g(x - x') for each density, from the variogram
    g(h) = 2 sum w f sin^2(h.xi/2) in long double over the exact lags of the
    float points, with the float masses 2 w f."""
    x = np.asarray(points, dtype=np.longdouble)
    n = len(x)
    upper = np.triu_indices(n, 1)
    lags = np.concatenate([x, (x[:, None] - x[None])[upper]])
    xi = grid.nodes.astype(np.longdouble)
    mass = np.stack([2.0 * grid.weights * f.evaluate(grid.nodes) for f in densities],
                    axis=1).astype(np.longdouble)
    variogram = np.concatenate([np.sin(lags[top:top + 64] @ xi.T / 2) ** 2 @ mass
                                for top in range(0, len(lags), 64)])
    grams = []
    for g in variogram.T:
        between = np.zeros((n, n), dtype=np.longdouble)
        between[upper] = g[n:]
        grams.append(g[:n, None] + g[None, :n] - (between + between.T))
    return grams


class TestLagGram:
    """On a spatial grid the Gram is read off a lag table of the variogram,
    never from R."""

    @needs_long_double
    @pytest.mark.parametrize("dimension,resolution", [(1, 8), (1, 64), (2, 8)])
    def test_long_double_error_is_that_of_the_factor(self, default_grid, dimension,
                                                     resolution):
        grid = default_grid if dimension == 1 else dyadic_frequency_grid(2, -6, 6, 16)
        space = uniform_spatial_grid(dimension, resolution)
        densities = [sf.fractional_brownian_density(hurst, dimension)
                     for hurst in (0.1, 0.5, 0.9)]
        references = long_double_gram(densities, space.points, grid)
        for density, reference in zip(densities, references):
            factor = sf.covariance.spectral_factor(density, space, grid)
            error = {name: float(np.max(np.abs(gram - reference)))
                     for name, gram in (("lags", sf.covariance.quadrature_gram(
                         density, space, grid)), ("factor", factor @ factor.T))}
            assert error["lags"] <= 2 * error["factor"]

    @pytest.mark.parametrize("hurst", [0.5, 0.9])
    @pytest.mark.parametrize("dimension,resolution", [(1, 300), (2, 16)])
    def test_matches_the_whole_factor(self, default_grid, dimension, resolution,
                                      hurst):
        # 300 = 17 x 18 - 6 points: the split's last u-row is short.  At
        # H = 0.1 the two differ by up to 5e-13 of max K at 300 points:
        # both carry the float phase roundoff at |xi| up to 2^21, and both
        # are that far from the long-double Gram
        grid = default_grid if dimension == 1 else dyadic_frequency_grid(2, -6, 6, 16)
        density = sf.fractional_brownian_density(hurst, dimension)
        space = uniform_spatial_grid(dimension, resolution)
        factor = sf.covariance.spectral_factor(density, space, grid)
        whole = factor @ factor.T
        gram = sf.covariance.quadrature_gram(density, space, grid)
        assert np.max(np.abs(gram - whole)) <= 1e-14 * np.max(np.diag(whole))

    @pytest.mark.parametrize("dimension,resolution", [(1, 8), (1, 300), (2, 8)])
    def test_exactly_symmetric_with_a_positive_zero_origin(self, default_grid, grid_2d,
                                                          dimension, resolution):
        grid = default_grid if dimension == 1 else grid_2d
        density = sf.fractional_brownian_density(0.3, dimension)
        gram = sf.covariance.quadrature_gram(
            density, uniform_spatial_grid(dimension, resolution), grid)
        assert np.array_equal(gram, gram.T)
        for origin in (gram[0], gram[:, 0]):
            assert np.all(origin == 0.0) and not np.any(np.signbit(origin))

    def test_does_not_depend_on_the_node_chunks(self, grid_2d, monkeypatch):
        # a 4 MiB workspace splits the 59,392 stored nodes into chunks of
        # 6,320 and a last one of 2,512: every chunk pads its rows to whole
        # parts, and the last re-zeroes padding that the one before it wrote
        chunks, variogram = [], sf.covariance._chunk_variogram

        def counting(*args):
            chunks.append(args[4])
            return variogram(*args)
        monkeypatch.setattr(sf.covariance, "_chunk_variogram", counting)
        density = sf.fractional_brownian_density(0.3, 2)
        space = uniform_spatial_grid(2, 8)
        grams = []
        for budget in (1 << 28, 1 << 24):
            monkeypatch.setattr(sf.covariance, "BLOCK_BYTES", budget)
            grams.append(sf.covariance.quadrature_gram(density, space, grid_2d))
        whole, chunked = grams
        sizes = [chunk.stop - chunk.start for chunk in chunks]
        assert sizes[0] == len(grid_2d.nodes) and len(sizes) >= 4
        assert sizes[-1] < sizes[1] and sizes[-1] % sf.covariance.SUM_NODES
        assert np.max(np.abs(chunked - whole)) <= 1e-15 * np.max(whole)
        assert np.array_equal(chunked, chunked.T)
        for origin in (chunked[0], chunked[:, 0]):
            assert np.all(origin == 0.0) and not np.any(np.signbit(origin))
        assert np.all(np.diag(chunked)[1:] > 0.0)

    def test_plane_grid_workspace_is_small(self, grid_2d):
        density = sf.fractional_brownian_density(0.5, 2)
        space = uniform_spatial_grid(2, 8)
        tracemalloc.start()
        try:
            gram = sf.covariance.quadrature_gram(density, space, grid_2d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= gram.nbytes + (3 << 20)

    def test_4096_points_hold_the_gram_and_two_blocks(self, default_grid, monkeypatch):
        # on a 2-vCPU x86-64 host the R R^T walk took 3.2-3.8 s, the lag table 0.2 s
        def refused(*args):
            raise AssertionError("the Gram on a grid built a chunk of R")
        monkeypatch.setattr(sf.covariance, "spectral_factor", refused)
        density = sf.fractional_brownian_density(0.7)
        space = uniform_spatial_grid(1, 4096)
        tracemalloc.start()
        try:
            gram = sf.covariance.quadrature_gram(density, space, default_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= gram.nbytes + 2 * sf.covariance.BLOCK_BYTES
        assert gram[0, 0] == 0.0 and np.all(np.diag(gram)[1:] > 0.0)


class TestCouplingKernel:
    """The kernel identity behind the coupling: K_Y = K_X / C + K_residual,
    with x1 and the residual mapped by their own synthesizers from the two
    disjoint halves of one stream's row."""

    def halves(self, coupler, seed, ids):
        """The two parts of the coupled rows of the streams, W1 and W2
        normals wide for the ways the two fields chose."""
        width = coupler._pair.first._noise_width()
        noise = hermitian_noise(width + coupler._pair.second._noise_width(), seed, ids)
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
        assert np.array_equal(first, hermitian_noise(direct._noise_width(), 5, range(4)))
        assert x1.tobytes() == direct._synthesize(first).tobytes()

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
        assert x2.tobytes() == direct._synthesize(second).tobytes()
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
        # isotropy: the two variances agree far inside quadrature error
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
        if dimension == 1:
            densities += list(fbm_pair)
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

    def test_plane_modulated_density_keeps_the_quadrature_law(self, grid_2d):
        density = sf.PerturbedDensity(sf.fractional_brownian_density(0.5, 2),
                                      sf.SineModulation(2.0, 1.0, scale=3.0))
        space = uniform_spatial_grid(2, 3)
        assert np.array_equal(covariance_matrix(density, space, grid_2d),
                              sf.covariance.quadrature_gram(density, space, grid_2d))
