import numpy as np
import pytest

from specfield import (FrequencyGrid, SpatialGrid, dyadic_frequency_grid,
                       uniform_spatial_grid)


class TestFrequencyGrid1D:
    def test_node_count_and_layout(self, default_grid):
        g = default_grid
        assert g.dimension == 1
        assert g.n_annuli == 41
        assert g.size == 41 * 64 * 2
        assert g.nodes.shape == (g.size // 2, 1)
        assert g.weights.shape == (g.size // 2,)
        assert g.annulus.shape == (g.size // 2,)

    def test_weights_sum_to_band_length(self, default_grid):
        g = default_grid
        # both half-lines of [2^-20, 2^21)
        expected = 2.0 * (2.0 ** 21 - 2.0 ** -20)
        assert np.isclose(g.weights.sum(), expected, rtol=1e-12)

    def test_nodes_are_positive(self, default_grid):
        assert np.all(default_grid.nodes > 0)

    def test_each_annulus_holds_m_nodes(self, default_grid):
        g = default_grid
        assert np.array_equal(np.bincount(g.annulus), np.full(g.n_annuli, 64))

    def test_stores_the_positive_midpoints(self):
        g = dyadic_frequency_grid(1, -2, 1, 4)
        lo = 2.0 ** np.arange(-2, 2)
        midpoints = lo[:, None] * (1.0 + (np.arange(4) + 0.5) / 4)
        assert np.allclose(g.nodes[:, 0], midpoints.ravel(), rtol=1e-15)
        assert np.allclose(g.weights, np.repeat(2 * lo / 4, 4), rtol=1e-15)

    def test_nodes_lie_in_their_annuli(self, default_grid):
        g = default_grid
        r = g.radii()
        lo = 2.0 ** (g.j_lo + g.annulus)
        assert np.all(r >= lo)
        assert np.all(r < 2 * lo)

    def test_positive_weights(self, default_grid):
        assert np.all(default_grid.weights > 0)

    def test_grid_id(self):
        g = dyadic_frequency_grid(1, -3, 4, 16)
        assert g.grid_id == "dyadic(d=1,J=-3..4,m=16)"

    def test_equality_ignores_derived_arrays(self):
        a = dyadic_frequency_grid(1, -3, 3, 8)
        b = dyadic_frequency_grid(1, -3, 3, 8)
        assert a == b
        assert hash(a) == hash(b)
        assert a != dyadic_frequency_grid(1, -3, 3, 16)


class TestFrequencyGrid2D:
    def test_layout(self, grid_2d):
        g = grid_2d
        assert g.dimension == 2
        assert g.size == g.n_annuli * 64 * 64
        assert g.nodes.shape == (g.size // 2, 2)
        assert g.weights.shape == (g.size // 2,)

    def test_stored_angles_lie_in_half_circle(self, grid_2d):
        theta = np.arctan2(grid_2d.nodes[:, 1], grid_2d.nodes[:, 0])
        assert np.all(theta >= 0.0)
        assert np.all(theta < np.pi)

    def test_each_annulus_holds_half_of_m_squared_nodes(self, grid_2d):
        g = grid_2d
        assert np.array_equal(np.bincount(g.annulus), np.full(g.n_annuli, 64 * 64 // 2))

    def test_weights_sum_to_band_area(self):
        g = dyadic_frequency_grid(2, -4, 4, 8)
        expected = np.pi * ((2.0 ** 5) ** 2 - (2.0 ** -4) ** 2)
        assert np.isclose(g.weights.sum(), expected, rtol=1e-12)

    def test_radii_respect_annuli(self):
        g = dyadic_frequency_grid(2, -4, 4, 8)
        r = g.radii()
        lo = 2.0 ** (g.j_lo + g.annulus)
        assert np.all(r >= lo)
        assert np.all(r < 2 * lo)

    def test_odd_angular_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            dyadic_frequency_grid(2, -2, 2, 7)


class TestGridValidation:
    def test_bad_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            dyadic_frequency_grid(3)

    def test_inverted_range(self):
        with pytest.raises(ValueError, match="j_lo"):
            dyadic_frequency_grid(1, 5, 4)

    def test_empty_annulus_count(self):
        with pytest.raises(ValueError, match="positive"):
            dyadic_frequency_grid(1, -2, 2, 0)


class TestSpatialGrid:
    def test_line_grid(self):
        s = uniform_spatial_grid(1, 5)
        assert s.size == 5
        assert s.spacing == 0.25
        assert np.array_equal(s.points[:, 0], np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
        assert s.origin_index == 0
        assert s.grid_id == "uniform(d=1,n=5)"

    def test_square_grid(self):
        s = uniform_spatial_grid(2, 3)
        assert s.size == 9
        assert np.array_equal(s.points[0], [0.0, 0.0])
        assert np.array_equal(s.points[-1], [1.0, 1.0])
        # lexicographic: first coordinate varies slowest
        assert np.all(np.diff(s.points[:, 0]) >= 0)

    def test_axis_matches_points(self):
        s = uniform_spatial_grid(1, 9)
        assert np.array_equal(np.linspace(0.0, 1.0, 9), s.points[:, 0])

    def test_resolution_floor(self):
        with pytest.raises(ValueError, match="resolution"):
            uniform_spatial_grid(1, 1)

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="dimension"):
            uniform_spatial_grid(3, 4)

