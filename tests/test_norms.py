import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specfield import ConfigError, HolderNorm, SupNorm, parse_config, uniform_spatial_grid

GRID_9 = uniform_spatial_grid(1, 9)

value_arrays = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=9, max_size=9).map(np.array)


class TestExamples:
    def test_zero_field(self):
        zeros = np.zeros(9)
        assert SupNorm()(zeros, GRID_9) == 0.0
        assert HolderNorm(0.5)(zeros, GRID_9) == 0.0

    def test_identity_ramp(self):
        # g(x) = x on [0, 1]: sup 1; every pair ratio of the alpha = 1 norm is
        # exactly 1, and for alpha = 1/2 the best pair is the full span
        grid = uniform_spatial_grid(1, 65)
        ramp = grid.points[:, 0].copy()
        assert SupNorm()(ramp, grid) == 1.0
        assert HolderNorm(1.0)(ramp, grid) == 2.0
        assert HolderNorm(0.5)(ramp, grid) == 2.0


class TestAxioms:
    @given(values=value_arrays)
    @settings(max_examples=80, deadline=None)
    def test_symmetry_is_exact(self, values):
        for norm in (SupNorm(), HolderNorm(0.5)):
            assert norm(values, GRID_9) == norm(-values, GRID_9)

    @given(values=value_arrays,
           factor=st.floats(min_value=-100.0, max_value=100.0,
                            allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_homogeneity(self, values, factor):
        for norm in (SupNorm(), HolderNorm(0.7)):
            scaled = norm(factor * values, GRID_9)
            expected = abs(factor) * norm(values, GRID_9)
            assert abs(scaled - expected) <= 1e-12 * max(1.0, expected)

    @given(first=value_arrays, second=value_arrays)
    @settings(max_examples=80, deadline=None)
    def test_triangle_inequality(self, first, second):
        for norm in (SupNorm(), HolderNorm(0.4)):
            combined = norm(first + second, GRID_9)
            bound = norm(first, GRID_9) + norm(second, GRID_9)
            assert combined <= bound + 1e-12 * max(1.0, bound)

    @given(first=value_arrays, second=value_arrays,
           weight=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_ball_convexity(self, first, second, weight):
        for norm in (SupNorm(), HolderNorm(0.6)):
            radius = max(norm(first, GRID_9), norm(second, GRID_9))
            mixed = norm(weight * first + (1.0 - weight) * second, GRID_9)
            assert mixed <= radius + 1e-12 * max(1.0, radius)

    @given(values=value_arrays,
           alpha=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_sup_is_dominated_by_holder(self, values, alpha):
        assert SupNorm()(values, GRID_9) <= HolderNorm(alpha)(values, GRID_9)

    @given(values=value_arrays)
    @settings(max_examples=40, deadline=None)
    def test_coarser_grid_never_increases_the_norm(self, values):
        # a sub-grid maximizes over a subset of points and pairs
        fine = GRID_9
        coarse = uniform_spatial_grid(1, 5)
        assert np.array_equal(fine.points[::2], coarse.points)
        for kind in ("sup", "holder"):
            norm = SupNorm() if kind == "sup" else HolderNorm(0.5)
            assert norm(values[::2], coarse) <= norm(values, fine) + 0.0


def brute_force_holder(values, points, alpha):
    """sup plus the largest |g(x_i) - g(x_j)| / |x_i - x_j|^alpha, pair by pair."""
    rows = np.atleast_2d(values)
    pairs = list(itertools.combinations(range(len(points)), 2))
    scale = np.array([np.sqrt(np.sum((points[i] - points[j]) ** 2))
                      for i, j in pairs]) ** alpha
    ratio = [max(abs(row[i] - row[j]) / s for (i, j), s in zip(pairs, scale))
             for row in rows]
    return np.max(np.abs(rows), axis=1) + np.array(ratio)


class TestFullPairs:
    """The all-pairs ratio, taken one lag at a time, is the maximum over
    every pair, bit for bit."""

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    @pytest.mark.parametrize("grid", [uniform_spatial_grid(1, 17),
                                      uniform_spatial_grid(2, 8)],
                             ids=["line", "plane"])
    def test_matches_every_pair(self, grid, alpha):
        rng = np.random.default_rng(6)
        points = np.asarray(grid.points, dtype=float)
        block = rng.normal(size=(5, grid.size))
        block[1] = np.round(block[1])          # ties among values and ratios
        block[2] = 0.75                        # a constant row: ratio 0
        block[3] = np.tile([1.0, -1.0], grid.size)[:grid.size]
        block[4] = points.sum(axis=1)          # a ramp: the widest pair wins
        norm = HolderNorm(alpha)
        assert grid.size ** 2 <= norm.pair_budget
        expected = brute_force_holder(block, points, alpha)
        assert norm(block, grid).tobytes() == expected.tobytes()
        single = norm(block[0], grid)
        assert isinstance(single, float)
        assert np.float64(single).tobytes() == expected[0].tobytes()


class TestPairSubsampling:
    def test_dyadic_subset_brackets(self):
        rng = np.random.default_rng(3)
        grid = uniform_spatial_grid(1, 70)
        values = rng.normal(size=70)
        full = HolderNorm(0.5)(values, grid)
        dyadic = HolderNorm(0.5, pair_budget=16)(values, grid)
        assert SupNorm()(values, grid) <= dyadic <= full

    def test_dyadic_square_grid(self):
        rng = np.random.default_rng(4)
        grid = uniform_spatial_grid(2, 5)
        values = rng.normal(size=grid.size)
        full = HolderNorm(0.5)(values, grid)
        dyadic = HolderNorm(0.5, pair_budget=16)(values, grid)
        assert SupNorm()(values, grid) <= dyadic <= full


class TestInterface:
    def test_field_sample_carries_its_grid(self, default_grid, space_8, brownian):
        from specfield import SpectralSynthesizer
        sample = SpectralSynthesizer(brownian, default_grid, space_8).sample(21, 0)
        direct = HolderNorm(0.5)(sample.values, space_8)
        assert HolderNorm(0.5)(sample) == direct
        assert SupNorm()(sample) == np.max(np.abs(sample.values))

    def test_values_without_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            HolderNorm(0.5)(np.ones(4))

    @pytest.mark.parametrize("budget", [1 << 22, 4], ids=["all-pairs", "dyadic"])
    @pytest.mark.parametrize("shape", [(3,), (2, 3), (9,)])
    def test_width_must_match_the_grid(self, budget, shape):
        for norm in (HolderNorm(0.5, pair_budget=budget), SupNorm()):
            with pytest.raises(ValueError, match=f"{shape[-1]} values .* grid of 8 points"):
                norm(np.zeros(shape), uniform_spatial_grid(1, 8))

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            HolderNorm(0.0)
        with pytest.raises(ValueError, match="alpha"):
            HolderNorm(1.5)

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="budget"):
            HolderNorm(0.5, pair_budget=2)

    def test_catalog(self):
        # the config builds the norm from norm.kind
        base = ("command = verify-anderson\nanderson.kind = shift\nseed = 1\n"
                "density.family = power-law\ndensity.hurst = 0.5\nmc.radii = 0.5\n")
        assert isinstance(parse_config(base).norm, SupNorm)
        holder = parse_config(base + "norm.kind = holder\nnorm.alpha = 0.3\n").norm
        assert isinstance(holder, HolderNorm)
        assert holder.alpha == 0.3
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(base + "norm.kind = holder\n")
        with pytest.raises(ConfigError, match="norm.kind must be one of"):
            parse_config(base + "norm.kind = energy\n")

    def test_labels(self):
        assert SupNorm().label == "sup"
        assert HolderNorm(0.5).label == "holder(0.5)"
