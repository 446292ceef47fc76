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


def brute_force_dyadic(values, grid, alpha):
    """sup plus the largest |g(x) - g(y)| / |x - y|^alpha over the pairs a
    power of two steps apart along one axis, pair by pair."""
    rows = np.atleast_2d(values)
    steps = np.array(list(itertools.product(range(grid.resolution), repeat=grid.dimension)))
    assert np.allclose(steps * grid.spacing, grid.points)
    ratio = np.zeros(len(rows))
    for i, j in itertools.combinations(range(grid.size), 2):
        offset = np.abs(steps[j] - steps[i])
        lag = int(offset.max())
        if np.count_nonzero(offset) == 1 and lag & (lag - 1) == 0:
            scale = (lag * grid.spacing) ** alpha
            ratio = np.maximum(ratio, np.abs(rows[:, i] - rows[:, j]) / scale)
    return np.max(np.abs(rows), axis=1) + ratio


def all_pairs_holder(values, grid, alpha):
    """sup plus the largest |g(x) - g(y)| / |x - y|^alpha over every pair."""
    rows = np.atleast_2d(values)
    i, j = np.triu_indices(grid.size, 1)
    scale = np.sqrt(np.sum((grid.points[i] - grid.points[j]) ** 2, axis=1)) ** alpha
    ratio = np.max(np.abs(rows[:, i] - rows[:, j]) / scale, axis=1)
    return np.max(np.abs(rows), axis=1) + ratio


class TestDyadicLags:
    """The norm is the maximum over the dyadic axis pairs, bit for bit."""

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    @pytest.mark.parametrize("grid", [uniform_spatial_grid(1, 17),
                                      uniform_spatial_grid(2, 8)],
                             ids=["line", "plane"])
    def test_matches_every_dyadic_pair(self, grid, alpha):
        rng = np.random.default_rng(6)
        points = np.asarray(grid.points, dtype=float)
        block = rng.normal(size=(5, grid.size))
        block[1] = np.round(block[1])          # ties among values and ratios
        block[2] = 0.75                        # a constant row: ratio 0
        block[3] = np.tile([1.0, -1.0], grid.size)[:grid.size]
        block[4] = points.sum(axis=1)          # a ramp
        norm = HolderNorm(alpha)
        expected = brute_force_dyadic(block, grid, alpha)
        assert norm(block, grid).tobytes() == expected.tobytes()
        single = norm(block[0], grid)
        assert isinstance(single, float)
        assert np.float64(single).tobytes() == expected[0].tobytes()


class TestEquivalence:
    """The dyadic pairs are a subset of all pairs, and a pair's lag splits
    into its binary digits, so full / C(alpha, d) <= dyadic <= full."""

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("grid", [uniform_spatial_grid(1, 256),
                                      uniform_spatial_grid(2, 16)],
                             ids=["line", "plane"])
    def test_within_the_constants_of_all_pairs(self, grid, alpha):
        rng = np.random.default_rng(4)
        noise = rng.normal(size=(8, grid.size))
        walks = np.cumsum(noise.reshape((8,) + (grid.resolution,) * grid.dimension),
                          axis=-1).reshape(8, grid.size)
        block = np.vstack([noise, walks, grid.points.sum(axis=1)])
        constant = 1 / (1 - 2 ** -alpha)
        if grid.dimension == 2:
            constant *= 2 ** (1 - alpha / 2)
        dyadic = HolderNorm(alpha)(block, grid)
        full = all_pairs_holder(block, grid, alpha)
        assert np.all(dyadic <= full * (1 + 1e-12))
        assert np.all(full <= constant * dyadic)


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

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (9,)])
    def test_width_must_match_the_grid(self, shape):
        for norm in (HolderNorm(0.5), SupNorm()):
            with pytest.raises(ValueError, match=f"{shape[-1]} values .* grid of 8 points"):
                norm(np.zeros(shape), uniform_spatial_grid(1, 8))

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            HolderNorm(0.0)
        with pytest.raises(ValueError, match="alpha"):
            HolderNorm(1.5)

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
