import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import specfield as sf
from specfield import (BandLimitedDensity, DifferenceDensity, InadmissibleDensityError,
                       PerturbedDensity, PowerLawDensity, ScaledDensity, SineModulation,
                       SumDensity, ZeroDensity, brownian_density, check_admissible,
                       check_domination, difference_density,
                       estimate_min_C, fractional_brownian_density, require_admissible)
from specfield.spectral import SpectralDensity, _unit_variance_scale


# --------------------------------------------------------------------------
# independent quadrature oracles for the unit-variance normalization
#
# The package computes the normalizing integrals in closed form; these
# reimplement them numerically through a completely different route
# (oscillatory/algebraic-weight quadrature and Bessel-zero partitioning)
# so an algebra slip in either place shows up as disagreement.


def _cosine_ratio(u):
    # (1 - cos u)/u^2 with its limit 1/2 at u = 0
    return 0.5 if u < 1e-6 else (1.0 - np.cos(u)) / u ** 2


def cos_integral_oracle(s):
    """int_0^inf (1 - cos u) u^(-s-1) du for 0 < s < 2."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        head, _ = integrate.quad(_cosine_ratio, 0.0, 1.0,
                                 weight="alg", wvar=(1.0 - s, 0.0))
        power = 1.0 / s
        big = 1.0e6
        osc, _ = integrate.quad(lambda u: u ** (-s - 1.0), 1.0, big,
                                weight="cos", wvar=1.0, limit=2000)
        # two integrations by parts bound the remainder beyond `big` by
        # (s+1) big^(-s-2), far below the comparison tolerance
        tail = (-np.sin(big) * big ** (-s - 1.0)
                + (s + 1.0) * np.cos(big) * big ** (-s - 2.0))
    return head + power - (osc + tail)


def _bessel_ratio(r):
    # (1 - J0(r))/r^2 with its limit 1/4 at r = 0
    return 0.25 if r < 1e-6 else (1.0 - special.j0(r)) / r ** 2


def bessel_integral_oracle(s, n_zeros=400, levels=40):
    """int_0^inf (1 - J0(r)) r^(-s-1) dr via zero-partitioned alternating sums."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zeros = special.jn_zeros(0, n_zeros)
        head, _ = integrate.quad(_bessel_ratio, 0.0, zeros[0],
                                 weight="alg", wvar=(1.0 - s, 0.0))
        power = zeros[0] ** (-s) / s
        segments = []
        for a, b in zip(zeros[:-1], zeros[1:]):
            val, _ = integrate.quad(lambda r: special.j0(r) * r ** (-s - 1.0), a, b)
            segments.append(val)
        # repeated averaging of the alternating partial sums
        acc = np.cumsum(segments)
        for _ in range(levels):
            if acc.size < 2:
                break
            acc = 0.5 * (acc[:-1] + acc[1:])
    return head + power - acc[-1]


class TestNormalization:
    @pytest.mark.parametrize("hurst", [0.2, 0.3, 0.5, 0.7, 0.95])
    def test_line_scale_matches_quadrature_oracle(self, hurst):
        oracle = cos_integral_oracle(2.0 * hurst)
        closed = 1.0 / (4.0 * _unit_variance_scale(hurst, 1))
        assert np.isclose(closed, oracle, rtol=1e-10)

    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
    def test_plane_scale_matches_quadrature_oracle(self, hurst):
        oracle = bessel_integral_oracle(2.0 * hurst)
        closed = 1.0 / (4.0 * np.pi * _unit_variance_scale(hurst, 2))
        assert np.isclose(closed, oracle, rtol=1e-10)

    def test_brownian_scale_is_inverse_two_pi(self):
        assert np.isclose(brownian_density().scale, 1.0 / (2.0 * np.pi), rtol=1e-13)

    def test_plane_half_scale_is_inverse_four_pi(self):
        f = fractional_brownian_density(0.5, dimension=2)
        assert np.isclose(f.scale, 1.0 / (4.0 * np.pi), rtol=1e-13)

    def test_unit_variance_through_package_quadrature(self, default_grid):
        # the whole pipeline reproduces Var X(1) = 1 for a couple of exponents
        for hurst in (0.3, 0.7):
            f = fractional_brownian_density(hurst)
            var = sf.covariance_matrix(f, [1.0], default_grid)[0, 0]
            assert np.isclose(var, 1.0, rtol=0.01)

    def test_unit_variance_in_the_plane(self, grid_2d):
        f = fractional_brownian_density(0.5, dimension=2)
        var = sf.covariance_matrix(f, [(1.0, 0.0)], grid_2d)[0, 0]
        assert np.isclose(var, 1.0, rtol=0.01)


# --------------------------------------------------------------------------
# density families


class TestDensityFamilies:
    def test_brownian_pointwise_value(self):
        f = brownian_density()
        assert np.isclose(f(2.0), 1.0 / (8.0 * np.pi), rtol=1e-13)

    def test_power_law_infinite_at_origin(self):
        f = PowerLawDensity(1, 0.5, 1.0)
        assert f(0.0) == np.inf

    def test_power_law_parameter_validation(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            PowerLawDensity(1, 1.2, 1.0)
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            fractional_brownian_density(0.0)
        with pytest.raises(ValueError, match="scale"):
            PowerLawDensity(1, 0.5, -1.0)

    def test_call_shape_validation(self):
        f = brownian_density()
        with pytest.raises(ValueError, match="shape"):
            f((1.0, 2.0))

    def test_zero_density(self):
        f = ZeroDensity(1)
        assert f(3.0) == 0.0

    def test_band_limited_values(self):
        f = BandLimitedDensity(1, 1.0, 2.0, 0.5)
        assert f(1.5) == 0.5
        assert f(-1.5) == 0.5
        assert f(0.5) == 0.0
        assert f(2.0) == 0.0  # half-open band

    def test_band_limited_validation(self):
        with pytest.raises(ValueError, match="inner"):
            BandLimitedDensity(1, 2.0, 1.0)
        with pytest.raises(ValueError, match="amplitude"):
            BandLimitedDensity(1, 0.0, 1.0, -2.0)

    def test_modulation_validation(self):
        with pytest.raises(ValueError, match="offset"):
            SineModulation(offset=0.5, amplitude=1.0)
        with pytest.raises(ValueError, match="scale"):
            SineModulation(offset=2.0, amplitude=1.0, scale=0.0)
        assert SineModulation(2.0, 1.0, scale=3.0).upper_bound == 1.0

    def test_perturbed_values(self):
        base = brownian_density()
        f = PerturbedDensity(base, SineModulation(offset=2.0, amplitude=1.0, scale=3.0))
        xi = 1.7
        expected = base(xi) * (2.0 + np.sin(xi)) / 3.0
        assert np.isclose(f(xi), expected, rtol=1e-13)
        assert f.dimension == 1

    def test_sum_and_scaled(self):
        a = BandLimitedDensity(1, 1.0, 2.0, 1.0)
        b = BandLimitedDensity(1, 1.5, 3.0, 2.0)
        s = SumDensity(a, b)
        assert s(1.75) == 3.0
        assert ScaledDensity(a, 2.5)(1.5) == 2.5

    def test_sum_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            SumDensity(ZeroDensity(1), ZeroDensity(2))

    def test_scaled_factor_validation(self):
        with pytest.raises(ValueError, match="factor"):
            ScaledDensity(ZeroDensity(1), -1.0)

    @given(xi=st.floats(min_value=1e-6, max_value=1e6),
           hurst=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=60, deadline=None)
    def test_evenness_is_exact(self, xi, hurst):
        families = [
            PowerLawDensity(1, hurst, 1.0),
            PerturbedDensity(PowerLawDensity(1, hurst, 1.0),
                             SineModulation(2.0, 1.0, scale=3.0)),
            BandLimitedDensity(1, 0.5, 2.0, 1.0),
            SumDensity(PowerLawDensity(1, hurst, 1.0), BandLimitedDensity(1, 1.0, 4.0)),
            ScaledDensity(PowerLawDensity(1, hurst, 1.0), 0.7),
        ]
        pts = np.array([[xi], [-xi]])
        for f in families:
            values = f.evaluate(pts)
            assert values[0] == values[1]

    def test_evenness_in_the_plane(self):
        f = fractional_brownian_density(0.4, dimension=2)
        pts = np.array([[1.3, -0.7], [-1.3, 0.7]])
        values = f.evaluate(pts)
        assert values[0] == values[1]


# --------------------------------------------------------------------------
# admissibility


class InverseDensity(SpectralDensity):
    """f(xi) = 1/|xi| in d = 1: the variance integral diverges at infinity."""

    dimension = 1
    family = "test-inverse"

    def evaluate(self, xi):
        return 1.0 / np.abs(np.asarray(xi)[:, 0])


class TestAdmissibility:
    def test_power_law_is_admissible(self, default_grid):
        result = check_admissible(brownian_density(), default_grid)
        assert result.status == "admissible"
        assert result.value > 0
        assert len(result.contributions) == default_grid.n_annuli

    def test_zero_density_is_admissible_with_zero_value(self, default_grid):
        result = check_admissible(ZeroDensity(1), default_grid)
        assert result.status == "admissible"
        assert result.value == 0.0

    def test_band_limited_value_is_exact(self, default_grid):
        # 1 ^ xi^2 is identically 1 on [1, 2), so the integral is the band
        # length over both half-lines and the midpoint rule is exact
        result = check_admissible(BandLimitedDensity(1, 1.0, 2.0, 1.0), default_grid)
        assert result.status == "admissible"
        assert np.isclose(result.value, 2.0, rtol=1e-12)

    def test_inverse_density_is_inadmissible(self, default_grid):
        result = check_admissible(InverseDensity(), default_grid)
        assert result.status == "inadmissible"
        assert result.value is None
        assert "high-frequency" in result.detail

    def test_barely_decaying_tail_is_inconclusive(self, default_grid):
        # annulus contributions shrink by 2^(-0.06) per step at the high end:
        # decaying, but too slowly for the window to establish it
        result = check_admissible(PowerLawDensity(1, 0.03, 1.0), default_grid)
        assert result.status == "inconclusive"
        assert result.value is None

    def test_admissibility_monotone_in_the_density(self, default_grid):
        small = check_admissible(brownian_density(), default_grid).value
        big = check_admissible(ScaledDensity(brownian_density(), 3.0),
                               default_grid).value
        assert np.isclose(big, 3.0 * small, rtol=1e-12)
        assert big >= small

    def test_dimension_mismatch(self, default_grid):
        with pytest.raises(ValueError, match="mismatch"):
            check_admissible(ZeroDensity(2), default_grid)

    def test_require_admissible_returns_value(self, default_grid):
        value = require_admissible(brownian_density(), default_grid)
        assert value == check_admissible(brownian_density(), default_grid).value

    def test_require_admissible_rejects_inadmissible(self, default_grid):
        with pytest.raises(InadmissibleDensityError, match="inadmissible"):
            require_admissible(InverseDensity(), default_grid)

    def test_require_admissible_rejects_inconclusive(self, default_grid):
        # an unsettled check must not silently authorize sampling
        with pytest.raises(InadmissibleDensityError, match="inconclusive"):
            require_admissible(PowerLawDensity(1, 0.03, 1.0), default_grid)

    def test_require_admissible_caches_repeat_lookups(self, default_grid):
        f = fractional_brownian_density(0.31)
        require_admissible(f, default_grid)
        before = require_admissible.cache_info().hits
        require_admissible(f, default_grid)
        assert require_admissible.cache_info().hits == before + 1


# --------------------------------------------------------------------------
# domination


def _full_symmetric_rule(dimension, j_lo, j_hi, m):
    """The unfolded midpoint rule, built independently of the package: every
    node of every (xi, -xi) pair, each with its own cell measure."""
    nodes, weights, annulus = [], [], []
    for k, j in enumerate(range(j_lo, j_hi + 1)):
        lo = 2.0 ** j
        dr = lo / m
        r = lo + (np.arange(m) + 0.5) * dr
        if dimension == 1:
            nodes.append(np.concatenate([r, -r])[:, None])
            weights.append(np.full(2 * m, dr))
        else:
            theta = (np.arange(m) + 0.5) * (2 * np.pi / m)
            nodes.append(np.column_stack([np.outer(r, np.cos(theta)).ravel(),
                                          np.outer(r, np.sin(theta)).ravel()]))
            weights.append(np.repeat(r * dr * (2 * np.pi / m), m))
        annulus.append(np.full(len(weights[-1]), k))
    return np.concatenate(nodes), np.concatenate(weights), np.concatenate(annulus)


class TestFoldedRule:
    """check_admissible on the stored node per pair against the full rule."""

    @pytest.mark.parametrize("dimension,j_lo,j_hi,m", [(1, -20, 20, 64), (2, -12, 12, 16)])
    def test_contributions_match_the_full_symmetric_rule(self, dimension, j_lo, j_hi, m):
        grid = sf.dyadic_frequency_grid(dimension, j_lo, j_hi, m)
        base = fractional_brownian_density(0.5, dimension)
        density = PerturbedDensity(base, SineModulation(2.0, 1.0, scale=3.0))
        nodes, weights, annulus = _full_symmetric_rule(dimension, j_lo, j_hi, m)
        assert nodes.shape[0] == grid.size
        r2 = np.sum(nodes ** 2, axis=1)
        terms = weights * np.minimum(1.0, r2) * density.evaluate(nodes)
        expected = np.bincount(annulus, weights=terms)
        result = check_admissible(density, grid)
        assert result.status == "admissible"
        assert np.allclose(result.contributions, expected, rtol=1e-13, atol=0.0)
        assert np.isclose(result.value, expected.sum(), rtol=1e-13, atol=0.0)


class TestDomination:
    def test_self_domination_at_one(self, default_grid, brownian):
        cert = check_domination(brownian, brownian, 1.0, default_grid)
        assert cert.holds
        assert cert.max_ratio == 1.0
        assert cert.violation is None

    def test_doubled_density_violates_at_one(self, default_grid, brownian):
        cert = check_domination(ScaledDensity(brownian, 2.0), brownian, 1.0,
                                default_grid)
        assert not cert.holds
        assert cert.verdict == "violated"
        v = cert.violation
        assert v is not None
        assert v.dominated_value > v.bound_value
        assert np.isclose(cert.max_ratio, 2.0, rtol=1e-12)

    def test_doubled_density_holds_at_two(self, default_grid, brownian):
        cert = check_domination(ScaledDensity(brownian, 2.0), brownian, 2.0,
                                default_grid)
        assert cert.holds

    def test_perturbed_below_base(self, default_grid, fbm_pair):
        perturbed, base = fbm_pair
        cert = check_domination(perturbed, base, 1.0, default_grid)
        assert cert.holds
        assert cert.max_ratio <= 1.0

    def test_min_constant_for_base_over_perturbed(self, default_grid, fbm_pair):
        # sup of 3/(2 + sin|xi|) over the nodes creeps up to 3
        perturbed, base = fbm_pair
        bound = estimate_min_C(base, perturbed, default_grid)
        assert 2.9 < bound <= 3.0 + 1e-9
        cert = check_domination(base, perturbed, bound, default_grid)
        assert cert.holds

    def test_ratio_conventions(self, default_grid, brownian):
        assert estimate_min_C(ZeroDensity(1), ZeroDensity(1), default_grid) == 0.0
        assert estimate_min_C(brownian, ZeroDensity(1), default_grid) == np.inf
        cert = check_domination(brownian, ZeroDensity(1), 5.0, default_grid)
        assert not cert.holds

    def test_zero_dominated_by_anything(self, default_grid, brownian):
        cert = check_domination(ZeroDensity(1), brownian, 1e-9, default_grid)
        assert cert.holds
        assert cert.max_ratio == 0.0

    def test_constant_validation(self, default_grid, brownian):
        with pytest.raises(ValueError, match="positive"):
            check_domination(brownian, brownian, 0.0, default_grid)

    @pytest.mark.parametrize("constant", [float("inf"), float("nan")])
    def test_constant_must_be_finite(self, default_grid, brownian, constant):
        with pytest.raises(ValueError, match="positive and finite"):
            check_domination(brownian, brownian, constant, default_grid)

    def test_equivalence_pair(self, default_grid, fbm_pair):
        perturbed, base = fbm_pair
        # equivalence is domination both ways, each certified on the grid
        assert check_domination(perturbed, base, 1.0, default_grid).holds
        assert check_domination(base, perturbed, 3.0, default_grid).holds


class TestDifferenceDensity:
    def test_requires_certificate(self, default_grid, fbm_pair):
        perturbed, base = fbm_pair
        with pytest.raises(ValueError, match="certificate"):
            difference_density(base, perturbed, 1.0, None)

    def test_rejects_violated_certificate(self, default_grid, brownian):
        cert = check_domination(ScaledDensity(brownian, 2.0), brownian, 1.0,
                                default_grid)
        with pytest.raises(ValueError, match="does not hold"):
            difference_density(brownian, ScaledDensity(brownian, 2.0), 1.0, cert)

    def test_rejects_mismatched_certificate(self, default_grid, fbm_pair):
        perturbed, base = fbm_pair
        cert = check_domination(perturbed, base, 1.0, default_grid)
        with pytest.raises(ValueError, match="match"):
            difference_density(base, perturbed, 2.0, cert)

    def test_residual_values(self, default_grid, fbm_pair):
        perturbed, base = fbm_pair
        cert = check_domination(perturbed, base, 1.0, default_grid)
        residual = difference_density(base, perturbed, 1.0, cert)
        assert isinstance(residual, DifferenceDensity)
        values = residual.evaluate(default_grid.nodes)
        expected = (base.evaluate(default_grid.nodes)
                    - perturbed.evaluate(default_grid.nodes))
        assert np.all(values >= 0.0)
        assert np.allclose(values, np.maximum(expected, 0.0), rtol=1e-12)

    def test_self_difference_vanishes(self, default_grid, brownian):
        cert = check_domination(brownian, brownian, 1.0, default_grid)
        residual = difference_density(brownian, brownian, 1.0, cert)
        assert np.all(residual.evaluate(default_grid.nodes) == 0.0)
