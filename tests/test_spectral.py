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
    """f(xi) = 1/|xi| in d = 1, with no term list."""

    dimension = 1
    family = "test-inverse"

    def evaluate(self, xi):
        return 1.0 / np.abs(np.asarray(xi)[:, 0])


class SteepDensity(SpectralDensity):
    """f(xi) = |xi|^(-3.4) in d = 1: a power-law term at H = 1.2, whose
    integral diverges at 0."""

    dimension = 1
    family = "test-steep"

    def evaluate(self, xi):
        with np.errstate(divide="ignore"):
            return np.abs(np.asarray(xi)[:, 0]) ** -3.4

    def terms(self):
        return (sf.spectral.SpectralTerm(1.0, 1.2),)


# a band with no upper edge, and a power law past H = 1
DIVERGENT = (BandLimitedDensity(1, 0.0, np.inf), SteepDensity())


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

    def test_inverse_density_without_terms_is_refused_by_name(self, default_grid):
        for check in (check_admissible, require_admissible):
            with pytest.raises(TypeError, match="InverseDensity gives no term list"):
                check(InverseDensity(), default_grid)

    def test_slowly_decaying_power_law_is_admissible(self, default_grid):
        # annulus contributions shrink by only 2^(-0.06) per step at the
        # high end, and the grid holds about 60% of the integral; the term
        # rule decides, and the grid sum is still the report
        density = PowerLawDensity(1, 0.03, 1.0)
        result = check_admissible(density, default_grid)
        assert result.status == "admissible" and result.detail == ""
        radii = default_grid.radii()
        terms = default_grid.weights * np.minimum(1.0, radii) ** 2 * radii ** -1.06
        expected = np.bincount(default_grid.annulus, weights=terms)
        assert np.allclose(result.contributions, expected, rtol=1e-13, atol=0.0)
        assert result.value == float(np.sum(result.contributions))

    @pytest.mark.parametrize("density", DIVERGENT, ids=["open-band", "steep"])
    def test_divergent_term_is_named(self, default_grid, density):
        result = check_admissible(density, default_grid)
        assert result.status == "inadmissible" and result.value is None
        assert str(density.terms()[0]) in result.detail
        assert len(result.contributions) == default_grid.n_annuli

    @pytest.mark.parametrize("density", DIVERGENT, ids=["open-band", "steep"])
    def test_sampling_and_covariance_refuse_the_term(self, default_grid, density):
        space = sf.uniform_spatial_grid(1, 8)
        for build in (lambda: sf.SpectralSynthesizer(density, default_grid, space),
                      lambda: sf.covariance_matrix(density, [0.5], default_grid)):
            with pytest.raises(InadmissibleDensityError) as caught:
                build()
            assert str(density.terms()[0]) in str(caught.value)

    def test_admissibility_monotone_in_the_density(self, default_grid):
        small = check_admissible(brownian_density(), default_grid).value
        big = check_admissible(ScaledDensity(brownian_density(), 3.0),
                               default_grid).value
        assert np.isclose(big, 3.0 * small, rtol=1e-12)
        assert big >= small

    def test_dimension_mismatch(self, default_grid):
        with pytest.raises(ValueError, match="mismatch"):
            check_admissible(ZeroDensity(2), default_grid)

    def test_require_admissible_passes_an_admissible_density(self, default_grid):
        assert require_admissible(brownian_density(), default_grid) is None

    @pytest.mark.parametrize("density", DIVERGENT, ids=["open-band", "steep"])
    def test_require_admissible_rejects_inadmissible(self, default_grid, density):
        with pytest.raises(InadmissibleDensityError, match="inadmissible") as caught:
            require_admissible(density, default_grid)
        assert str(density.terms()[0]) in str(caught.value)

    def test_require_admissible_reads_no_grid_node(self):
        # the power law overflows at 2^-1022, where the grid report is a
        # range error; the gate decides from the terms alone
        grid = sf.dyadic_frequency_grid(1, -1022, -1020, 4)
        density = PowerLawDensity(1, 0.03, 1.0)
        assert require_admissible(density, grid) is None
        with pytest.raises(ValueError, match="not finite in float64"):
            check_admissible(density, grid)

    def test_overflowing_grid_sum_is_a_range_error(self, default_grid):
        # every node's term is finite, 3.1e306 on [1, 2), but their sum is not
        density = BandLimitedDensity(1, 1.0, 2.0, 1e308)
        require_admissible(density, default_grid)
        with pytest.raises(ValueError, match="grid sum of density .* is not finite"):
            check_admissible(density, default_grid)


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


# --------------------------------------------------------------------------
# term lists and the closed-form variogram


C_K = (1.0, -0.5, -0.5)


def quad_power_variogram(hurst, trig, omega, lag):
    """4 int_0^inf (1 - cos h r) r^(-1-2H) trig(omega r) dr by quadrature:
    r^(1-2H) (r^(2-2H) for sin) times a smooth factor on [0, 1] with an
    algebraic weight, and each trig(a r) r^(-1-2H) of the expanded product
    on [1, inf) with an oscillatory weight."""
    def second_difference(r):  # (1 - cos h r) / r^2, finite at r = 0
        return lag ** 2 / 2 * np.sinc(lag * r / (2 * np.pi)) ** 2
    if trig == "cos":
        smooth = lambda r: second_difference(r) * np.cos(omega * r)
        alpha = 1 - 2 * hurst
    else:  # sin(omega r) / r
        smooth = lambda r: second_difference(r) * omega * np.sinc(omega * r / np.pi)
        alpha = 2 - 2 * hurst
    with warnings.catch_warnings():  # tolerances past what QUADPACK promises
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        head = integrate.quad(smooth, 0, 1, weight="alg", wvar=(alpha, 0), epsabs=1e-15,
                              epsrel=1e-13, limit=200)[0]
        tail = 0.0
        for c, a in zip(C_K, (omega, omega + lag, omega - lag)):
            if a == 0:
                tail += c / (2 * hurst) if trig == "cos" else 0.0
                continue
            sign = np.sign(a) if trig == "sin" else 1.0
            tail += c * sign * integrate.quad(lambda r: r ** (-1 - 2 * hurst), 1, np.inf,
                                              weight=trig, wvar=abs(a), epsabs=1e-14,
                                              limlst=1000)[0]
    return 4 * (head + tail)


class TestTermLists:
    def test_families_are_sums_of_terms(self):
        base = fractional_brownian_density(0.7)
        (power,) = base.terms()
        assert (power.weight, power.hurst, power.trig, power.omega) == (base.scale, 0.7,
                                                                       "cos", 0.0)
        # (2 + sin r) / 3 times the base: a power term and a sine-modulated one
        plain, sine = PerturbedDensity(base, SineModulation(2.0, 1.0, scale=3.0)).terms()
        assert (plain.trig, plain.omega, sine.trig, sine.omega) == ("cos", 0.0, "sin", 1.0)
        assert plain.weight == base.scale * 2.0 / 3.0 and sine.weight == base.scale / 3.0
        (band,) = BandLimitedDensity(1, 0.5, 2.0, 3.0).terms()
        assert (band.weight, band.hurst, band.lo, band.hi) == (3.0, None, 0.5, 2.0)
        assert ScaledDensity(base, 2.0).terms()[0].weight == 2.0 * base.scale
        assert len(SumDensity(base, BandLimitedDensity(1, 0.5, 2.0)).terms()) == 2
        assert ZeroDensity(1).terms() == ()

    def test_products_of_modulations_split_by_frequency(self):
        # (1 + sin 2r)(1 + sin r): sin(2r) sin(r) = (cos r - cos 3r) / 2
        once = PerturbedDensity(brownian_density(), SineModulation(1.0, 1.0))
        twice = PerturbedDensity(once, SineModulation(1.0, 1.0, frequency=2.0))
        shapes = {(t.trig, t.omega): t.weight for t in twice.terms()}
        w = brownian_density().scale
        assert shapes == {("cos", 0.0): w, ("sin", 1.0): w, ("sin", 2.0): w,
                          ("cos", 1.0): w / 2, ("cos", 3.0): -w / 2}

    def test_residual_is_linear_and_self_difference_is_empty(self, default_grid,
                                                             fbm_pair):
        perturbed, base = fbm_pair
        cert = check_domination(perturbed, base, 1.0, default_grid)
        plain, sine = difference_density(base, perturbed, 1.0, cert).terms()
        assert plain.weight == base.scale - base.scale * 2.0 / 3.0
        assert sine.weight == -base.scale / 3.0
        cert = check_domination(base, base, 1.0, default_grid)
        assert difference_density(base, base, 1.0, cert).terms() == ()

    def test_a_subclass_without_terms_is_refused_by_name(self):
        with pytest.raises(TypeError, match="InverseDensity gives no term list"):
            sf.spectral.variogram(InverseDensity(), [0.5])

    def test_every_plane_term_has_a_variogram(self):
        plane = fractional_brownian_density(0.5, 2)
        lags = [[0.0, 0.0], [0.5, 0.0], [0.3, 0.4]]
        for density in (PerturbedDensity(plane, SineModulation(2.0, 1.0)),
                        BandLimitedDensity(2, 0.0, 4.0),
                        PerturbedDensity(BandLimitedDensity(2, 0.0, 4.0),
                                         SineModulation(1.0, 1.0))):
            value = sf.spectral.variogram(density, lags)
            assert value[0] == 0.0 and not np.signbit(value[0])
            assert np.all(np.isfinite(value)) and np.all(value[1:] > 0.0)
            assert value[1] == value[2]  # |(0.5, 0)| = |(0.3, 0.4)| exactly


class OneTerm(SpectralDensity):
    """A density given by one SpectralTerm in d = 1."""

    dimension = 1
    family = "test-term"

    def __init__(self, term):
        self.term = term

    def terms(self):
        return (self.term,)


class PlaneTerm(OneTerm):
    """A density given by one SpectralTerm in d = 2."""

    dimension = 2


class TestVariogram:
    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 0.7])
    @pytest.mark.parametrize("trig", ["cos", "sin"])
    def test_modulated_terms_match_quadrature(self, hurst, trig):
        # the textbook Mellin form of the sine is 0 * inf at H = 1/2, and off
        # by 9e-6 relative at H = 1/2 + 1e-9.  At lags below omega the cosine
        # term vanishes at H = 1/2, so there every term is also held to the
        # size of the unmodulated one
        for omega in (1.0, 2.0):
            term = sf.spectral.SpectralTerm(1.5, hurst, trig, omega)
            for lag in (0.5, 3.5, 7.3):
                value = sf.spectral.variogram(OneTerm(term), [lag])[0]
                expected = 1.5 * quad_power_variogram(hurst, trig, omega, lag)
                plain = sf.spectral.variogram(PowerLawDensity(1, hurst, 1.5), [lag])[0]
                assert abs(value - expected) <= 1e-12 * plain
                if lag > omega:
                    assert abs(value - expected) <= 1e-10 * abs(expected)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("trig,omega", [("cos", 0.0), ("cos", 1.0), ("sin", 1.0),
                                            ("cos", 3.0), ("sin", 3.0)])
    def test_band_terms_match_quadrature(self, trig, omega):
        # relative to the unmodulated band, which bounds the modulated one
        shape = np.cos if trig == "cos" else np.sin
        for lo, hi in ((0.0, 20.0), (1.0, 2.0), (0.5, 7.0)):
            term = sf.spectral.SpectralTerm(2.5, None, trig, omega, lo, hi)
            for lag in (1e-6, 1e-4, 0.1, 0.5, 1.4, 2.0, 7.3):
                value = sf.spectral.variogram(OneTerm(term), [lag])[0]

                def integrand(r):
                    return 2 * np.sin(lag * r / 2) ** 2 * shape(omega * r)
                expected = 4 * 2.5 * integrate.quad(integrand, lo, hi, limit=1000,
                                                    epsabs=0, epsrel=1e-13)[0]
                envelope = 4 * 2.5 * integrate.quad(lambda r: 2 * np.sin(lag * r / 2) ** 2,
                                                    lo, hi, epsabs=0, epsrel=1e-13)[0]
                assert abs(value - expected) <= 1e-12 * envelope
                if trig == "cos" and omega == 0.0:
                    assert abs(value - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_power_law_is_the_unit_variance_power(self, dimension):
        lags = np.array([0.0, 0.25, 1.0, 3.0])
        for hurst in (0.1, 0.5, 0.9):
            f = fractional_brownian_density(hurst, dimension)
            vectors = np.column_stack([lags] + [np.zeros(4)] * (dimension - 1))
            value = sf.spectral.variogram(f, vectors)
            assert np.allclose(value, lags ** (2 * hurst), rtol=1e-15, atol=0)
            assert value[0] == 0.0 and not np.signbit(value[0])

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("omega", [1e-3, 0.05])
    @pytest.mark.parametrize("trig", ["cos", "sin"])
    def test_slowly_modulated_band_matches_quadrature(self, trig, omega):
        # omega (hi - lo) << 1: a closed form in the three frequencies
        # omega and omega +- h differences terms of size h^2 / omega^3 here
        shape = np.cos if trig == "cos" else np.sin
        term = sf.spectral.SpectralTerm(2.5, None, trig, omega, 1.0, 2.0)
        lags = np.geomspace(1e-6, 7.3, 25)
        values = sf.spectral.variogram(OneTerm(term), lags)
        for lag, value in zip(lags, values):
            expected = 4 * 2.5 * integrate.quad(
                lambda r: 2 * np.sin(lag * r / 2) ** 2 * shape(omega * r), 1.0, 2.0,
                epsabs=0, epsrel=1e-13)[0]
            envelope = 4 * 2.5 * integrate.quad(lambda r: 2 * np.sin(lag * r / 2) ** 2,
                                                1.0, 2.0, epsabs=0, epsrel=1e-13)[0]
            assert abs(value - expected) <= 1e-12 * envelope


def hypergeometric_variogram(weight, hurst, trig, omega, lags):
    """4 pi w int_0^inf (1 - J0(h r)) r^(-2H-1) trig(omega r) dr, the
    variogram of a modulated power-law term in d = 2, from Gradshteyn &
    Ryzhik 6.621.1 continued to mu = -2H: with a = -i omega,
    int_0^inf (1 - J0(h r)) r^(mu-1) e^(-a r) dr
    = Gamma(mu) a^(-mu) (1 - 2F1(mu/2, (mu+1)/2; 1; -h^2/a^2)), and
    -h^2/a^2 = h^2/omega^2 - i0.  Its real part is the cosine term, its
    imaginary part the sine term.  (Gamma(mu) has a pole at H = 1/2.)"""
    mu = -2.0 * hurst
    z = (np.asarray(lags) / omega) ** 2 - 1e-300j
    value = (special.gamma(mu) * omega ** -mu * np.exp(0.5j * np.pi * mu)
             * (1.0 - special.hyp2f1(0.5 * mu, 0.5 * (mu + 1.0), 1.0, z)))
    return 4 * np.pi * weight * (value.real if trig == "cos" else value.imag)


def angular_quadrature_variogram(term, lags):
    """2 int_0^(pi/2) V1(h cos t) dt by scipy.integrate.quad, V1 the 1-d
    variogram of the same term, with the kink of V1 at h cos t = omega as a
    break point."""
    line = OneTerm(term)
    out = []
    for lag in lags:
        kink = [np.arccos(term.omega / lag)] if lag > term.omega else None
        out.append(2 * integrate.quad(
            lambda t: sf.spectral.variogram(line, [lag * np.cos(t)])[0], 0.0, np.pi / 2,
            points=kink, epsabs=1e-14, epsrel=1e-13, limit=200)[0])
    return np.array(out)


class TestPlaneVariogram:
    """Every term in d = 2: a modulated power law by the graded angular rule
    over its 1-d closed form, bands through J0 and J1."""

    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("trig", ["cos", "sin"])
    def test_modulated_power_terms_match_the_hypergeometric_form(self, trig, hurst):
        # at H = 1/2, where Gamma(mu) has its pole, quad in angle instead;
        # there the cosine term vanishes at lags below omega, so it is held
        # to the size of the unmodulated term
        lags = np.geomspace(1e-3, np.sqrt(2), 40 if hurst != 0.5 else 12)
        plain = sf.spectral.variogram(PowerLawDensity(2, hurst, 1.5), lags[-1:])[0]
        for omega in (0.5, 1.0, 3.0):
            term = sf.spectral.SpectralTerm(1.5, hurst, trig, omega)
            values = sf.spectral.variogram(PlaneTerm(term), lags)
            expected = (angular_quadrature_variogram(term, lags) if hurst == 0.5
                        else hypergeometric_variogram(1.5, hurst, trig, omega, lags))
            scale = np.max(np.abs(expected))
            if hurst == 0.5 and trig == "cos":
                scale = max(scale, plain)
            assert np.max(np.abs(values - expected)) <= 1e-10 * scale

    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_angular_rule_at_omega_zero_is_the_plane_power_law(self, hurst):
        # the rule's worst case: V1 = h^2H cos^2H t is singular at t = pi/2
        term = sf.spectral.SpectralTerm(1.5, hurst)
        lags = np.geomspace(1e-3, 4.0, 50)
        rule = sf.spectral._plane_power_term(term, lags)
        closed = sf.spectral._power_term(term, lags, 2)
        assert np.max(np.abs(rule / closed - 1.0)) <= 1e-13

    def test_symmetric_in_the_axes_bitwise(self):
        lags = np.random.default_rng(5).uniform(-1.5, 1.5, (500, 2))
        plane = fractional_brownian_density(0.3, 2)
        band = BandLimitedDensity(2, 0.5, 8.0)
        for density in (PerturbedDensity(plane, SineModulation(2.0, 1.0, scale=3.0)),
                        band, PerturbedDensity(band, SineModulation(1.0, 1.0))):
            values = sf.spectral.variogram(density, lags)
            assert values.tobytes() == sf.spectral.variogram(density, lags[:, ::-1]).tobytes()
            assert values.tobytes() == sf.spectral.variogram(density, -lags).tobytes()

    def test_bessel_functions_match_scipy(self):
        # the periodic rule below 40 and Hankel's expansion above it
        x = np.concatenate([np.linspace(0.0, 60.0, 120_001), np.geomspace(1e-8, 1e7, 20_001),
                            np.random.default_rng(3).uniform(0.0, 1e7, 20_000)])
        j0 = 1.0 - sf.spectral._bessel(x, 0)
        assert np.max(np.abs(j0 - special.j0(x))) <= 2e-15
        assert np.max(np.abs(sf.spectral._bessel(x, 1) - special.j1(x))) <= 2e-15

    @pytest.mark.parametrize("outer", [1.0, 64.0, 1024.0])
    def test_unmodulated_band_is_the_j1_closed_form(self, outer):
        lags = np.geomspace(1e-3, np.sqrt(2), 60)
        for inner in (0.0, 0.5):
            band = BandLimitedDensity(2, inner, outer, 2.5)
            values = sf.spectral.variogram(band, lags)
            expected = 4 * np.pi * 2.5 * (
                (outer ** 2 - inner ** 2) / 2
                - (outer * special.j1(lags * outer) - inner * special.j1(lags * inner)) / lags)
            assert np.max(np.abs(values - expected)) <= 1e-10 * np.max(expected)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("trig,omega", [("cos", 1.0), ("sin", 1.0), ("sin", 3.0)])
    def test_modulated_band_matches_quadrature(self, trig, omega):
        shape = np.cos if trig == "cos" else np.sin
        term = sf.spectral.SpectralTerm(2.5, None, trig, omega, 0.5, 7.0)
        lags = np.array([1e-3, 0.1, 0.5, 1.0, np.sqrt(2)])
        values = sf.spectral.variogram(PlaneTerm(term), lags)
        expected = [4 * np.pi * 2.5 * integrate.quad(
            lambda r: r * (1 - special.j0(lag * r)) * shape(omega * r), 0.5, 7.0,
            limit=200, epsabs=0, epsrel=1e-13)[0] for lag in lags]
        assert np.max(np.abs(values - expected)) <= 1e-8 * np.max(np.abs(expected))

    def test_a_band_rule_past_its_panel_budget_is_refused(self):
        # one panel per period of omega + h across the band: 1.6e8 panels
        # here, refused before the nodes are allocated
        term = sf.spectral.SpectralTerm(1.0, None, "sin", 1.0, 0.0, 1e6)
        with pytest.raises(ValueError, match="needs 159314099 panels .* at most 65536"):
            sf.spectral.variogram(OneTerm(term), [1e3])
