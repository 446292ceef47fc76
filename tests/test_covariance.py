import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specfield as sf
from specfield import (CovarianceMatrix, InadmissibleDensityError,
                       PowerLawDensity, ZeroDensity, check_domination,
                       coupling_covariance, covariance_matrix, dyadic_frequency_grid,
                       increment_covariance, power_law_covariance_matrix,
                       power_law_increment_covariance)


class TestBrownianOracle:
    def test_increments_match_min(self, default_grid, brownian):
        # closed form: K(x, x') = min(x, x') for x, x' >= 0
        for x in (0.25, 0.5, 0.75, 1.0):
            for y in (0.25, 0.5, 0.75, 1.0):
                value = increment_covariance(brownian, x, y, default_grid)
                assert np.isclose(value, min(x, y), rtol=0.01)

    def test_refinement_shrinks_the_error(self, brownian):
        # richer quadrature must track the closed form markedly better
        coarse = dyadic_frequency_grid(1, -9, 9, 8)
        fine = dyadic_frequency_grid(1, -10, 10, 16)
        pairs = [(0.25, 0.75), (0.5, 0.5), (0.25, 1.0)]
        err = {id(g): 0.0 for g in (coarse, fine)}
        for g in (coarse, fine):
            for x, y in pairs:
                err[id(g)] = max(err[id(g)],
                                 abs(increment_covariance(brownian, x, y, g)
                                     - min(x, y)))
        assert err[id(fine)] <= 0.5 * err[id(coarse)]


class TestPowerLawOracle:
    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    def test_matrix_matches_closed_form(self, default_grid, hurst):
        f = sf.fractional_brownian_density(hurst)
        points = [0.5, 1.0]
        matrix = covariance_matrix(f, points, default_grid)
        closed = power_law_covariance_matrix(points, hurst)
        assert np.allclose(matrix.entries, closed.entries, rtol=0.02)

    def test_closed_form_diagonal_is_the_variogram(self):
        points = np.array([0.3, 0.6, 1.0])
        matrix = power_law_covariance_matrix(points, 0.4)
        assert np.allclose(np.diag(matrix.entries), points ** 0.8, rtol=1e-12)

    def test_increment_closed_form_scalar_and_batch(self):
        single = power_law_increment_covariance(0.5, 1.0, 0.5)
        assert np.isclose(single, 0.5, rtol=1e-12)  # Brownian min
        batch = power_law_increment_covariance([0.5, 0.25], [1.0, 0.75], 0.5)
        assert np.allclose(batch, [0.5, 0.25], rtol=1e-12)


class TestKernelStructure:
    @given(x=st.floats(-2.0, 2.0), y=st.floats(-2.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_stationary_increment_identity(self, default_grid, x, y):
        # K(x, x') = (v(x) + v(x') - v(x - x'))/2 with v(u) = K(u, u); the
        # quadrature inherits the identity node by node, so it holds to roundoff
        f = sf.fractional_brownian_density(0.35)
        k = increment_covariance(f, x, y, default_grid)
        v = {u: increment_covariance(f, u, u, default_grid) for u in (x, y, x - y)}
        combined = 0.5 * (v[x] + v[y] - v[x - y])
        assert np.isclose(k, combined, rtol=1e-9, atol=1e-9)

    def test_value_at_origin_is_zero(self, default_grid, brownian):
        assert increment_covariance(brownian, 0.0, 0.7, default_grid) == 0.0
        assert increment_covariance(brownian, 0.0, 0.0, default_grid) == 0.0

    def test_admissibility_gate(self, default_grid):
        with pytest.raises(InadmissibleDensityError):
            increment_covariance(PowerLawDensity(1, 0.03, 1.0), 0.5, 0.5,
                                 default_grid)

    def test_dimension_mismatch(self, default_grid):
        f2 = sf.fractional_brownian_density(0.5, dimension=2)
        with pytest.raises(ValueError):
            increment_covariance(f2, 0.5, 0.5, default_grid)


class TestCovarianceMatrix:
    def test_matrix_is_exactly_symmetric(self, default_grid, brownian):
        matrix = covariance_matrix(brownian, np.linspace(0, 1, 9), default_grid)
        assert np.array_equal(matrix.entries, matrix.entries.T)

    def test_origin_row_exactly_zero(self, default_grid, brownian):
        matrix = covariance_matrix(brownian, np.linspace(0, 1, 9), default_grid)
        oi = matrix.origin_index
        assert oi == 0
        assert np.all(matrix.entries[oi] == 0.0)
        assert np.all(matrix.entries[:, oi] == 0.0)

    def test_origin_absent(self, default_grid, brownian):
        matrix = covariance_matrix(brownian, [0.25, 0.5], default_grid)
        assert matrix.origin_index is None

    def test_eigenvalue_floor(self, default_grid, brownian):
        for density, points in [(brownian, np.linspace(0, 1, 8)),
                                (sf.fractional_brownian_density(0.7),
                                 np.linspace(0, 1, 16))]:
            matrix = covariance_matrix(density, points, default_grid)
            assert matrix.min_eigenvalue() >= -matrix.psd_floor

    def test_matches_pointwise_increments(self, default_grid, brownian):
        points = [0.25, 0.5, 1.0]
        matrix = covariance_matrix(brownian, points, default_grid)
        for i, x in enumerate(points):
            for j, y in enumerate(points):
                expected = increment_covariance(brownian, x, y, default_grid)
                assert np.isclose(matrix.entries[i, j], expected, rtol=1e-12,
                                  atol=1e-15)

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError, match="distinct"):
            CovarianceMatrix(np.array([[0.5], [0.5]]), np.eye(2), "d", "g")

    def test_rejects_asymmetric_entries(self):
        entries = np.array([[1.0, 0.2], [0.200001, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceMatrix(np.array([[0.0], [1.0]]), entries, "d", "g")

    def test_rejects_nonfinite_entries(self):
        entries = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            CovarianceMatrix(np.array([[0.0], [1.0]]), entries, "d", "g")

    def test_rejects_negative_diagonal(self):
        entries = np.array([[-1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="diagonal"):
            CovarianceMatrix(np.array([[0.0], [1.0]]), entries, "d", "g")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            CovarianceMatrix(np.array([[0.0], [1.0]]), np.eye(3), "d", "g")


class TestCouplingKernel:
    def make_cert(self, grid, fx, fy, constant=1.0):
        return check_domination(fx, fy, constant, grid)

    def test_requires_certificate(self, default_grid, fbm_pair):
        perturbed, base = fbm_pair
        with pytest.raises(ValueError, match="certificate"):
            coupling_covariance(perturbed, base, (0.5, 1.0, 0.0), (0.5, 1.0, 0.0),
                                default_grid, None)

    def test_rejects_nonunit_constant(self, default_grid, fbm_pair):
        perturbed, base = fbm_pair
        cert = self.make_cert(default_grid, perturbed, base, 3.0)
        with pytest.raises(ValueError, match="constant 1"):
            coupling_covariance(perturbed, base, (0.5, 1.0, 0.0), (0.5, 1.0, 0.0),
                                default_grid, cert)

    def test_orthogonal_components_give_zero(self, default_grid, fbm_pair):
        perturbed, base = fbm_pair
        cert = self.make_cert(default_grid, perturbed, base)
        value = coupling_covariance(perturbed, base, (0.5, 1.0, 0.0),
                                    (0.75, 0.0, 1.0), default_grid, cert)
        assert value == 0.0

    def test_first_component_reduces_to_dominated_kernel(self, default_grid,
                                                         fbm_pair):
        perturbed, base = fbm_pair
        cert = self.make_cert(default_grid, perturbed, base)
        value = coupling_covariance(perturbed, base, (0.5, 1.0, 0.0),
                                    (0.75, 1.0, 0.0), default_grid, cert)
        direct = increment_covariance(perturbed, 0.5, 0.75, default_grid)
        assert value == direct

    def test_identical_densities_reproduce_dominating_kernel(self, default_grid,
                                                             brownian):
        cert = self.make_cert(default_grid, brownian, brownian)
        value = coupling_covariance(brownian, brownian, (0.5, 1.0, 1.0),
                                    (0.75, 1.0, 1.0), default_grid, cert)
        direct = increment_covariance(brownian, 0.5, 0.75, default_grid)
        assert np.isclose(value, direct, rtol=1e-10, atol=1e-10)

    def test_full_components_sum_the_two_kernels(self, default_grid, fbm_pair):
        perturbed, base = fbm_pair
        cert = self.make_cert(default_grid, perturbed, base)
        value = coupling_covariance(perturbed, base, (0.5, 2.0, 1.0),
                                    (0.75, 0.5, 3.0), default_grid, cert)
        residual = sf.difference_density(base, perturbed, 1.0, cert)
        expected = (2.0 * 0.5 * increment_covariance(perturbed, 0.5, 0.75,
                                                     default_grid)
                    + 1.0 * 3.0 * increment_covariance(residual, 0.5, 0.75,
                                                       default_grid))
        assert np.isclose(value, expected, rtol=1e-12)

    def test_extended_kernel_is_positive_semidefinite(self, default_grid,
                                                      fbm_pair):
        perturbed, base = fbm_pair
        cert = self.make_cert(default_grid, perturbed, base)
        rng = np.random.default_rng(7)
        triples = [(x, y1, y2)
                   for x in (0.25, 0.7)
                   for (y1, y2) in rng.normal(size=(3, 2))]
        n = len(triples)
        gram = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                gram[i, j] = gram[j, i] = coupling_covariance(
                    perturbed, base, triples[i], triples[j], default_grid, cert)
        eigmin = np.linalg.eigvalsh(gram)[0]
        assert eigmin >= -1e-8 * np.max(np.diag(gram))


class TestPlaneKernel:
    def test_variance_at_unit_vectors_matches(self, grid_2d):
        f = sf.fractional_brownian_density(0.5, dimension=2)
        v1 = increment_covariance(f, (1.0, 0.0), (1.0, 0.0), grid_2d)
        v2 = increment_covariance(f, (0.0, 1.0), (0.0, 1.0), grid_2d)
        # isotropy: the two variances agree far inside quadrature error
        assert np.isclose(v1, v2, rtol=1e-6)

    def test_matrix_on_square_grid(self, grid_2d):
        f = sf.fractional_brownian_density(0.5, dimension=2)
        pts = sf.uniform_spatial_grid(2, 3).points
        matrix = covariance_matrix(f, pts, grid_2d)
        assert matrix.size == 9
        assert np.array_equal(matrix.entries, matrix.entries.T)
        assert matrix.min_eigenvalue() >= -matrix.psd_floor
