"""Gaussian random fields with stationary increments, from spectral densities.

Simulates fields through the harmonizable representation, builds the
domination-based independent coupling between two fields, and statistically
verifies Anderson-type ball-probability inequalities and the sample-path
comparison they imply.  See the README for the CLI and the config format.
"""

__version__ = "0.1.0"

from .config import COMMANDS, ConfigError, RunConfig, parse_config
from .covariance import CovarianceMatrix, covariance_matrix, power_law_covariance_matrix
from .grids import (FrequencyGrid, PointSet, SpatialGrid, dyadic_frequency_grid,
                    uniform_spatial_grid)
from .norms import HolderNorm, SupNorm
from .rng import hermitian_noise, substream
from .spectral import (AdmissibilityResult, BandLimitedDensity, DifferenceDensity,
                       DominationCertificate, DominationViolation,
                       InadmissibleDensityError,
                       PerturbedDensity, PowerLawDensity, ScaledDensity,
                       SineModulation, SpectralDensity, SumDensity, ZeroDensity,
                       brownian_density, check_admissible, check_domination,
                       difference_density, estimate_min_C,
                       fractional_brownian_density, require_admissible)
from .synthesis import (CouplingSynthesizer, ExactFieldSampler, FieldSample,
                        IndefiniteMatrixError, SpectralSynthesizer)
from .verification import (BallProbabilityEstimate, CouplingLawReport, HurstEstimate,
                           InequalityReport, MCConfig, RadiusComparison,
                           ball_probability_profile, clopper_pearson_lower,
                           clopper_pearson_upper, compare_counts,
                           coupling_norm_quantiles, estimate_holder_exponent,
                           quadratic_variation_profile, verify_anderson_shift,
                           verify_anderson_sum, verify_comparison,
                           verify_coupling_law)
