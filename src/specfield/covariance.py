"""Increment covariance kernels by quadrature, plus closed-form oracles.

The kernel of a field with stationary increments is
K(x, x') = int (e^{i x.xi} - 1)(e^{-i x'.xi} - 1) f(xi) dxi,
approximated here as a weighted sum over a symmetric dyadic grid.  With f
even, each (xi, -xi) pair of nodes contributes a real term, so the sum runs
over the grid's stored node per pair as K = R R^T with the real factor R of
`spectral_factor`, which the spectral synthesizer shares.  `quadrature_gram`
forms K chunk by chunk of node pairs, so no more than BLOCK_BYTES of R exists
at once.

Closed forms for the power-law (fractional-Brownian) family live here too,
both as test oracles and as the input to the exact-factorization sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import FrequencyGrid
from .spectral import SpectralDensity, require_admissible

# Eigenvalue floor scale: quadrature matrices may dip this far below zero.
PSD_NOISE_FACTOR = 1e-8

# Bytes of one chunk of the spectral factor, and of one replica block of
# noise.
BLOCK_BYTES = 8 << 20


def block_rows(width: int) -> int:
    """Rows of `width` float64 values that fit in BLOCK_BYTES (at least one)."""
    return max(1, BLOCK_BYTES // (8 * width))


def _as_points(points, dimension: int | None = None) -> np.ndarray:
    """Coerce to an (n, d) float array; a flat list means d = 1."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"points must be an (n, d) array, got shape {pts.shape}")
    if dimension is not None and pts.shape[1] != dimension:
        raise ValueError(f"points have dimension {pts.shape[1]}, expected {dimension}")
    return pts


def spectral_factor(density: SpectralDensity, points: np.ndarray,
                    grid: FrequencyGrid, pairs: slice = slice(None)) -> np.ndarray:
    """Real (n, grid.size) quadrature factor R over n points, or its columns
    for the stored nodes `pairs` selects.

    Column pair (2k, 2k+1) belongs to the k-th stored node xi, which stands
    for the pair (xi, -xi) and carries its weight w, and holds
    sqrt(w f)(xi) * (cos(x.xi) - 1, -sin(x.xi)).  This folds the Hermitian
    sum over the pair into one real term, which relies on f being even.
    Then R R^T is the quadrature kernel, and R times grid.size standard
    normals, read in order as one pair (a, b) per stored node, is the
    harmonizable sum against zeta = (a + ib)/sqrt(2) on xi (so
    E|zeta|^2 = 1) and conj(zeta) on -xi.
    """
    nodes = grid.nodes[pairs]
    amplitude = np.sqrt(grid.weights[pairs] * density.evaluate(nodes))
    phase = points @ nodes.T
    factor = np.empty((phase.shape[0], 2 * phase.shape[1]))
    factor[:, 0::2] = (np.cos(phase) - 1.0) * amplitude
    factor[:, 1::2] = -np.sin(phase) * amplitude
    return factor


def quadrature_gram(density: SpectralDensity, points: np.ndarray,
                    grid: FrequencyGrid) -> np.ndarray:
    """The quadrature kernel R R^T on n points, exactly symmetric.

    Summed as R_c R_c^T over chunks R_c of node pairs within BLOCK_BYTES, so
    memory is O(n^2) plus one chunk whatever the grid size.  Each chunk adds
    only the row blocks of the upper triangle, and the lower triangle is
    mirrored from the upper one, so symmetry is exact rather than a float
    coincidence.
    """
    n = points.shape[0]
    pairs = block_rows(2 * n)
    rows = block_rows(n)
    gram = np.zeros((n, n))
    for start in range(0, len(grid.nodes), pairs):
        chunk = spectral_factor(density, points, grid, slice(start, start + pairs))
        for top in range(0, n, rows):
            gram[top:top + rows, top:] += chunk[top:top + rows] @ chunk[top:].T
    gram = np.triu(gram)
    gram += np.triu(gram, 1).T
    return gram


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Dense increment-covariance matrix over a list of spatial points.

    Symmetry is exact by construction (each pair computed once).  The
    eigenvalue floor (>= -PSD_NOISE_FACTOR * max diagonal) is enforced where
    matrices are factorized, not eagerly here: an eigendecomposition per
    construction would dominate the runtime of large closed-form matrices.
    """

    points: np.ndarray          # (n, d)
    entries: np.ndarray         # (n, n) real
    density_label: str
    grid_label: str

    def __post_init__(self):
        pts = _as_points(self.points)
        entries = np.asarray(self.entries, dtype=float)
        n = pts.shape[0]
        if entries.shape != (n, n):
            raise ValueError(f"entries shape {entries.shape} does not match {n} points")
        if np.unique(pts, axis=0).shape[0] != n:
            raise ValueError("spatial points must be distinct")
        if not np.all(np.isfinite(entries)):
            raise ValueError("covariance entries must be finite")
        if not np.array_equal(entries, entries.T):
            raise ValueError("covariance entries are not exactly symmetric")
        if np.any(np.diag(entries) < 0):
            raise ValueError("covariance diagonal must be nonnegative")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "entries", entries)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def origin_index(self) -> int | None:
        """Index of the origin among the points, or None."""
        hits = np.flatnonzero(np.all(self.points == 0.0, axis=1))
        return int(hits[0]) if hits.size else None

    @property
    def psd_floor(self) -> float:
        diag_max = float(np.max(np.diag(self.entries), initial=0.0))
        return PSD_NOISE_FACTOR * diag_max

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])


def covariance_matrix(density: SpectralDensity, points,
                      grid: FrequencyGrid) -> CovarianceMatrix:
    """Assemble the quadrature covariance matrix on a point list."""
    require_admissible(density, grid)
    pts = _as_points(points, grid.dimension)
    return CovarianceMatrix(pts, quadrature_gram(density, pts, grid), density.label,
                            grid.grid_id)


# --------------------------------------------------------------------------
# closed forms for the power-law family


def power_law_covariance_matrix(points, hurst: float) -> CovarianceMatrix:
    """Closed-form covariance matrix of the unit-variance power-law field."""
    pts = _as_points(points)
    r = np.sqrt(np.sum(pts ** 2, axis=1))
    diff = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2))
    h2 = 2.0 * hurst
    raw = 0.5 * (r[:, None] ** h2 + r[None, :] ** h2 - diff ** h2)
    sym = np.triu(raw) + np.triu(raw, 1).T
    return CovarianceMatrix(pts, sym, f"power-law-closed-form(H={hurst!r})",
                            "closed-form")
