"""Increment covariance kernels from the variogram.

The kernel of a field with stationary increments is
K(x, x') = int (e^{i x.xi} - 1)(e^{-i x'.xi} - 1) f(xi) dxi
= (V(x) + V(x') - V(x - x')) / 2 with the variogram V of
`spectral.variogram`.  `covariance_matrix` builds K from V for every
density, on a grid and on a point list alike, so both give the same bits
for the same points; `power_law_covariance_matrix` is its unit-variance
power-law case.  Of the frequency grid only the dimension is read.

Every covariance here is a plain (n, n) float array, exactly symmetric, in
the order of its points; the points themselves stay with the caller.  This
module only builds K: `synthesis` factors it and draws from it.
"""

from __future__ import annotations

import numpy as np

from .grids import FrequencyGrid, SpatialGrid
from .spectral import (SpectralDensity, _distinct, fractional_brownian_density,
                       require_admissible, variogram)

# Entries of one row block of K's upper triangle: 1 MiB per temporary.
GRAM_BLOCK_ENTRIES = 1 << 17


def _as_points(points, dimension: int | None = None) -> np.ndarray:
    """Coerce to an (n, d) array of finite floats; a flat list means d = 1."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"points must be an (n, d) array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    if dimension is not None and pts.shape[1] != dimension:
        raise ValueError(f"points have dimension {pts.shape[1]}, expected {dimension}")
    return pts


def _distinct_points(points) -> np.ndarray:
    """_as_points of a point list, refused unless its points are distinct."""
    pts = _as_points(points)
    # lexsort, not np.unique(axis=0), which imports numpy.ma; rows equal
    # under == (so -0.0 == 0.0) are adjacent once sorted
    ordered = pts[np.lexsort(pts.T)] if pts.shape[1] else pts
    if np.any(np.all(ordered[1:] == ordered[:-1], axis=1)):
        raise ValueError("spatial points must be distinct")
    return pts


def _lag_codes(points: np.ndarray) -> tuple | None:
    """(axes, sums): per axis, the count of the distinct squared differences
    of its m distinct coordinates, their (m, m) codes and each point's
    coordinate index; the sums of one squared difference per axis.  None
    unless these are smaller than the n (n + 1) / 2 pairs: never in d = 1,
    where the n distinct points have n coordinates."""
    if points.shape[1] == 1:
        return None
    pairs = len(points) * (len(points) + 1) // 2
    axes, size, sums = [], 0, np.zeros(1)
    for column in points.T:
        values, index = _distinct(column)
        size += len(values) ** 2
        if size > pairs:
            return None
        squares, codes = _distinct((values[:, None] - values[None, :]).ravel() ** 2)
        axes.append((len(squares), codes.reshape(len(values), -1), index))
        sums = np.add.outer(sums, squares).ravel()
    return (axes, sums) if size + len(sums) <= pairs else None


def _variogram_gram(density: SpectralDensity, points: np.ndarray) -> np.ndarray:
    """K = (V(x) + V(x') - V(x - x')) / 2 over an (n, d) point array, by
    row blocks of the upper triangle, each mirrored into the lower one, so K
    is exactly symmetric; V(0) is +0.0, so the origin's row is too.  V reads
    sum_i (x_i - x'_i)^2 alone: on a grid (_lag_codes) V is evaluated once
    on the table of sums and read by each pair's codes, elsewhere pair by
    pair, by the same float operations either way, so to the same bits."""
    n = len(points)
    at_points = variogram(density, points)
    lagged = _lag_codes(points)
    if lagged is not None:
        axes, sums = lagged
        table = variogram(density, np.sqrt(sums))

    def between(top, stop):  # V(x - x') of rows top:stop against columns top:
        if lagged is None:
            lags = (points[top:stop, None] - points[None, top:]).reshape(-1, points.shape[1])
            return variogram(density, lags).reshape(stop - top, -1)
        key = 0
        for count, codes, index in axes:
            key = key * count + codes[np.ix_(index[top:stop], index[top:])]
        return table[key]
    gram = np.empty((n, n))
    rows = max(1, GRAM_BLOCK_ENTRIES // n)
    for top in range(0, n, rows):
        stop = min(top + rows, n)
        block = gram[top:stop, top:]
        np.add(at_points[top:stop, None], at_points[None, top:], out=block)
        block -= between(top, stop)
        block *= 0.5
        gram[stop:, top:stop] = gram[top:stop, stop:].T
        corner = gram[top:stop, top:stop]
        lower = np.tril_indices(stop - top, -1)
        corner[lower] = corner.T[lower]
    return gram


def covariance_matrix(density: SpectralDensity, points,
                      grid: FrequencyGrid) -> np.ndarray:
    """The (n, n) covariance K of the density's field on a SpatialGrid or on
    a list of distinct points, from the variogram: bitwise the same for a
    grid and for its points.  The density must be admissible, and of the
    dimension of `grid` (spectral.require_admissible)."""
    require_admissible(density, grid)
    if isinstance(points, SpatialGrid):  # distinct by construction: check d only
        pts = _as_points(points.points, grid.dimension)
    else:
        pts = _distinct_points(_as_points(points, grid.dimension))
    return _variogram_gram(density, pts)


def power_law_covariance_matrix(points, hurst: float) -> np.ndarray:
    """Closed-form (n, n) covariance of the unit-variance power-law field on
    a list of distinct points: 0.5 (|x|^2H + |x'|^2H - |x - x'|^2H)."""
    pts = _distinct_points(points)
    return _variogram_gram(fractional_brownian_density(hurst, pts.shape[1]), pts)
