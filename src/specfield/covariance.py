"""Increment covariance kernels: the exact law from the variogram, and the
quadrature law where the variogram has no closed form.

The kernel of a field with stationary increments is
K(x, x') = int (e^{i x.xi} - 1)(e^{-i x'.xi} - 1) f(xi) dxi
= (V(x) + V(x') - V(x - x')) / 2 with the variogram V of
`spectral.variogram`.  `covariance_matrix` builds K from the closed-form V
wherever `spectral.exact_law` holds (every density in d = 1, power-law
terms in d = 2), on a grid and on a point list alike, so both give the same
bits for the same points; `power_law_covariance_matrix` is its unit-variance
power-law case.  A 2-d density with a band or modulated term keeps the
quadrature law below.

The quadrature law approximates the integral as a weighted sum over a
symmetric dyadic grid.  With f even, each (xi, -xi) pair of nodes
contributes a real term, so K(x, x') = g(x) + g(x') - g(x - x') with the
quadrature variogram g(h) = 2 sum w f sin^2(h.xi/2) over the grid's stored
node per pair.  On a spatial grid `quadrature_gram` sums g over a lag
table: every lag of the grid is one of about 2N values u_a +- v_b of its
split u + v into two arithmetic progressions from the origin of about
sqrt(N) points each (in d = 2 the two axes, in d = 1 the multiples of
s = ceil(sqrt(N)) and the first s points).  So K costs about 3 N M
multiply-adds from per-node half-angle tables of u and v, each taking trig
on at most ceil(2 sqrt(n)) of its n rows, and needs K, one workspace
(within BLOCK_BYTES / 4 up to N of about 29,000) and one row block.

A point list (reachable from the Python API only: the CLI's points are
1-d, where the law is exact) has no lattice of lags and is summed as
K = R R^T over node chunks of the real factor R of `spectral_factor`,
whose column pair per node is -2 sqrt(w f) (s^2, s c) with
s = sin(x.xi/2) and c = cos(x.xi/2): the values of
sqrt(w f) (cos(x.xi) - 1, -sin(x.xi)) without the cancellation of cos - 1.
Against a long-double reference every entry is within
4 eps sqrt(w f) (1 + sum_i |x_i xi_i|).

Every covariance here is a plain (n, n) float array, exactly symmetric, in
the order of its points; the points themselves stay with the caller.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import FrequencyGrid, SpatialGrid
from .spectral import (SpectralDensity, exact_law, fractional_brownian_density,
                       require_admissible, variogram)

# Eigenvalue floor scale: quadrature matrices may dip this far below zero,
# relative to their largest diagonal entry.
PSD_NOISE_FACTOR = 1e-8

# Bytes of one replica block of noise, and of one chunk of a point list's
# spectral factor.
BLOCK_BYTES = 8 << 20

# Frequency nodes per partial product of the variogram's lag tables.
SUM_NODES = 256


def block_rows(width: int) -> int:
    """Rows of `width` float64 values that fit in BLOCK_BYTES (at least one)."""
    return max(1, BLOCK_BYTES // (8 * width))


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


def _half_angle(points: np.ndarray, nodes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """e^{-i x.xi/2} = cos - i sin of x.xi/2 for every point x and node xi,
    into the (n, k) complex `out`, whose two parts are the only scratch."""
    half = np.multiply.outer(0.5 * points[:, 0], nodes[:, 0], out=out.imag)
    for axis in range(1, points.shape[1]):
        half += np.multiply.outer(0.5 * points[:, axis], nodes[:, axis], out=out.real)
    np.cos(half, out=out.real)
    np.multiply(np.sin(half, out=half), -1.0, out=half)  # np.negative errs on (n, 1) views
    return out


def _progression_table(points: np.ndarray, nodes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """_half_angle of points p = 0, ..., n - 1 of an arithmetic progression
    from the origin, into `out`, from trig on rows 1..b-1 and the multiples
    of b only, b = ceil(sqrt(n)): row qb + r is row qb times row r, and row
    0 is the exact 1 - 0i."""
    n = len(points)
    step = math.isqrt(n - 1) + 1
    out[0] = complex(1.0, -0.0)
    _half_angle(points[1:step], nodes, out[1:step])
    _half_angle(points[step::step], nodes, out[step::step])
    for base in range(step, n, step):
        stop = min(base + step, n)
        np.multiply(out[base], out[1:stop - base], out=out[base + 1:stop])
    return out


def spectral_factor(density: SpectralDensity, points, grid: FrequencyGrid,
                    pairs: slice = slice(None)) -> np.ndarray:
    """Real (n, 2k) quadrature factor R over a list of n points, for the k
    stored nodes `pairs` selects.

    Column pair (2j, 2j+1) belongs to the j-th node xi, which stands for
    the pair (xi, -xi) and carries its weight w, and holds
    sqrt(w f)(xi) * (cos(x.xi) - 1, -sin(x.xi)).  This folds the Hermitian
    sum over the pair into one real term, which relies on f being even, so
    R R^T is the quadrature kernel.  Read as a complex number the pair is
    sqrt(w f) (e^{-i theta} - 1) = -2 sqrt(w f) s (s + i c) with
    s = sin(theta/2), c = cos(theta/2) and theta = x.xi: a product by the
    real -2 sqrt(w f) s and one by i per entry, with no cancellation in
    cos - 1 and one (n, k) scratch array.  Each entry depends
    on its point and node only, so a column of R is bitwise the same
    whatever slice of nodes builds it.
    """
    pts = _as_points(points)
    nodes = grid.nodes[pairs]
    factor = np.empty((len(pts), 2 * len(nodes)))
    pair = _half_angle(pts, nodes, factor.view(complex))  # c - i s
    scaled = -pair.imag
    scaled *= -2.0 * np.sqrt(grid.weights[pairs] * density.evaluate(nodes))
    scaled += 0.0  # at x = 0, s is +0.0: turn -0.0 back into +0.0
    pair *= scaled
    pair *= 1j  # i (c - i s) = s + i c, in place
    return factor


def _chunk_variogram(density: SpectralDensity, u: np.ndarray, v: np.ndarray,
                     grid: FrequencyGrid, pairs: slice, work: tuple) -> tuple:
    """(plus, minus), the terms of g(u_a + v_b) and g(u_a - v_b) of the
    stored nodes `pairs` selects, each (len(u), len(v)), for the progressions
    u and v of a grid's split, filled into views of _lag_gram's workspace.

    With s = sin(theta/2) and c = cos(theta/2) of theta = u_a.xi and of
    v_b.xi, sin^2 of the half sum is s_u^2 c_v^2 + c_u^2 s_v^2
    +- 2 s_u c_u s_v c_v: the sum over nodes, weighted by 2 w f, of the
    first two terms is the table `both`, of the last `cross`, and each is
    a product of per-node rows of u and v.  The products are taken over
    SUM_NODES nodes at a time and the partial tables summed pairwise: one
    product over every node of a chunk let the roundoff grow to 3 times
    that of R R^T.
    """
    nodes = grid.nodes[pairs]
    parts = -(-len(nodes) // SUM_NODES)
    tables, rows, weight = (part[..., :width] for part, width in
                            zip(work, (len(nodes), parts * SUM_NODES, len(nodes))))
    rows[..., len(nodes):] = 0.0                        # a short chunk's padding
    used = rows[..., :len(nodes)]
    _progression_table(u, nodes, tables[:len(u)])      # c - i s
    _progression_table(v, nodes, tables[len(u):])
    np.square(tables.imag, out=used[0])                 # s^2
    np.square(tables.real, out=used[1])                 # c^2
    np.multiply(tables.real, tables.imag, out=used[2])  # -s c
    np.multiply(grid.weights[pairs], 2.0, out=weight)
    used[:, :len(u)] *= np.multiply(weight, density.evaluate(nodes), out=weight)
    # (3, parts, len(u) or len(v), SUM_NODES): one matrix per part and term
    left, right = (side.reshape(3, side.shape[1], parts, -1).transpose(0, 2, 1, 3)
                   for side in (rows[:, :len(u)], rows[:, len(u):]))

    def summed(*products):  # over the terms, then pairwise over the parts
        partial = sum(a @ b.transpose(0, 2, 1) for a, b in products)
        return np.ascontiguousarray(np.moveaxis(partial, 0, -1)).sum(axis=-1)
    both = summed((left[0], right[1]), (left[1], right[0]))
    cross = 2.0 * summed((left[2], right[2]))
    return both + cross, both - cross


def _lag_gram(density: SpectralDensity, space: SpatialGrid,
              grid: FrequencyGrid) -> np.ndarray:
    """K = g(x) + g(x') - g(x - x') on a SpatialGrid, from its variogram g
    over the lags of the split (u, v); see quadrature_gram."""
    u, v = space.split()
    n = space.size
    count = len(u) + len(v)
    # one workspace for all chunks in BLOCK_BYTES / 4 (padding set aside):
    # the tables of u then v, their three rows padded to whole parts, the weight
    pairs = max(1, (BLOCK_BYTES // 4 - 24 * count * SUM_NODES) // (8 * (5 * count + 1)))
    pairs = min(pairs, len(grid.nodes))
    work = (np.empty((count, pairs), dtype=complex),
            np.empty((3, count, -(-pairs // SUM_NODES) * SUM_NODES)), np.empty(pairs))
    plus = np.zeros((len(u), len(v)))
    minus = np.zeros((len(u), len(v)))
    for start in range(0, len(grid.nodes), pairs):
        stop = min(start + pairs, len(grid.nodes))
        terms = _chunk_variogram(density, u, v, grid, slice(start, stop), work)
        plus += terms[0]
        minus += terms[1]
    del work  # freed before K is allocated
    # lags[len(u) - 1 + p, len(v) - 1 + t] = g(p u_1 + t v_1): the sign of
    # the pair decides between plus and minus, and the half p < 0 is the
    # mirror of p > 0, so x - x' and x' - x read the same value
    first, second = len(u) - 1, len(v) - 1
    lags = np.empty((2 * first + 1, 2 * second + 1))
    lags[first:, second:] = plus
    lags[first + 1:, :second] = minus[1:, :0:-1]
    lags[first, :second] = plus[0, :0:-1]
    lags[:first] = lags[:first:-1, ::-1]
    # windows[p, t, b] = lags[p, t + b]; point q len(v) + r against point
    # q' len(v) + r' reads lags[first - q + q', second - r + r']
    windows = np.lib.stride_tricks.sliding_window_view(lags, len(v), axis=1)
    variogram = plus.ravel()
    gram = np.empty((n, n))
    scratch = np.empty((len(v), len(u), len(v)))
    for q, top in enumerate(range(0, n, len(v))):
        rows = scratch[:min(len(v), n - top)]
        np.add(variogram[top:top + len(rows), None, None], plus, out=rows)
        lag = windows[first - q:2 * first + 1 - q, second::-1][:, :len(rows)]
        np.subtract(rows, lag.transpose(1, 0, 2), out=rows)
        gram[top:top + len(rows)] = rows.reshape(len(rows), -1)[:, :n]
    return gram


def _factor_gram(density: SpectralDensity, points: np.ndarray,
                 grid: FrequencyGrid) -> np.ndarray:
    """R R^T over an (n, d) point array, summed as R_c R_c^T over chunks
    R_c of spectral_factor whose columns fit in BLOCK_BYTES: each chunk adds
    only the row blocks of the upper triangle, and the lower triangle is
    mirrored from the upper one."""
    n = len(points)
    pairs, rows = block_rows(2 * n), block_rows(n)
    gram = np.zeros((n, n))
    for start in range(0, len(grid.nodes), pairs):
        chunk = spectral_factor(density, points, grid, slice(start, start + pairs))
        for top in range(0, n, rows):
            gram[top:top + rows, top:] += chunk[top:top + rows] @ chunk[top:].T
        del chunk  # freed before the next chunk is built
    gram = np.triu(gram)
    gram += np.triu(gram, 1).T
    return gram


def quadrature_gram(density: SpectralDensity, points,
                    grid: FrequencyGrid) -> np.ndarray:
    """The quadrature kernel R R^T on n points, exactly symmetric.

    On a SpatialGrid it is K(x, x') = g(x) + g(x') - g(x - x') with the
    quadrature variogram g(h) = 2 sum w f sin^2(h.xi/2), and no R is built.
    Every lag of the grid is +-(u_a +- v_b) over its split (u, v), so g is
    needed at the 2 len(u) len(v) (about 2N) lags u_a +- v_b only.  They
    are summed over chunks of nodes from the half-angle tables of u and v:
    about 3 N M multiply-adds, against N^2 M / 2 for R R^T.
    K is then written one u-row of points at a time from the lag table,
    whose mirror half makes (x, x') and (x', x) read the same value, so K
    is exactly symmetric and the origin's row is g(x) - g(x) = +0.0.
    Memory is K, one workspace for every chunk's tables, allocated once per
    call and freed before K, and one (len(v), N) row block; the workspace
    is at most BLOCK_BYTES / 4 while the split has at most 340 points.
    Against a long-double reference (1-d on 8 and 64 points, 2-d on 8 x 8,
    H from 0.1 to 0.9) its largest error is 0.2 to 0.75 of that of R R^T
    at H >= 0.5 and never above it; at H = 0.1 in d = 1 both are 7e-14 to
    2.1e-13 of max K, from the float phases at |xi| up to 2^21.

    A point list has no lattice of lags: it is summed as R_c R_c^T over
    node chunks R_c of `spectral_factor`, so memory is O(n^2) plus one
    chunk whatever the grid size, and the lower triangle is mirrored from
    the upper one.
    """
    if isinstance(points, SpatialGrid):
        return _lag_gram(density, points, grid)
    return _factor_gram(density, _as_points(points), grid)


def _distinct_points(points) -> np.ndarray:
    """_as_points of a point list, refused unless its points are distinct."""
    pts = _as_points(points)
    # lexsort, not np.unique(axis=0), which imports numpy.ma; rows equal
    # under == (so -0.0 == 0.0) are adjacent once sorted
    ordered = pts[np.lexsort(pts.T)] if pts.shape[1] else pts
    if np.any(np.all(ordered[1:] == ordered[:-1], axis=1)):
        raise ValueError("spatial points must be distinct")
    return pts


def _variogram_gram(density: SpectralDensity, points: np.ndarray) -> np.ndarray:
    """K = (V(x) + V(x') - V(x - x')) / 2 over an (n, d) point array, by
    row blocks of the upper triangle, each mirrored into the lower one, so K
    is exactly symmetric; V(0) is +0.0, so the origin's row is too."""
    n = len(points)
    at_points = variogram(density, points)
    gram = np.empty((n, n))
    rows = block_rows(n)
    for top in range(0, n, rows):
        stop = min(top + rows, n)
        lags = points[top:stop, None, :] - points[None, top:, :]
        lags = lags.reshape(-1, points.shape[1])
        between = variogram(density, lags).reshape(stop - top, n - top)
        gram[top:stop, top:] = 0.5 * (at_points[top:stop, None] + at_points[None, top:]
                                      - between)
        gram[stop:, top:stop] = gram[top:stop, stop:].T
        corner = gram[top:stop, top:stop]
        lower = np.tril_indices(stop - top, -1)
        corner[lower] = corner.T[lower]
    return gram


def covariance_matrix(density: SpectralDensity, points,
                      grid: FrequencyGrid) -> np.ndarray:
    """The (n, n) covariance of the density's field on a SpatialGrid or on a
    list of distinct points: the exact K from the variogram where
    spectral.exact_law holds, bitwise the same for a grid and for its
    points, and otherwise the quadrature K on `grid`.  The density must be
    admissible on `grid` either way."""
    require_admissible(density, grid)
    if isinstance(points, SpatialGrid):  # distinct by construction: check d only
        pts = _as_points(points.points, grid.dimension)
    else:
        points = pts = _distinct_points(_as_points(points, grid.dimension))
    if exact_law(density):
        return _variogram_gram(density, pts)
    return quadrature_gram(density, points, grid)


def power_law_covariance_matrix(points, hurst: float) -> np.ndarray:
    """Closed-form (n, n) covariance of the unit-variance power-law field on
    a list of distinct points: 0.5 (|x|^2H + |x'|^2H - |x - x'|^2H)."""
    pts = _distinct_points(points)
    return _variogram_gram(fractional_brownian_density(hurst, pts.shape[1]), pts)
