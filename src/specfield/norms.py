"""Discrete norms on sampled fields.

The balls {g : ||g|| <= r} of these norms are the convex symmetric sets the
Anderson-type inequalities speak about.  Both norms are maxima of finitely
many |linear functional| terms, so homogeneity, symmetry, the triangle
inequality and ball convexity hold exactly (up to float roundoff), not just
in the continuum limit.  The discrete values are the definition used
throughout verification; no continuum convergence is claimed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Above this many point pairs the Holder norm switches from all pairs to the
# deterministic dyadic-offset subset.
DEFAULT_PAIR_BUDGET = 1 << 22


def _values_of(sample_or_values) -> np.ndarray:
    values = getattr(sample_or_values, "values", sample_or_values)
    return np.asarray(values, dtype=float)


def _grid_of(sample_or_values, grid):
    """The grid given, else the one a FieldSample carries, else None."""
    return getattr(sample_or_values, "grid", None) if grid is None else grid


def _rows_on(values: np.ndarray, grid) -> np.ndarray:
    """The values as (B, N) rows, refused unless a grid is absent or has N
    points."""
    rows = np.atleast_2d(values)
    if grid is not None and rows.shape[1] != grid.size:
        raise ValueError(f"a path of {rows.shape[1]} values does not fit a grid of "
                         f"{grid.size} points")
    return rows


def _per_path(values: np.ndarray, per_row: np.ndarray):
    """A float for one path of shape (N,), the per-row array for a block."""
    return float(per_row[0]) if values.ndim == 1 else per_row


@dataclass(frozen=True)
class SupNorm:
    """max |g(x)| over the grid points; one value per row of a (B, N) block.
    The grid is optional, but one that is given or carried must fit."""

    kind: str = "sup"

    def __call__(self, sample_or_values, grid=None):
        values = _values_of(sample_or_values)
        rows = _rows_on(values, _grid_of(sample_or_values, grid))
        return _per_path(values, np.max(np.abs(rows), axis=1, initial=0.0))

    @property
    def label(self) -> str:
        return "sup"


@dataclass(frozen=True)
class HolderNorm:
    """sup norm plus the largest increment ratio |g(x)-g(y)| / |x-y|^alpha.

    The ratio is maximized over all point pairs when size^2 fits the budget,
    otherwise over the deterministic dyadic-offset pairs (i, i + 2^k along
    each grid axis) — a documented fixed subset, so values are reproducible
    and still dominate the sup norm.  A (B, N) block gives one value per row.
    """

    alpha: float
    pair_budget: int = DEFAULT_PAIR_BUDGET
    kind: str = "holder"

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.pair_budget < 4:
            raise ValueError("pair budget too small to form any pair")

    @property
    def label(self) -> str:
        return f"holder({self.alpha!r})"

    def __call__(self, sample_or_values, grid=None):
        values = _values_of(sample_or_values)
        grid = _grid_of(sample_or_values, grid)
        if grid is None:
            raise ValueError("a grid is required: pass a FieldSample or supply grid=")
        rows = _rows_on(values, grid)
        n = rows.shape[1]
        sup = np.max(np.abs(rows), axis=1, initial=0.0)
        if n * n <= self.pair_budget:
            ratio = self._full_pair_ratio(rows, np.asarray(grid.points, dtype=float))
        else:
            ratio = self._dyadic_pair_ratio(rows, grid)
        return _per_path(values, sup + ratio)

    def _full_pair_ratio(self, rows: np.ndarray, points: np.ndarray) -> np.ndarray:
        """The maximum over pairs (i, i + k) for each lag k, one contiguous
        slice of the transposed block per lag.  The pair scales
        |x_i - x_j|^alpha are one (N, N) array, at most pair_budget entries,
        whose k-th diagonal holds lag k's."""
        squares = np.zeros((len(points), len(points)))
        for axis in points.T:
            squares += np.subtract.outer(axis, axis) ** 2
        scales = np.sqrt(squares, out=squares)
        scales **= self.alpha
        columns = np.ascontiguousarray(rows.T)
        ratio = np.zeros(rows.shape[0])
        for lag in range(1, len(columns)):
            diffs = np.subtract(columns[:-lag], columns[lag:])
            np.abs(diffs, out=diffs)
            diffs /= np.diagonal(scales, lag)[:, None]
            np.maximum(ratio, np.max(diffs, axis=0), out=ratio)
        return ratio

    def _dyadic_pair_ratio(self, rows: np.ndarray, grid) -> np.ndarray:
        spacing = grid.spacing
        best = np.zeros(rows.shape[0])
        if grid.dimension == 1:
            lag = 1
            while lag < grid.resolution:
                d = np.max(np.abs(rows[:, lag:] - rows[:, :-lag]), axis=1)
                best = np.maximum(best, d / (lag * spacing) ** self.alpha)
                lag *= 2
        else:
            square = rows.reshape(-1, grid.resolution, grid.resolution)
            lag = 1
            while lag < grid.resolution:
                sep = (lag * spacing) ** self.alpha
                d0 = np.max(np.abs(square[:, lag:, :] - square[:, :-lag, :]), axis=(1, 2))
                d1 = np.max(np.abs(square[:, :, lag:] - square[:, :, :-lag]), axis=(1, 2))
                best = np.maximum(best, np.maximum(d0 / sep, d1 / sep))
                lag *= 2
        return best

