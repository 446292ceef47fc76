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

    def __call__(self, sample_or_values, grid=None):
        values = _values_of(sample_or_values)
        rows = _rows_on(values, _grid_of(sample_or_values, grid))
        return _per_path(values, np.max(np.abs(rows), axis=1, initial=0.0))


@dataclass(frozen=True)
class HolderNorm:
    """The dyadic Holder norm on a grid of spacing h:

        sup |g| + max over k and axes e of
                  max_x |g(x + 2^k h e) - g(x)| / (2^k h)^alpha,

    the lags 2^k h running below the side of [0, 1]^d.  It never exceeds the
    all-pairs Holder norm, and that norm is at most 1 / (1 - 2^-alpha) times
    it in d = 1 and 2^(1 - alpha/2) / (1 - 2^-alpha) times it in d = 2 (split
    a lag into its binary digits).  It costs O(N log N) per row, and a (B, N)
    block gives one value per row.
    """

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")

    def __call__(self, sample_or_values, grid=None):
        values = _values_of(sample_or_values)
        grid = _grid_of(sample_or_values, grid)
        if grid is None:
            raise ValueError("a grid is required: pass a FieldSample or supply grid=")
        rows = _rows_on(values, grid)
        # one row per point and one column per path: each lag's maximum then
        # runs over whole contiguous rows
        axes = tuple(range(grid.dimension))
        columns = np.ascontiguousarray(rows.T).reshape(
            (grid.resolution,) * grid.dimension + (len(rows),))
        ratio = np.zeros(len(rows))
        lag = 1
        while lag < grid.resolution:
            scale = (lag * grid.spacing) ** self.alpha
            for axis in axes:
                ahead = columns[(slice(None),) * axis + (slice(lag, None),)]
                behind = columns[(slice(None),) * axis + (slice(None, -lag),)]
                steps = np.max(np.abs(ahead - behind), axis=axes)
                np.maximum(ratio, steps / scale, out=ratio)
            lag *= 2
        return _per_path(values, np.max(np.abs(rows), axis=1, initial=0.0) + ratio)
