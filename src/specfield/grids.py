"""Frequency and spatial grids.

The frequency grid discretizes the integral over R^d as a sum over dyadic
annuli 2^j <= |xi| < 2^(j+1).  Midpoint nodes handle both the power-law
singularity at the origin and the heavy tail with geometric error control.
Every density here is even, so every quadrature sum is a sum over (xi, -xi)
pairs: the grid stores one node per pair, weighted for the pair, and a rule
that is not symmetric under xi -> -xi cannot be written down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class FrequencyGrid:
    """Symmetric dyadic-annular quadrature rule on R^d (d in {1, 2}), folded.

    `nodes` holds one node xi of each (xi, -xi) pair and `weights` the weight
    of the pair, twice that of either node.  `size` is the node count of the
    symmetric rule, 2 * len(nodes), which is also the width of a point
    list's real factor R (covariance.spectral_factor).

    Equality and hashing use the defining parameters only; the node arrays
    are derived deterministically from them.
    """

    dimension: int
    j_lo: int
    j_hi: int
    nodes_per_annulus: int
    nodes: np.ndarray = field(compare=False, repr=False)    # (size // 2, d)
    weights: np.ndarray = field(compare=False, repr=False)  # (size // 2,)
    annulus: np.ndarray = field(compare=False, repr=False)  # annulus ordinal per node

    @property
    def size(self) -> int:
        return 2 * self.nodes.shape[0]

    @property
    def n_annuli(self) -> int:
        return self.j_hi - self.j_lo + 1

    @property
    def grid_id(self) -> str:
        return (f"dyadic(d={self.dimension},J={self.j_lo}..{self.j_hi},"
                f"m={self.nodes_per_annulus})")

    def radii(self) -> np.ndarray:
        if self.dimension == 1:
            return np.abs(self.nodes[:, 0])
        return np.sqrt(np.sum(self.nodes ** 2, axis=1))


def dyadic_frequency_grid(dimension: int = 1, j_lo: int = -20, j_hi: int = 20,
                          nodes_per_annulus: int = 64) -> FrequencyGrid:
    """Build the midpoint rule over dyadic annuli, one node per (xi, -xi) pair.

    d=1: each annulus [2^j, 2^(j+1)) gets `nodes_per_annulus` positive
    midpoints, each standing for itself and its negation.
    d=2: polar midpoints, `nodes_per_annulus` radial x `nodes_per_annulus`
    angular per annulus; the angular count must be even so that the rule is
    closed under xi -> -xi (theta -> theta + pi), and the angles in [0, pi)
    are stored.
    """
    if dimension not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {dimension}")
    if j_lo > j_hi:
        raise ValueError(f"j_lo={j_lo} exceeds j_hi={j_hi}")
    if nodes_per_annulus < 1:
        raise ValueError("nodes_per_annulus must be positive")
    if dimension == 2 and nodes_per_annulus % 2 != 0:
        raise ValueError("nodes_per_annulus must be even in dimension 2")

    m = nodes_per_annulus
    if dimension == 1:
        directions, arc = np.ones((1, 1)), 1.0
    else:
        theta = (np.arange(m // 2) + 0.5) * (2 * np.pi / m)
        directions, arc = np.column_stack([np.cos(theta), np.sin(theta)]), 2 * np.pi / m
    nodes, weights, annulus = [], [], []
    for k, j in enumerate(range(j_lo, j_hi + 1)):
        lo, hi = 2.0 ** j, 2.0 ** (j + 1)
        dr = (hi - lo) / m
        r = lo + (np.arange(m) + 0.5) * dr
        nodes.append((r[:, None, None] * directions).reshape(-1, dimension))
        # the pair weight: twice the cell measure dr (d=1) or r dr dtheta (d=2)
        weights.append(np.repeat(2.0 * (r ** (dimension - 1) * dr * arc), len(directions)))
        annulus.append(np.full(m * len(directions), k, dtype=np.intp))
    return FrequencyGrid(dimension, j_lo, j_hi, nodes_per_annulus, np.concatenate(nodes),
                         np.concatenate(weights), np.concatenate(annulus))


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid over K = [0,1]^d containing the origin, sorted lexicographically."""

    dimension: int
    resolution: int
    points: np.ndarray = field(compare=False, repr=False)  # (N, d)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def spacing(self) -> float:
        return 1.0 / (self.resolution - 1)

    @property
    def origin_index(self) -> int:
        return 0

    @property
    def grid_id(self) -> str:
        return f"uniform(d={self.dimension},n={self.resolution})"

    def split(self) -> tuple:
        """The grid as a sum set: point sets (u, v) of about sqrt(N) points
        each with point i equal to u[i // len(v)] + v[i % len(v)].

        In d = 2, u = {(a_p, 0)} and v = {(0, a_q)} over the axis values, so
        the sum is exact.  In d = 1, with s = ceil(sqrt(N)), u = {a_{qs}} and
        v = {a_r} for r < s, and a_{qs} + a_r equals a_{qs+r} to within an
        ulp or so of the larger term.
        """
        step = self.resolution if self.dimension == 2 else math.isqrt(self.size - 1) + 1
        return self.points[::step], self.points[:step]


def uniform_spatial_grid(dimension: int = 1, resolution: int = 64) -> SpatialGrid:
    if dimension not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {dimension}")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    ax = np.linspace(0.0, 1.0, resolution)
    if dimension == 1:
        points = ax[:, None]
    else:
        x1, x2 = np.meshgrid(ax, ax, indexing="ij")
        points = np.column_stack([x1.ravel(), x2.ravel()])
    return SpatialGrid(dimension, resolution, points)

