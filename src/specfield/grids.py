"""Frequency and spatial grids.

The frequency grid discretizes the integral over R^d as a sum over dyadic
annuli 2^j <= |xi| < 2^(j+1).  Midpoint nodes handle both the power-law
singularity at the origin and the heavy tail with geometric error control.
The node set is exactly closed under xi -> -xi with equal weights on each
(xi, -xi) pair, so quadrature sums of Hermitian integrands can be folded
into real sums over half the grid (`FrequencyGrid.half_indices`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class FrequencyGrid:
    """Symmetric dyadic-annular quadrature rule on R^d (d in {1, 2}).

    Equality and hashing use the defining parameters only; the node arrays
    are derived deterministically from them.
    """

    dimension: int
    j_lo: int
    j_hi: int
    nodes_per_annulus: int
    nodes: np.ndarray = field(compare=False, repr=False)    # (m, d)
    weights: np.ndarray = field(compare=False, repr=False)  # (m,)
    mirror: np.ndarray = field(compare=False, repr=False)   # index of -xi per node
    annulus: np.ndarray = field(compare=False, repr=False)  # annulus ordinal per node

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_annuli(self) -> int:
        return self.j_hi - self.j_lo + 1

    @property
    def grid_id(self) -> str:
        return (f"dyadic(d={self.dimension},J={self.j_lo}..{self.j_hi},"
                f"m={self.nodes_per_annulus})")

    @property
    def half_indices(self) -> np.ndarray:
        """Canonical representatives: one node out of each (xi, -xi) pair."""
        return np.flatnonzero(np.arange(self.size) < self.mirror)

    def radii(self) -> np.ndarray:
        if self.dimension == 1:
            return np.abs(self.nodes[:, 0])
        return np.sqrt(np.sum(self.nodes ** 2, axis=1))


def dyadic_frequency_grid(dimension: int = 1, j_lo: int = -20, j_hi: int = 20,
                          nodes_per_annulus: int = 64) -> FrequencyGrid:
    """Build the midpoint rule over dyadic annuli.

    d=1: each annulus [2^j, 2^(j+1)) gets `nodes_per_annulus` midpoints,
    mirrored to the negative half-line with equal weights.
    d=2: polar midpoints, `nodes_per_annulus` radial x `nodes_per_annulus`
    angular per annulus; the angular count must be even so that the node set
    is closed under xi -> -xi (theta -> theta + pi).
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
    js = range(j_lo, j_hi + 1)
    if dimension == 1:
        pos, w, ann = [], [], []
        for k, j in enumerate(js):
            lo, hi = 2.0 ** j, 2.0 ** (j + 1)
            h = (hi - lo) / m
            pos.append(lo + (np.arange(m) + 0.5) * h)
            w.append(np.full(m, h))
            ann.append(np.full(m, k, dtype=np.intp))
        pos = np.concatenate(pos)
        nodes = np.concatenate([pos, -pos])[:, None]
        weights = np.concatenate(w + w)
        annulus = np.concatenate(ann + ann)
        half = pos.size
        mirror = np.concatenate([np.arange(half) + half, np.arange(half)])
    else:
        # Build directions for half the circle and use their exact float
        # negations for the other half, so the node set is closed under
        # xi -> -xi bit for bit (not merely up to cos/sin roundoff).
        theta_half = (np.arange(m // 2) + 0.5) * (2 * np.pi / m)
        ux = np.concatenate([np.cos(theta_half), -np.cos(theta_half)])
        uy = np.concatenate([np.sin(theta_half), -np.sin(theta_half)])
        blocks, w, ann, mirror_blocks = [], [], [], []
        per_annulus = m * m
        for k, j in enumerate(js):
            lo, hi = 2.0 ** j, 2.0 ** (j + 1)
            dr = (hi - lo) / m
            r = lo + (np.arange(m) + 0.5) * dr
            blocks.append(np.column_stack([np.outer(r, ux).ravel(),
                                           np.outer(r, uy).ravel()]))
            w.append(np.repeat(r * dr * (2 * np.pi / m), m))
            ann.append(np.full(per_annulus, k, dtype=np.intp))
            # node (i_r, i_theta) maps to (i_r, i_theta + m/2 mod m)
            i_r, i_t = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
            local = (i_r * m + (i_t + m // 2) % m).ravel()
            mirror_blocks.append(local + k * per_annulus)
        nodes = np.concatenate(blocks)
        weights = np.concatenate(w)
        annulus = np.concatenate(ann)
        mirror = np.concatenate(mirror_blocks)
    return FrequencyGrid(dimension, j_lo, j_hi, nodes_per_annulus,
                         nodes, weights, mirror, annulus)


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

    def axis(self) -> np.ndarray:
        """The per-axis coordinate values."""
        return np.linspace(0.0, 1.0, self.resolution)


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


@dataclass(frozen=True)
class PointSet:
    """Arbitrary finite list of spatial points, for samplers whose support is
    not a uniform grid.  origin_index is None when the origin is absent."""

    dimension: int
    label: str
    points: np.ndarray = field(compare=False, repr=False)  # (N, d)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def origin_index(self) -> int | None:
        hits = np.flatnonzero(np.all(self.points == 0.0, axis=1))
        return int(hits[0]) if hits.size else None

    @property
    def grid_id(self) -> str:
        return f"{self.label}(d={self.dimension},n={self.size})"
