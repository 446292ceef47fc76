"""Field samplers.

Three ways to realize a Gaussian field with stationary increments on a grid:

- SpectralSynthesizer: the direct discretization of the harmonizable
  representation, sum over frequency nodes of (e^{i x.xi} - 1) sqrt(f w) zeta
  with Hermitian noise, each (xi, -xi) pair folded into one real term.  It
  is computed for a block of replicas at once as one product of a
  standard-normal block with the real factor R of the quadrature kernel,
  walked by the node chunks of covariance.factor_chunks (the covariance
  module docstring gives how R is built and its measured accuracy).  Its
  distribution matches the quadrature covariance matrix K = R R^T exactly,
  which is what makes the next sampler an oracle for it.  A campaign with
  more replicas than points draws from K through an ExactFieldSampler
  instead, from N normals per replica rather than one per frequency node.
- ExactFieldSampler: factorizes a covariance, a plain (N, N) array over the
  grid's points (jittered Cholesky), and maps standard normals through it.
- CouplingSynthesizer: the domination-based decomposition; draws blocks of
  the dominated field and the residual field as a FieldPair, replicate k
  of both from the two halves of one row of stream k, and assembles the
  representative of the dominating law as C^{-1/2} x1 + x2.

Each draws blocks with sample_block(seed, ids), row j from stream ids[j];
sample(seed, k) is the FieldSample of row 0 of its own sample_block(seed, [k]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import PSD_NOISE_FACTOR, block_rows, factor_chunks, quadrature_gram
from .grids import SpatialGrid
from .rng import hermitian_noise
from .spectral import (DominationCertificate, SpectralDensity, difference_density,
                       require_admissible)

# Jitter multipliers tried before declaring a covariance matrix indefinite.
JITTER_LADDER = (1, 2, 4, 8)


class IndefiniteMatrixError(RuntimeError):
    """Covariance factorization failed even after jitter escalation."""


def _check_block(block: np.ndarray, grid) -> np.ndarray:
    """The block, refused unless it is (B, grid.size), every value is finite
    and the origin column is exactly +0.0."""
    if block.shape[1:] != (grid.size,):
        raise ValueError(f"values shape {block.shape[1:]} does not match grid size "
                         f"{grid.size}")
    if not np.all(np.isfinite(block)):
        raise ValueError("sample values must be finite")
    origin = block[:, grid.origin_index]
    if np.any(origin != 0.0) or np.any(np.signbit(origin)):
        raise ValueError("value at the origin must be exactly +0.0")
    return block


@dataclass(frozen=True, eq=False)
class FieldSample:
    """One realization of a field on a spatial grid, with its stream."""

    grid: SpatialGrid
    values: np.ndarray
    master_seed: int
    stream_id: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        _check_block(values[None], self.grid)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return self.values.shape[0]


class SpectralSynthesizer:
    """Samples the quadrature law N(0, K) on the spatial grid as blocks of
    replicas, K = R R^T for the real (N, M) spectral factor R.

    prepare(n) picks one of two ways to draw a campaign of n replicas, from
    n and the grids alone:

    - Direct (n <= N): a block of B replicas is the (B, N) product
      noise @ R^T of a (B, M) block of Hermitian noise, summed over the node
      chunks of covariance.factor_chunks.  Each chunk of R is dropped after
      its product unless keep_factor() stored them all, which pays only
      when more than one block reuses them; the two give bit-identical
      blocks.
    - Exact (n > N): K comes from covariance.quadrature_gram, which on a
      grid reads it off a lag table of the variogram in about 3 N M
      multiply-adds, and an ExactFieldSampler on K draws the blocks: the
      product (B, N) noise @ L^T with the jittered Cholesky factor L, its
      origin column set to +0.0, so the law off the origin is K + eps I
      (eps = 1e-8 of max diag K at the ladder's first rung).  The Cholesky
      costs N^3 / 3 flops and holds N^2 floats whatever n is, so below
      n = N it can cost more than the n N M of the direct blocks it
      replaces; n > N keeps the choice a function of n and N alone, and
      every draw of the direct path unchanged.

    Each row is the draw of its own stream, so which replicas share a block
    changes a row at roundoff at most, through the product's blocking.
    sample is the one-row block, so it streams R unless R was kept: a caller
    drawing many direct replicas one at a time calls keep_factor() first.
    """

    def __init__(self, density: SpectralDensity, frequency_grid,
                 spatial_grid: SpatialGrid):
        if density.dimension != frequency_grid.dimension:
            raise ValueError("density and frequency grid dimensions differ")
        if density.dimension != spatial_grid.dimension:
            raise ValueError("density and spatial grid dimensions differ")
        require_admissible(density, frequency_grid)
        self.density = density
        self.frequency_grid = frequency_grid
        self.spatial_grid = spatial_grid
        self._factor = None
        self._exact = None

    def prepare(self, n_replicas: int, paired: bool = False) -> int:
        """Choose the way to draw a campaign of n_replicas, build what it
        needs, and return the replicas per block: as many as fit in
        BLOCK_BYTES at the noise width W of the chosen way, or, for a
        FieldPair (paired), at the pair's whole working row of 2W normals
        and three N-point samples (both fields and their sum).  Depends on
        n and the grids only, so a rerun splits the campaign into the same
        blocks."""
        points = self.spatial_grid.size
        if n_replicas > points:
            if self._exact is None:
                self._exact = ExactFieldSampler(
                    quadrature_gram(self.density, self.spatial_grid, self.frequency_grid),
                    self.spatial_grid)
        else:
            self._exact = None
        width = self._noise_width()
        rows = min(n_replicas, block_rows(2 * width + 3 * points if paired else width))
        if rows < n_replicas and self._exact is None:
            self.keep_factor()
        return rows

    def keep_factor(self):
        """Build R's chunks once and keep them for every later direct block."""
        if self._factor is None:
            self._factor = list(factor_chunks(self.density, self.spatial_grid,
                                              self.frequency_grid))

    def _noise_width(self) -> int:
        """Normals per replica: M on the direct path, N on the exact path
        that the last prepare() chose."""
        return self.frequency_grid.size if self._exact is None else self.spatial_grid.size

    def _synthesize(self, noise: np.ndarray) -> np.ndarray:
        """The (B, N) sample block that a (B, W) noise block maps to, the way
        the last prepare() chose."""
        if self._exact is not None:
            return self._exact._synthesize(noise)
        block = np.zeros((noise.shape[0], self.spatial_grid.size))
        chunks = self._factor or factor_chunks(self.density, self.spatial_grid,
                                               self.frequency_grid)
        for columns, chunk in chunks:
            block += noise[:, columns] @ chunk.T
            del chunk  # a streamed chunk is freed before the next is built
        return _check_block(block, self.spatial_grid)

    def sample_block(self, master_seed: int, stream_ids) -> np.ndarray:
        """(len(stream_ids), N) samples, row j drawn from stream stream_ids[j],
        the way the last prepare() chose (direct without one)."""
        return self._synthesize(hermitian_noise(self._noise_width(), master_seed,
                                                stream_ids))

    def sample(self, master_seed: int, stream_id: int) -> FieldSample:
        """One replica: the one-row block."""
        return FieldSample(self.spatial_grid, self.sample_block(master_seed, [stream_id])[0],
                           master_seed, stream_id)


def _jittered_factor(entries: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of entries + jitter*I with escalation.

    Starts at the PSD noise floor, PSD_NOISE_FACTOR times the largest
    diagonal entry, and doubles up to len(JITTER_LADDER)-1 times; a matrix
    that resists all of them is reported indefinite rather than silently
    smoothed further.
    """
    if not np.any(entries):
        return np.zeros_like(entries)
    base = PSD_NOISE_FACTOR * float(np.max(np.diag(entries)))
    for mult in JITTER_LADDER:
        jittered = entries + (base * mult) * np.eye(len(entries))
        try:
            return np.linalg.cholesky(jittered)
        except np.linalg.LinAlgError:
            continue
    raise IndefiniteMatrixError(
        f"the {len(entries)} x {len(entries)} covariance matrix is not positive "
        f"semidefinite within jitter {base * JITTER_LADDER[-1]:.3e}")


class ExactFieldSampler:
    """Samples from an (N, N) covariance array over the points of `grid`
    through a cached jittered factorization L.

    The independent oracle for the spectral synthesizer's direct path: the
    two target the same matrix through unrelated mechanisms.  It also draws
    the synthesizer's campaigns of more replicas than points.  This is where
    a caller's own array enters, so its shape, finiteness, symmetry and
    diagonal are checked.
    """

    def __init__(self, entries, grid: SpatialGrid):
        entries = np.asarray(entries, dtype=float)
        if entries.shape != (grid.size, grid.size):
            raise ValueError(f"covariance shape {entries.shape} does not match "
                             f"{grid.size} grid points")
        if not np.all(np.isfinite(entries)):
            raise ValueError("covariance entries must be finite")
        if not np.array_equal(entries, entries.T):
            raise ValueError("covariance entries are not exactly symmetric")
        if np.any(np.diag(entries) < 0):
            raise ValueError("covariance diagonal must be nonnegative")
        self.grid = grid
        self._factor = _jittered_factor(entries)

    def _synthesize(self, noise: np.ndarray) -> np.ndarray:
        """The (B, N) sample block noise @ L^T of a (B, N) noise block, with
        the origin column set to +0.0."""
        block = noise @ self._factor.T
        block[:, self.grid.origin_index] = 0.0
        return _check_block(block, self.grid)

    def sample_block(self, master_seed: int, stream_ids) -> np.ndarray:
        """(len(stream_ids), N) samples: row j is L times the first N normals
        of stream stream_ids[j], with the origin column set to +0.0."""
        return self._synthesize(hermitian_noise(self.grid.size, master_seed, stream_ids))

    def sample(self, master_seed: int, stream_id: int) -> FieldSample:
        """One replica: the one-row block."""
        return FieldSample(self.grid, self.sample_block(master_seed, [stream_id])[0],
                           master_seed, stream_id)


class FieldPair:
    """Two independent fields on the same grids, drawn together: replicate k
    is one row of 2W normals from stream k, whose first W drive the first
    field and last W the second.  W is the noise width of the way both draw
    (they share the grids, so they choose the same way): N on the exact
    path, M on the direct path."""

    def __init__(self, first: SpectralSynthesizer, second: SpectralSynthesizer):
        self.first = first
        self.second = second

    def prepare(self, n_replicas: int) -> int:
        """SpectralSynthesizer.prepare for both fields, each block sized by
        the pair's whole working row."""
        self.first.prepare(n_replicas, paired=True)
        return self.second.prepare(n_replicas, paired=True)

    def sample_block(self, master_seed: int, stream_ids) -> tuple:
        """(first, second) blocks, row j of both from stream stream_ids[j],
        the way the last prepare() chose (direct without one)."""
        width = self.first._noise_width()
        noise = hermitian_noise(2 * width, master_seed, stream_ids)
        return (self.first._synthesize(noise[:, :width]),
                self.second._synthesize(noise[:, width:]))


class CouplingSynthesizer:
    """Draws (x1, x2, y_rep) replicas of the domination-based decomposition.

    x1 has the dominated density f_X and x2 the residual density
    f_Y - f_X/C, drawn as a FieldPair: both halves of stream k's row for
    replicate k; y_rep = C^{-1/2} x1 + x2 then carries the dominating law up
    to quadrature accuracy.  The certificate must come from the sampling
    grid: domination on one grid says nothing about another.  sample is the
    one-row block, drawn the way the last prepare() chose.
    """

    def __init__(self, density_x: SpectralDensity, density_y: SpectralDensity,
                 constant: float, certificate: DominationCertificate,
                 frequency_grid, spatial_grid: SpatialGrid):
        residual = difference_density(density_y, density_x, constant, certificate)
        if certificate.grid != frequency_grid:
            raise ValueError(f"certificate was checked on {certificate.grid.grid_id}, "
                             f"not on the sampling grid {frequency_grid.grid_id}")
        self.density_x = density_x
        self.density_y = density_y
        self.constant = float(constant)
        self.certificate = certificate
        self._pair = FieldPair(SpectralSynthesizer(density_x, frequency_grid, spatial_grid),
                               SpectralSynthesizer(residual, frequency_grid, spatial_grid))
        self._inv_root = self.constant ** -0.5

    @property
    def spatial_grid(self) -> SpatialGrid:
        return self._pair.first.spatial_grid

    def prepare(self, n_replicas: int) -> int:
        """FieldPair.prepare for the two components."""
        return self._pair.prepare(n_replicas)

    def sample_block(self, master_seed: int, replicate_ids) -> tuple:
        """(x1, x2, y) blocks for the replicates, y = C^{-1/2} x1 + x2 exactly."""
        x1, x2 = self._pair.sample_block(master_seed, replicate_ids)
        return x1, x2, self._inv_root * x1 + x2

    def sample(self, master_seed: int, replicate_id: int) -> tuple:
        """One replicate as FieldSamples (x1, x2, y_rep): the one-row block."""
        return tuple(FieldSample(self.spatial_grid, block[0], master_seed, replicate_id)
                     for block in self.sample_block(master_seed, [replicate_id]))
