"""Field samplers.

Three ways to realize a Gaussian field with stationary increments on a grid:

- SpectralSynthesizer: one density's law on the spatial grid,
  K(x, x') = (V(x) + V(x') - V(x - x')) / 2 from the variogram.  Its
  prepare(n) picks the way a campaign is drawn: circulant embedding of the
  increments (a 1-d grid, n <= N) or the Cholesky factor of K (everything
  else); the class docstring states the rule.
- ExactFieldSampler: factorizes a covariance, a plain (N, N) array over the
  grid's points (jittered Cholesky), and maps standard normals through it.
  It is also the synthesizer's Cholesky way.
- CouplingSynthesizer: the domination-based decomposition; draws blocks of
  the dominated field and the residual field as a FieldPair, replicate k
  of both from the two parts of one row of stream k, and assembles the
  representative of the dominating law as C^{-1/2} x1 + x2.

Each draws blocks with sample_block(seed, ids), row j from stream ids[j];
sample(seed, k) is the FieldSample of row 0 of its own sample_block(seed, [k]).

A way, _Circulant or ExactFieldSampler, maps a (B, W) block of normals to B
samples; `width` is its W and `scratch` the floats S a row needs beside
them (2L + 2 for a circulant half-spectrum and transform, 0 for Cholesky).
prepare(n) returns the replicas per block: as many as fit in BLOCK_BYTES at
the working row, W + (S + N if S else 0) for one field (N for its path) and
W1 + W2 + 3N + max(S1, S2) for a FieldPair (both samples and their sum).
So the block bounds depend on n and the grids alone, as they must: a row's
Cholesky product, like a sum over blocks, can change at roundoff with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import covariance_matrix
from .grids import SpatialGrid
from .rng import hermitian_noise
from .spectral import (DominationCertificate, SpectralDensity, difference_density,
                       require_admissible, variogram)

# Eigenvalue floor scale: a covariance's eigenvalues may dip this far below
# zero, relative to its largest diagonal entry, from roundoff in K and in
# its factorization.
PSD_NOISE_FACTOR = 1e-8

# Jitter multipliers tried before declaring a covariance matrix indefinite.
JITTER_LADDER = (1, 2, 4, 8)

# Bytes of the working rows of one replica block.
BLOCK_BYTES = 8 << 20

# Smallest min eigenvalue / max of a circulant embedding that is drawn from
# (its negative eigenvalues, roundoff at most, are set to 0).
EMBEDDING_FLOOR = -1e-12


class IndefiniteMatrixError(RuntimeError):
    """Covariance factorization failed even after jitter escalation."""


def block_rows(width: int) -> int:
    """Rows of `width` float64 values that fit in BLOCK_BYTES (at least one)."""
    return max(1, BLOCK_BYTES // (8 * width))


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
    """Samples one density's law on the spatial grid as blocks of replicas.

    The law is the K of covariance.covariance_matrix, from the variogram;
    the frequency grid only gates admissibility.  prepare(n) picks one of
    two ways to draw a campaign of n replicas, from n and the grids alone:

    - circulant (a 1-d grid, n <= N): the N - 1 increments, a stationary
      sequence with covariance
      c(k) = (V((k + 1) s) + V(|k - 1| s) - 2 V(k s)) / 2 at spacing s, are
      drawn by circulant embedding (Davies & Harte 1987; Wood & Chan 1994;
      Dietrich & Newsam 1997).  The circulant size L is the smallest power
      of two >= 2(N - 1), or 2L if that one does not embed; an embedding
      counts only if its min eigenvalue / max is >= EMBEDDING_FLOOR.  A row
      takes L normals of its stream as a Hermitian half-spectrum, scaled by
      the square root of the eigenvalues, one inverse real FFT and a
      cumulative sum from +0.0 at the origin.  O(L log L) per row; the law
      is K exactly.
    - cholesky (everything else: n > N, a 2-d grid, or no embedding): an
      ExactFieldSampler on K draws the blocks: (B, N) noise @ L^T with the
      jittered Cholesky factor L, its origin column set to +0.0, so the law
      off the origin is K + eps I (eps = 1e-8 of max diag K at the ladder's
      first rung).  The noise width is N.

    `way` is the chosen one; without a prepare() it is the n <= N way,
    built on first use.  A circulant row is bitwise the same in any block.
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
        self._chosen = None

    @property
    def way(self):
        """The _Circulant or ExactFieldSampler of the last prepare(), or of
        prepare(1) without one."""
        if self._chosen is None:
            self.prepare(1)
        return self._chosen

    def prepare(self, n_replicas: int) -> int:
        """Choose the way to draw a campaign of n_replicas, build it unless
        it is the way held, and return the replicas per block (see the
        module docstring)."""
        circulant = n_replicas <= self.spatial_grid.size and self.spatial_grid.dimension == 1
        way = self._chosen
        if circulant and not isinstance(way, _Circulant):
            way = _Circulant.embed(self.density, self.spatial_grid) or way
        if way is None or (not circulant and isinstance(way, _Circulant)):
            way = ExactFieldSampler(
                covariance_matrix(self.density, self.spatial_grid, self.frequency_grid),
                self.spatial_grid)
        self._chosen = way
        path = way.scratch + self.spatial_grid.size if way.scratch else 0
        return min(n_replicas, block_rows(way.width + path))

    def describe(self) -> tuple:
        """(key, value) pairs of the chosen way, for summary lines."""
        return self.way.describe()

    def sample_block(self, master_seed: int, stream_ids) -> np.ndarray:
        """(len(stream_ids), N) samples, row j drawn from stream stream_ids[j],
        the way the last prepare() chose."""
        way = self.way
        return way._synthesize(hermitian_noise(way.width, master_seed, stream_ids))

    def sample(self, master_seed: int, stream_id: int) -> FieldSample:
        """One replica: the one-row block."""
        return FieldSample(self.spatial_grid, self.sample_block(master_seed, [stream_id])[0],
                           master_seed, stream_id)


class _Circulant:
    """The increments of a 1-d uniform grid drawn by circulant embedding of
    their covariance (see SpectralSynthesizer); `width` is the circulant
    size L, the normals a row takes, and `scratch` the 2L + 2 floats of its
    half-spectrum and transform."""

    def __init__(self, grid: SpatialGrid, root: np.ndarray, min_ratio: float):
        self.grid = grid
        self.width = 2 * (len(root) - 1)
        self.scratch = 2 * self.width + 2
        self.min_ratio = min_ratio
        self._root = root

    def describe(self) -> tuple:
        """sampler, the circulant size L and its min eigenvalue / max."""
        return (("sampler", "circulant"), ("sampler_size", self.width),
                ("sampler_min_ratio", self.min_ratio))

    @classmethod
    def embed(cls, density: SpectralDensity, grid: SpatialGrid):
        """The embedding at the smallest power of two L >= 2(N - 1), else at
        2L; None when neither has min eigenvalue / max >= EMBEDDING_FLOOR."""
        from numpy import fft
        smallest = 1 << (2 * grid.size - 3).bit_length()
        for size in (smallest, 2 * smallest):
            half = size // 2
            v = variogram(density, np.arange(half + 2) * grid.spacing)
            c = np.empty(half + 1)          # c(0), ..., c(L/2)
            c[0] = v[1]
            c[1:] = 0.5 * (v[2:] + v[:-2] - 2.0 * v[1:-1])
            eigen = fft.rfft(np.concatenate((c, c[half - 1:0:-1]))).real
            low, top = float(np.min(eigen)), float(np.max(eigen))
            # a zero kernel embeds as the zero field
            min_ratio = low / top if top > 0.0 else (0.0 if low == 0.0 else -np.inf)
            if min_ratio >= EMBEDDING_FLOOR:
                # Var of each real normal: L lambda at 0 and L/2, L lambda / 2 between
                scale = np.full(half + 1, 0.5 * size)
                scale[[0, -1]] = size
                return cls(grid, np.sqrt(scale * np.maximum(eigen, 0.0)), min_ratio)
        return None

    def _synthesize(self, noise: np.ndarray) -> np.ndarray:
        """The (B, N) paths of a (B, L) noise block: row j's normals z read
        as the half-spectrum z_0, z_1 (at L/2) and z_2k + i z_2k+1 at k, times
        the root, through one inverse real FFT, then summed from +0.0."""
        from numpy import fft
        rows, size = noise.shape
        spectrum = np.empty((rows, size // 2 + 1), dtype=complex)
        flat = spectrum.view(float)
        flat[:, :size] = noise
        flat[:, size] = noise[:, 1]
        flat[:, 1] = 0.0
        flat[:, size + 1] = 0.0
        spectrum *= self._root
        increments = fft.irfft(spectrum, n=size, axis=1)
        del spectrum
        block = np.empty((rows, self.grid.size))
        block[:, 0] = 0.0
        np.cumsum(increments[:, :self.grid.size - 1], axis=1, out=block[:, 1:])
        return _check_block(block, self.grid)


def _jittered_factor(entries: np.ndarray) -> tuple:
    """(L, rung): the lower Cholesky factor of entries + jitter*I with
    escalation, and the JITTER_LADDER multiplier that succeeded (0 for a
    zero matrix, which needs no factorization).

    Starts at the PSD noise floor, PSD_NOISE_FACTOR times the largest
    diagonal entry, and doubles up to len(JITTER_LADDER)-1 times; a matrix
    that resists all of them is reported indefinite rather than silently
    smoothed further.
    """
    if not np.any(entries):
        return np.zeros_like(entries), 0
    base = PSD_NOISE_FACTOR * float(np.max(np.diag(entries)))
    for mult in JITTER_LADDER:
        jittered = entries + (base * mult) * np.eye(len(entries))
        try:
            return np.linalg.cholesky(jittered), mult
        except np.linalg.LinAlgError:
            continue
    raise IndefiniteMatrixError(
        f"the {len(entries)} x {len(entries)} covariance matrix is not positive "
        f"semidefinite within jitter {base * JITTER_LADDER[-1]:.3e}")


class ExactFieldSampler:
    """Samples from an (N, N) covariance array over the points of `grid`
    through a cached jittered factorization L.

    The independent oracle for the spectral synthesizer's other ways: the
    two target the same matrix through unrelated mechanisms.  It also draws
    the synthesizer's Cholesky way.  This is where a caller's own array
    enters, so its shape, finiteness, symmetry and diagonal are checked.
    `width` is the normals a row takes (N), `scratch` 0, and `jitter_rung`
    the ladder multiplier that L needed.
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
        self.width = grid.size
        self.scratch = 0
        self._factor, self.jitter_rung = _jittered_factor(entries)

    def describe(self) -> tuple:
        """sampler and the Cholesky jitter rung."""
        return (("sampler", "cholesky"), ("sampler_jitter_rung", self.jitter_rung))

    def _synthesize(self, noise: np.ndarray) -> np.ndarray:
        """The (B, N) sample block noise @ L^T of a (B, N) noise block, with
        the origin column set to +0.0."""
        block = noise @ self._factor.T
        block[:, self.grid.origin_index] = 0.0
        return _check_block(block, self.grid)

    def sample_block(self, master_seed: int, stream_ids) -> np.ndarray:
        """(len(stream_ids), N) samples: row j is L times the first N normals
        of stream stream_ids[j], with the origin column set to +0.0."""
        return self._synthesize(hermitian_noise(self.width, master_seed, stream_ids))

    def sample(self, master_seed: int, stream_id: int) -> FieldSample:
        """One replica: the one-row block."""
        return FieldSample(self.grid, self.sample_block(master_seed, [stream_id])[0],
                           master_seed, stream_id)


class FieldPair:
    """Two independent fields on the same grids, drawn together: replicate k
    is one row of W1 + W2 normals from stream k, whose first W1 drive the
    first field and last W2 the second, W1 and W2 the widths of the ways
    the two fields chose."""

    def __init__(self, first: SpectralSynthesizer, second: SpectralSynthesizer):
        self.first = first
        self.second = second

    def prepare(self, n_replicas: int) -> int:
        """Choose each field's way for n_replicas and return the replicas per
        block of the pair's working row (see the module docstring)."""
        self.first.prepare(n_replicas)
        self.second.prepare(n_replicas)
        first, second = self.first.way, self.second.way
        width = (first.width + second.width + 3 * self.first.spatial_grid.size
                 + max(first.scratch, second.scratch))
        return min(n_replicas, block_rows(width))

    def sample_block(self, master_seed: int, stream_ids) -> tuple:
        """(first, second) blocks, row j of both from stream stream_ids[j],
        the way the last prepare() chose."""
        first, second = self.first.way, self.second.way
        noise = hermitian_noise(first.width + second.width, master_seed, stream_ids)
        return (first._synthesize(noise[:, :first.width]),
                second._synthesize(noise[:, first.width:]))


class CouplingSynthesizer:
    """Draws (x1, x2, y_rep) replicas of the domination-based decomposition.

    x1 has the dominated density f_X and x2 the residual density
    f_Y - f_X/C, drawn as a FieldPair: both halves of stream k's row for
    replicate k; y_rep = C^{-1/2} x1 + x2 then carries the dominating law,
    K_Y = K_X / C + K_residual, since the residual's terms are Y's minus X's
    over C.  The certificate must come from the sampling
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

    def describe(self) -> tuple:
        """(field, describe()) of the two components, x and the residual."""
        return (("x", self._pair.first.describe()),
                ("residual", self._pair.second.describe()))

    def sample_block(self, master_seed: int, replicate_ids) -> tuple:
        """(x1, x2, y) blocks for the replicates, y = C^{-1/2} x1 + x2 exactly."""
        x1, x2 = self._pair.sample_block(master_seed, replicate_ids)
        return x1, x2, self._inv_root * x1 + x2

    def sample(self, master_seed: int, replicate_id: int) -> tuple:
        """One replicate as FieldSamples (x1, x2, y_rep): the one-row block."""
        return tuple(FieldSample(self.spatial_grid, block[0], master_seed, replicate_id)
                     for block in self.sample_block(master_seed, [replicate_id]))
