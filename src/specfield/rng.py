"""Counter-based random streams for reproducible parallel Monte Carlo.

Every draw is addressed by (master_seed, stream_id): the pair keys a Philox
generator, so substreams are independent and can be created in any order, on
any worker, with identical results.  Replicate k of a coupled pair uses the
stream pair (2k, 2k+1).  Noise comes in blocks of replicas, but each row is
still the draw of its own stream, so a block is the same whatever replicas
share it.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from .grids import FrequencyGrid

_SEED_BOUND = 2 ** 64


def substream(master_seed: int, stream_id: int) -> Generator:
    """Independent generator keyed by (master_seed, stream_id)."""
    if not 0 <= master_seed < _SEED_BOUND:
        raise ValueError(f"master seed must be a 64-bit unsigned integer, got {master_seed}")
    if not 0 <= stream_id < _SEED_BOUND:
        raise ValueError(f"stream id must be a 64-bit unsigned integer, got {stream_id}")
    key = np.array([master_seed, stream_id], dtype=np.uint64)
    return Generator(Philox(key=key))


def hermitian_noise(grid: FrequencyGrid, master_seed: int, stream_ids) -> np.ndarray:
    """A (len(stream_ids), grid.size) block of standard normals.

    Row j is the draw of substream(master_seed, stream_ids[j]), written in
    place.  covariance.spectral_factor describes how a row is read.
    """
    block = np.empty((len(stream_ids), grid.size))
    for row, stream_id in zip(block, stream_ids):
        substream(master_seed, stream_id).standard_normal(out=row)
    return block
