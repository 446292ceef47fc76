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

_SEED_BOUND = 2 ** 64


def _check_key(master_seed: int, stream_id: int):
    if not 0 <= master_seed < _SEED_BOUND:
        raise ValueError(f"master seed must be a 64-bit unsigned integer, got {master_seed}")
    if not 0 <= stream_id < _SEED_BOUND:
        raise ValueError(f"stream id must be a 64-bit unsigned integer, got {stream_id}")


def substream(master_seed: int, stream_id: int) -> Generator:
    """Independent generator keyed by (master_seed, stream_id)."""
    _check_key(master_seed, stream_id)
    key = np.array([master_seed, stream_id], dtype=np.uint64)
    return Generator(Philox(key=key))


def hermitian_noise(width: int, master_seed: int, stream_ids) -> np.ndarray:
    """A (len(stream_ids), width) block of standard normals.

    Row j is the first `width` draws of substream(master_seed,
    stream_ids[j]), bit for bit, written in place.  One Philox serves the
    block: for each row its state is reset to key (master_seed, stream_id)
    at counter 0 with an empty buffer, which is the state a new
    Philox(key=...) starts in, at a fraction of the cost of building one.
    The synthesizers say how a row is read: as Hermitian noise on the
    frequency nodes (covariance.spectral_factor), or as the N - 1 normals a
    low-rank factor maps to the points.
    """
    bit_generator = Philox(0)
    generator = Generator(bit_generator)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64),
                       "key": np.zeros(2, dtype=np.uint64)},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    key = state["state"]["key"]
    block = np.empty((len(stream_ids), width))
    for row, stream_id in zip(block, stream_ids):
        _check_key(master_seed, stream_id)
        key[:] = (master_seed, stream_id)
        bit_generator.state = state
        generator.standard_normal(out=row)
    return block
