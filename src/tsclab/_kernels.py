"""Counter-based random streams for the sampler.

Every response draws from its own stream: a 64-bit key derived from the
run seed and a path of indices (decision, response, ...), and uniforms at
counter positions 1, 2, ... of that key. A draw depends only on its key and
position, never on how many streams are drawn together, so batching
responses cannot change any of them (Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3", SC 2011).
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"
COMPILED = False

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = np.uint64
_INV_2_53 = 1.0 / float(1 << 53)


def _finalize(z):
    """SplitMix64 finalizer on uint64 arrays (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _U64(30))) * _U64(_MIX1)
        z = (z ^ (z >> _U64(27))) * _U64(_MIX2)
        return z ^ (z >> _U64(31))


def _finalize_int(z: int) -> int:
    """SplitMix64 finalizer on one Python int already in [0, 2**64)."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_key(seed: int, *indices: int) -> int:
    """Derive a stream key from a seed and a path of indices.

    Each level is avalanche-mixed so (seed, decision, response) paths give
    statistically independent streams. Seeds and indices are taken modulo
    2**64, so negative and oversized values are accepted.
    """
    key = _finalize_int((seed + _GOLDEN) & _MASK)
    for ix in indices:
        key = _finalize_int(((key ^ (ix & _MASK)) + _GOLDEN) & _MASK)
    return key


def uniforms_from_key(key, n: int) -> np.ndarray:
    """Doubles in [0, 1) from counter positions 1..n of the stream.

    ``key`` is one key, giving shape (n,), or a sequence of keys, giving
    one row per key, shape (len(key), n).
    """
    keys = np.asarray(key, dtype=np.uint64)[..., None]
    with np.errstate(over="ignore"):
        counters = keys + _U64(_GOLDEN) * np.arange(1, n + 1, dtype=np.uint64)
    return (_finalize(counters) >> _U64(11)).astype(np.float64) * _INV_2_53
