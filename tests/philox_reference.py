"""Frozen reference for ``monthlysum.rng.path_normals``: one Philox pass per block.

A verbatim copy of the per-block uint32 generator the package shipped before
its rounds ran in uint64 lanes over whole tiles of counter blocks. It imports
nothing from ``monthlysum``, so the bit-identity property in ``test_rng.py``
compares the production generator against code it does not share. Do not
edit it to follow ``rng.py``: its value is that it stays as it was.

Its path indices come from ``np.arange(first_path, first_path + n_paths)``,
which cannot reach a stop of 2^64, so it covers ranges with
``first_path + n_paths < 2**64``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85
_MASK32 = 0xFFFFFFFF
_ROUNDS = 10

_TWO_NEG_52 = 2.0**-52


def _philox_rounds(
    c0: np.ndarray, c1: np.ndarray, c2: np.ndarray, c3: np.ndarray, key0: int, key1: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run the ten Philox rounds on parallel uint32 counter lanes."""
    k0 = key0 & _MASK32
    k1 = key1 & _MASK32
    for _ in range(_ROUNDS):
        prod0 = c0.astype(np.uint64) * _M0
        prod1 = c2.astype(np.uint64) * _M1
        hi0 = (prod0 >> np.uint64(32)).astype(np.uint32)
        lo0 = prod0.astype(np.uint32)
        hi1 = (prod1 >> np.uint64(32)).astype(np.uint32)
        lo1 = prod1.astype(np.uint32)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint32(k0), lo1, hi0 ^ c3 ^ np.uint32(k1), lo0
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32
    return c0, c1, c2, c3


def philox4x32(
    counter: tuple[int, int, int, int], key: tuple[int, int]
) -> tuple[int, int, int, int]:
    """Encrypt one counter block; exposed for known-answer verification."""
    lanes = [np.array([word & _MASK32], dtype=np.uint32) for word in counter]
    out = _philox_rounds(*lanes, key[0], key[1])
    return tuple(int(word[0]) for word in out)


def _to_uniform(bits: np.ndarray) -> np.ndarray:
    """Map uint64 words to doubles strictly inside (0, 1)."""
    return ((bits >> np.uint64(12)).astype(np.float64) + 0.5) * _TWO_NEG_52


def path_normals(seed: int, first_path: int, n_paths: int, count: int, stream: int) -> np.ndarray:
    """Standard normal variates for a contiguous range of paths.

    Returns an (n_paths, count) array whose row for path p is a pure
    function of (seed, p, stream). Each counter block yields two normals,
    so a path consumes ceil(count / 2) blocks.

    Args:
        seed: generator key, 0 <= seed < 2^64.
        first_path: index of the first path in the range.
        n_paths: number of consecutive paths.
        count: normals per path.
        stream: stream id keeping distinct payoffs decorrelated.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed!r}")
    if first_path < 0 or n_paths < 0 or count < 0:
        raise ValueError("first_path, n_paths and count must be nonnegative")
    key0 = seed & _MASK32
    key1 = (seed >> 32) & _MASK32

    path_index = np.arange(first_path, first_path + n_paths, dtype=np.uint64)
    c1 = path_index.astype(np.uint32)
    c2 = (path_index >> np.uint64(32)).astype(np.uint32)
    c3 = np.full(n_paths, stream & _MASK32, dtype=np.uint32)

    uniforms = np.empty((n_paths, count), dtype=np.float64)
    for block in range((count + 1) // 2):
        c0 = np.full(n_paths, block, dtype=np.uint32)
        w0, w1, w2, w3 = _philox_rounds(c0, c1, c2, c3, key0, key1)
        first = (w0.astype(np.uint64) << np.uint64(32)) | w1.astype(np.uint64)
        second = (w2.astype(np.uint64) << np.uint64(32)) | w3.astype(np.uint64)
        col = 2 * block
        uniforms[:, col] = _to_uniform(first)
        if col + 1 < count:
            uniforms[:, col + 1] = _to_uniform(second)
    return ndtri(uniforms)
