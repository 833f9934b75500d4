"""Counter-based random numbers with per-path determinism.

Implements Philox4x32-10 (Salmon, Moraes, Dror and Shaw, SC'11), vectorized
over numpy arrays. Each 128-bit counter block encrypts to four 32-bit words
under a 64-bit key; blocks are independent, so any path's variates can be
generated in isolation.

Layout: key = the user seed (low and high 32-bit halves); counter =
(block index within the path, path index low, path index high, stream id).
A path's normals are therefore a pure function of (seed, path index, stream
id), and no batching of the work can change a draw: it only decides which
counter blocks share a pass. The Monte Carlo engine draws every payoff from
the one stream :data:`STREAM_SHARED`.

The four counter words live in uint64 lanes, each holding a value below
2^32, for all ten rounds. The round multiply then yields the exact 64-bit
product, whose halves are ``>> 32`` and ``& 0xFFFFFFFF``, with no casts.
One pass of the rounds covers a tile of :data:`_TILE` lanes taken in order
from the (path, block) grid of the request, path-major, so a short path
shares its pass with its neighbours and a request of n paths of b blocks
makes ceil(n * b / _TILE) passes. Every step works in place on the
calling thread's scratch lane buffers, and the finished words go straight
into the output. The normals then overwrite their own words, so an odd
count is returned as a view that leaves one spare column per row.

Uniforms are built from 52 of the 64 bits as ((bits >> 12) + 0.5) * 2^-52,
every value exactly representable and strictly inside (0, 1), so the
inverse-CDF transform never produces an infinity.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy.special import ndtri

from .contracts import _require_integer

__all__ = [
    "STREAM_SHARED",
    "path_normals",
    "philox4x32",
]

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85
_MASK32 = 0xFFFFFFFF
_ROUNDS = 10

#: Counter blocks (lanes) per pass of the rounds. It bounds the six lane
#: buffers of a pass to 6 * 8 * _TILE bytes; the draws do not depend on it.
_TILE = 12288

#: Lane offsets within a tile, shared read-only by every pass.
_LANE_INDEX = np.arange(_TILE, dtype=np.uint64)

#: Each thread's work arrays by role (see _scratch_array).
_scratch = threading.local()

#: The stream id of every Monte Carlo draw, so that all payoffs read
#: common random numbers.
STREAM_SHARED = 0

_TWO_NEG_52 = 2.0**-52


def _rounds(c0, c1, c2, c3, p0, p1, key0: int, key1: int) -> None:
    """Run the ten Philox rounds in place on uint64 lanes holding 32-bit words.

    ``p0`` and ``p1`` are scratch lanes of the same length as the counters.
    """
    k0 = key0 & _MASK32
    k1 = key1 & _MASK32
    for _ in range(_ROUNDS):
        np.multiply(c0, _M0, out=p0)
        np.multiply(c2, _M1, out=p1)
        np.right_shift(p1, 32, out=c0)
        c0 ^= c1
        c0 ^= k0
        np.bitwise_and(p1, _MASK32, out=c1)
        np.right_shift(p0, 32, out=c2)
        c2 ^= c3
        c2 ^= k1
        np.bitwise_and(p0, _MASK32, out=c3)
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32


def philox4x32(
    counter: tuple[int, int, int, int], key: tuple[int, int]
) -> tuple[int, int, int, int]:
    """Encrypt one counter block; exposed for known-answer verification."""
    lanes = [np.array([word & _MASK32], dtype=np.uint64) for word in counter]
    _rounds(*lanes, np.empty(1, np.uint64), np.empty(1, np.uint64), key[0], key[1])
    return tuple(int(word[0]) for word in lanes)


def _to_unit_interval(bits: np.ndarray) -> np.ndarray:
    """Map uint64 words, in place, to doubles strictly inside (0, 1).

    Returns the float64 view of ``bits``' memory that now holds the values.
    """
    bits >>= np.uint64(12)
    u = bits.view(np.float64)
    np.add(bits, 0.5, out=u)
    u *= _TWO_NEG_52
    return u


def _scratch_array(role: str, shape: tuple[int, int], dtype: type) -> np.ndarray:
    """The calling thread's array for ``role``, viewed at this shape.

    The memory is kept between calls and only ever grows. Block-sized
    arrays freed after every call made the next call page-fault in some
    processes and not in others, depending on the heap's history.
    """
    size = shape[0] * shape[1] * np.dtype(dtype).itemsize
    memory = getattr(_scratch, role, None)
    if memory is None or memory.size < size:
        memory = np.empty(size, dtype=np.uint8)
        setattr(_scratch, role, memory)
    return memory[:size].view(dtype).reshape(shape)


def path_normals(seed: int, first_path: int, n_paths: int, count: int, stream: int) -> np.ndarray:
    """Standard normal variates for a contiguous range of paths.

    Returns an (n_paths, count) array whose row for path p is a pure
    function of (seed, p, stream). Each counter block yields two normals,
    so a path consumes ceil(count / 2) blocks. For an odd count the array
    is a view of an (n_paths, count + 1) one, with a spare last column.

    Args:
        seed: generator key, 0 <= seed < 2^64.
        first_path: index of the first path in the range; the range must
            satisfy 0 <= first_path and first_path + n_paths <= 2^64.
        n_paths: number of consecutive paths, 0 or more.
        count: normals per path, 0 or more.
        stream: stream id, 0 <= stream < 2^32; distinct ids give
            independent draws.

    Raises:
        ValueError: for an argument that is not an integer in these ranges.
    """
    seed = _require_integer("seed", seed, 0, 2**64 - 1)
    first_path = _require_integer("first_path", first_path, 0)
    n_paths = _require_integer("n_paths", n_paths, 0)
    count = _require_integer("count", count, 0)
    stream = _require_integer("stream", stream, 0, 2**32 - 1)
    if first_path + n_paths > 2**64:
        raise ValueError(
            f"paths [{first_path}, {first_path + n_paths}) exceed the 2^64 path indices"
        )
    words = np.empty((n_paths, count + count % 2), dtype=np.uint64)
    return _draw_normals(words, seed, first_path, count, stream)


def _draw_normals(
    words: np.ndarray, seed: int, first_path: int, count: int, stream: int
) -> np.ndarray:
    """:func:`path_normals` on checked arguments, into the caller's memory.

    The raw draws fill ``words``, a C-contiguous uint64 (n_paths,
    2 * ceil(count / 2)) array. The normals overwrite them and are
    returned as the float64 view ``[:, :count]`` of that memory, which for
    an odd count leaves one spare column per row.
    """
    n_paths, width = words.shape
    blocks = width // 2
    lanes = n_paths * blocks
    # two words per block, written in column order: row p is path p's draws
    flat = words.reshape(lanes, 2)
    buffers = _scratch_array("lanes", (6, _TILE), np.uint64)
    for lo in range(0, lanes, _TILE):
        n = min(_TILE, lanes - lo)
        c0, c1, c2, c3, p0, p1 = buffers[:, :n]
        # lane lo + i holds block (lo + i) % blocks of path (lo + i) // blocks
        np.add(_LANE_INDEX[:n], np.uint64(lo), out=p1)
        np.divmod(p1, np.uint64(blocks), out=(p0, c0))
        p0 += np.uint64(first_path)
        np.bitwise_and(p0, _MASK32, out=c1)
        np.right_shift(p0, 32, out=c2)
        c3.fill(stream)
        _rounds(c0, c1, c2, c3, p0, p1, seed, seed >> 32)
        tile = flat[lo : lo + n]
        np.left_shift(c0, 32, out=tile[:, 0])
        tile[:, 0] |= c1
        np.left_shift(c2, 32, out=tile[:, 1])
        tile[:, 1] |= c3
        _to_unit_interval(tile)
    normals = words.view(np.float64)[:, :count]
    return ndtri(normals, out=normals)
