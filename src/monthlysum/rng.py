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

One pass of the rounds covers a tile of :data:`_TILE` lanes (counter
blocks) taken in order from the (path, block) grid of the request,
path-major, so n paths of b blocks make ceil(n * b / _TILE) passes. A
tile's counters are one uint64 (4, n) state with rows (c0, c2, c1, c3),
each word below 2^32: a round multiply yields the exact 64-bit product,
and each of a round's five numpy calls covers two rows. The last round
packs as it goes, since (hi ^ c ^ k) << 32 | lo is product ^ ((c ^ k) << 32),
so each block's two 64-bit words go straight into the output. The normals
overwrite them: an odd count is returned as a view with a spare column.

Uniforms are ((bits >> 12) + 0.5) * 2^-52, each exactly representable and
strictly inside (0, 1), so the inverse-CDF transform never produces an
infinity. They are made on the bits: v = bits >> 12 under the exponent of
1.0 is the double 1 + v * 2^-52, and subtracting 1 - 2^-53 leaves
(v + 0.5) * 2^-52, representable, so IEEE subtraction returns it exactly.
The normals are scipy's ``ndtri`` of them, tile by tile, imported at the first
draw so that ``import monthlysum`` and a closed-form price never load
``scipy.special``. At ``threads`` >= 2 on at least 2 allowed CPUs, one helper
thread (started at the first such draw) runs it, releasing the GIL, while the
caller runs the next tile's rounds and half of the last tile; ``ndtri`` is
elementwise, so no bit depends on the thread count.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .contracts import _require_integer

__all__ = [
    "STREAM_SHARED",
    "path_normals",
    "philox4x32",
]

#: Round multipliers, one per row of the state's top half (c0, c2).
_MULTIPLIERS = np.array([[0xD2511F53], [0xCD9E8D57]], dtype=np.uint64)
#: Round r adds r times the Weyl constants to the key.
_KEY_STEPS = np.arange(10, dtype=np.uint64)[:, None, None] * np.uint64([[0x9E3779B9], [0xBB67AE85]])
_MASK32 = 0xFFFFFFFF

#: Counter blocks (lanes) per pass of the rounds. It bounds the six lane
#: buffers of a pass to 6 * 8 * _TILE bytes; the draws do not depend on it.
_TILE = 12288

#: Lane offsets within a tile, shared read-only by every pass.
_LANE_INDEX = np.arange(_TILE, dtype=np.uint64)

#: Each thread's work arrays by role (see _scratch_array).
_scratch = threading.local()

#: The helper thread's job queue, once started (see _helper_queue).
_helper: list = []
_helper_lock = threading.Lock()
if hasattr(os, "register_at_fork"):  # a forked child has no helper thread
    os.register_at_fork(after_in_child=_helper.clear)

#: The stream id of every Monte Carlo draw, so that all payoffs read
#: common random numbers.
STREAM_SHARED = 0


def _rounds(state: np.ndarray, product: np.ndarray, key: tuple[int, int], out: np.ndarray) -> None:
    """Run the ten Philox rounds on a (4, n) ``state`` and write the output words to ``out``.

    ``state`` holds rows (c0, c2, c1, c3) and is overwritten; ``product``
    is (2, n) scratch. Row 0 of the (2, n) ``out`` receives each block's
    (c0 << 32) | c1, row 1 its (c2 << 32) | c3.
    """
    keys = (np.uint64([[key[0] & _MASK32], [key[1] & _MASK32]]) + _KEY_STEPS) & _MASK32
    top, bottom = state[:2], state[2:]
    # rows (c2 * M1, c0 * M0), whose halves become (c0, c1) and (c2, c3)
    swapped = product[::-1]
    for round_key in keys[:-1]:
        np.multiply(top, _MULTIPLIERS, out=product)
        np.right_shift(swapped, 32, out=top)
        top ^= bottom
        top ^= round_key
        np.bitwise_and(swapped, _MASK32, out=bottom)
    np.multiply(top, _MULTIPLIERS, out=product)
    bottom ^= keys[-1]
    bottom <<= 32
    np.bitwise_xor(swapped, bottom, out=out)


def philox4x32(
    counter: tuple[int, int, int, int], key: tuple[int, int]
) -> tuple[int, int, int, int]:
    """Encrypt one block of 32-bit words (ValueError outside [0, 2^32)), for known answers."""
    counter = [_require_integer(f"counter[{i}]", w, 0, _MASK32) for i, w in enumerate(counter)]
    key = [_require_integer(f"key[{i}]", w, 0, _MASK32) for i, w in enumerate(key)]
    state = np.array([[counter[row]] for row in (0, 2, 1, 3)], dtype=np.uint64)
    words = np.empty((2, 1), dtype=np.uint64)
    _rounds(state, np.empty_like(words), key, words)
    return tuple(int(word) >> shift & _MASK32 for word in words[:, 0] for shift in (32, 0))


def _to_unit_interval(bits: np.ndarray) -> np.ndarray:
    """Map uint64 words, in place, to doubles strictly inside (0, 1).

    Returns the float64 view of ``bits``' memory that now holds the values.
    """
    bits >>= np.uint64(12)
    bits |= np.uint64(0x3FF0000000000000)  # the exponent of 1.0
    u = bits.view(np.float64)
    u -= 1.0 - 2.0**-53
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


def _serve(jobs) -> None:
    """The helper thread: run each ``(ndtri, u, done)`` job in place, then report to ``done``."""
    while True:
        ndtri, u, done = jobs.get()
        try:
            ndtri(u, out=u)
            done.put(None)
        except Exception as error:  # handed to the waiting draw, which raises it
            done.put(error)


def _helper_queue(threads: int):
    """The helper's job queue (its thread started at first use), or None on one allowed CPU."""
    affinity = getattr(os, "sched_getaffinity", None)
    if threads < 2 or (len(affinity(0)) if affinity else os.cpu_count() or 1) < 2:
        return None
    with _helper_lock:
        if not _helper:
            import queue  # deferred: import monthlysum loads no new module
            jobs = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(jobs,), name="monthlysum-ndtri", daemon=True).start()
            _helper.append(jobs)
        return _helper[0]


def _draw_normals(
    words: np.ndarray, seed: int, first_path: int, count: int, stream: int, threads: int = 1
) -> np.ndarray:
    """:func:`path_normals` on checked arguments, into the caller's memory.

    The raw draws fill ``words``, a C-contiguous uint64 (n_paths,
    2 * ceil(count / 2)) array, a tile per :func:`_rounds` call. The
    normals overwrite them and are returned as the float64 view
    ``[:, :count]``, which for an odd count leaves a spare column per row.
    At ``threads`` >= 2 every helper job is done before this returns or raises.
    """
    from scipy.special import ndtri  # deferred: a closed-form quote never loads scipy.special

    n_paths, width = words.shape
    blocks = width // 2
    lanes = n_paths * blocks
    # two words per block, written in column order: row p is path p's draws
    flat = words.reshape(lanes, 2)
    buffers = _scratch_array("lanes", (6, _TILE), np.uint64)
    jobs = _helper_queue(threads)
    done = None if jobs is None else type(jobs)()  # this draw's replies
    pending = 0
    try:
        for lo in range(0, lanes, _TILE):
            n = min(_TILE, lanes - lo)
            state, product = buffers[:4, :n], buffers[4:, :n]
            lane, path = product
            # lane lo + i holds block (lo + i) % blocks of path (lo + i) // blocks
            np.add(_LANE_INDEX[:n], np.uint64(lo), out=lane)
            # numpy divides by a scalar fast, but its divmod does not
            np.floor_divide(lane, np.uint64(blocks), out=path)
            np.multiply(path, np.uint64(blocks), out=state[0])
            np.subtract(lane, state[0], out=state[0])
            path += np.uint64(first_path)
            np.right_shift(path, 32, out=state[1])
            np.bitwise_and(path, _MASK32, out=state[2])
            state[3].fill(stream)
            tile = flat[lo : lo + n]
            _rounds(state, product, (seed, seed >> 32), tile.T)
            u = _to_unit_interval(tile).reshape(-1)
            if jobs is not None:
                handed = n if lo + n == lanes else 2 * n  # the last tile: its first half
                jobs.put((ndtri, u[:handed], done))
                pending += 1
                u = u[handed:]
            ndtri(u, out=u)
    finally:
        errors = [error for error in (done.get() for _ in range(pending)) if error]
    if errors:
        raise errors[0]
    return words.view(np.float64)[:, :count]
