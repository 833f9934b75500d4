"""Counter-based random numbers with per-path determinism, and the Monte Carlo block walk.

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

Draws are period-major: rows 2b and 2b + 1 of a draw's (2 * blocks, n)
words hold block b's two words for each of its n <= :data:`BLOCK` paths. A
pass of the rounds covers a tile of at most :data:`_TILE` lanes (counter
blocks), whole block rows, so its output is a slab of rows. Its counters
are one uint64 (4, rows, n) state with rows (c0, c2, c1, c3), each word
below 2^32: a round multiply yields the exact 64-bit product, and each of a
round's five numpy calls covers two rows. As c0 depends on the block alone
and (c1, c2) on the path alone, rounds 0 and 1 run on those vectors, and
round 1 writes the state by broadcasting. The last round packs as it goes,
since (hi ^ c ^ k) << 32 | lo is product ^ ((c ^ k) << 32), writing each
block's two words into their rows; the normals overwrite them, and an odd
count leaves a spare last row.

Uniforms are ((bits >> 12) + 0.5) * 2^-52, each exactly representable and
strictly inside (0, 1), so the inverse-CDF transform never produces an
infinity. They are made on the bits: v = bits >> 12 under the exponent of
1.0 is the double 1 + v * 2^-52, and subtracting 1 - 2^-53 leaves
(v + 0.5) * 2^-52, representable, so IEEE subtraction returns it exactly.
The normals are scipy's compiled ``ndtri`` (Cephes) of them, tile by tile.
:func:`_ndtri` loads it at the first draw from ``scipy.special``'s extension
modules alone (:mod:`monthlysum._compiled`): ``_ufuncs``, which holds it,
after the four siblings that ``_ufuncs`` imports. The package ``__init__``
never runs, so a draw loads about 280 fewer modules, and ``import
monthlysum`` and a closed-form price load neither. A later ``import
scipy.special`` reuses those modules, so ``scipy.special.ndtri`` is the
engine's ``ndtri``. :func:`_blocks` is the engine's one walk over draw rows,
:data:`BLOCK` at a time. At ``threads`` >= 2 on at least 2 allowed CPUs, for
walks of at least :data:`_HANDOFF_LANES` counter blocks, one helper thread
(started at the first such walk) runs each tile's ``ndtri``, releasing the
GIL, while the caller runs the next tile's rounds or prices the block before;
``ndtri`` is elementwise, so no bit depends on the thread count.
"""

from __future__ import annotations

import functools
import os
import threading
from contextlib import suppress
from typing import Iterator

import numpy as np

from ._compiled import _load
from .contracts import _require_integer

__all__ = [
    "STREAM_SHARED",
    "path_normals",
    "philox4x32",
]

#: Round multipliers, one per row of the state's top half (c0, c2).
_MULTIPLIERS = np.array([[[0xD2511F53]], [[0xCD9E8D57]]], dtype=np.uint64)
#: Round r adds r times the Weyl constants to the key.
_KEY_STEPS = np.arange(10, dtype=np.uint64)[:, None, None] * np.uint64([[0x9E3779B9], [0xBB67AE85]])
_MASK32 = 0xFFFFFFFF

#: Draw rows (paths) per block of the walk, and per chunk of path_normals. It
#: bounds the memory of one block of normals; the draws do not depend on it.
BLOCK = 4096

#: Counter blocks (lanes) per pass of the rounds. It bounds the six lane
#: buffers of a pass to 6 * 8 * _TILE bytes; the draws do not depend on it.
_TILE = 12288

#: Offsets of a tile's block rows and paths, shared read-only by every pass.
_OFFSETS = np.arange(_TILE, dtype=np.uint64)

#: Counter blocks below which a walk at threads >= 2 runs serially: the hand-off
#: lost up to 200 x 12 normals (1200 blocks) and won from 400 x 12 (BENCH_12.json).
_HANDOFF_LANES = 2048

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


@functools.cache
def _ndtri():
    """scipy's compiled ``ndtri`` ufunc, loaded without running ``scipy.special``'s ``__init__``."""
    return _load("special", ("_ufuncs_cxx", "_ellip_harm_2", "_special_ufuncs", "_gufuncs", "_ufuncs")).ndtri


def _round_keys(key: tuple[int, int]) -> np.ndarray:
    """The ten round keys of a key's 32-bit halves, each (2, 1, 1)."""
    return ((np.uint64([[key[0] & _MASK32], [key[1] & _MASK32]]) + _KEY_STEPS) & _MASK32)[..., None]


def _rounds(
    state: np.ndarray, product: np.ndarray, keys: np.ndarray, out: np.ndarray, first: int = 0
) -> None:
    """Run Philox rounds ``first`` to 9 on a (4, rows, n) ``state`` and write the output words to ``out``.

    ``state`` holds rows (c0, c2, c1, c3) and is overwritten; ``product`` is (2, rows, n)
    scratch, ``keys`` from :func:`_round_keys`. Row 0 of the (2, rows, n) ``out`` receives
    each block's (c0 << 32) | c1, row 1 its (c2 << 32) | c3.
    """
    top, bottom = state[:2], state[2:]
    # rows (c2 * M1, c0 * M0), whose halves become (c0, c1) and (c2, c3)
    swapped = product[::-1]
    for round_key in keys[first:-1]:
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
    state = np.array([counter[row] for row in (0, 2, 1, 3)], dtype=np.uint64).reshape(4, 1, 1)
    words = np.empty((2, 1, 1), dtype=np.uint64)
    _rounds(state, np.empty_like(words), _round_keys(key), words)
    return tuple(int(word) >> shift & _MASK32 for word in words.ravel() for shift in (32, 0))


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

    Returns a C-contiguous (n_paths, count) array, drawn period-major BLOCK
    paths at a time and transposed, whose row for path p is a pure function
    of (seed, p, stream). Each counter block yields two normals, so a path
    consumes ceil(count / 2) blocks.

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
    out = np.empty((n_paths, count), dtype=np.float64)
    for start in range(0, n_paths, BLOCK):  # not into the scratch, where a caller's block may be
        words = np.empty((count + count % 2, min(BLOCK, n_paths - start)), dtype=np.uint64)
        out[start : start + BLOCK] = _draw_normals(words, seed, first_path + start, count, stream)[0].T
    return out


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
    words: np.ndarray, seed: int, first_path: int, count: int, stream: int, jobs=None, split=True
):
    """:func:`path_normals`, transposed, on checked arguments, into the caller's memory.

    The raw draws fill ``words``, a C-contiguous uint64 (2 * ceil(count / 2), n_paths)
    array of 1 to :data:`BLOCK` paths, a tile per :func:`_rounds` call: rows 2b and 2b + 1
    hold the two words of every path's block b. The normals overwrite them and are returned
    as ``z``, the float64 view ``[:count]``, in ``(z, wait)``: ``z`` is whole once ``wait()``
    has returned, after the jobs handed to the helper's queue ``jobs`` (unless None), or
    raised the first failed one's error. The caller runs the second half of the last tile's
    rows if ``split``. A draw that raises waits for its jobs first.
    """
    ndtri = _ndtri()
    blocks, n_paths = len(words) // 2, words.shape[1]
    height = _TILE // n_paths  # block rows per tile, each across every path
    pairs = words.reshape(blocks, 2, n_paths)  # [b, w, p]: word w of path p's block b
    buffers = _scratch_array("lanes", (6, height * n_paths), np.uint64).reshape(6, height, n_paths)
    keys = _round_keys((seed, seed >> 32))
    # rounds 0 and 1 of the path's counter words c1, c2 (its index halves)
    path = (_OFFSETS[:n_paths] + np.uint64(first_path))[None]
    q = (path >> 32) * _MULTIPLIERS[1]
    c1, q = q & _MASK32, ((q >> 32) ^ (path & _MASK32) ^ keys[0, 0]) * _MULTIPLIERS[0]
    c2_path, c3_path = (q >> 32) ^ keys[1, 1], q & _MASK32
    done = None if jobs is None else type(jobs)()  # this draw's replies
    pending = 0
    try:
        for b0 in range(0, blocks, height):
            k = min(height, blocks - b0)
            # rounds 0 and 1 of the block index c0 (c3 is the stream); round 1
            # writes the four state rows, each a block vector xor a path vector
            q0 = (_OFFSETS[:k, None] + b0) * _MULTIPLIERS[0]
            q = ((q0 >> 32) ^ stream ^ keys[0, 1]) * _MULTIPLIERS[1]
            state, product = buffers[:4, :k], buffers[4:, :k]
            np.bitwise_xor((q >> 32) ^ keys[1, 0], c1, out=state[0])
            np.bitwise_xor(c2_path, q0 & _MASK32, out=state[1])
            np.bitwise_and(q, _MASK32, out=state[2])
            state[3] = c3_path
            _rounds(state, product, keys, pairs[b0 : b0 + k].swapaxes(0, 1), 2)
            u = _to_unit_interval(words[2 * b0 : 2 * (b0 + k)])
            if jobs is not None:
                handed = k if split and b0 + k == blocks else 2 * k  # the last tile: half its rows
                jobs.put((ndtri, u[:handed], done))
                pending += 1
                u = u[handed:]
            ndtri(u, out=u)
    except BaseException:  # the draw's own error wins; its jobs still finish first
        for _ in range(pending):
            done.get()
        raise
    return words.view(np.float64)[:count], lambda: _wait(done, pending)


def _blocks(
    seed: int, rows: int, count: int, threads: int = 1
) -> Iterator[tuple[int, int, np.ndarray]]:
    """``(start, stop, z)`` per block: ``count`` monthly normals for each draw row in [start, stop).

    The blocks cover rows [0, ``rows``) of :data:`STREAM_SHARED` in order, :data:`BLOCK` at a
    time; ``z`` stays in the thread's scratch until the next block drawn into the same scratch.
    The walk takes the helper's queue once, and with it each block after the first is drawn,
    into the other scratch, before the block before it is yielded, so that is the block after
    next; only the last one has the caller run half its last tile. No job outlives the walk.
    """
    jobs = _helper_queue(threads) if rows * ((count + 1) // 2) >= _HANDOFF_LANES else None
    ahead = jobs is not None  # the look-ahead runs exactly when the helper does
    drawn = []  # (start, stop, z, wait) per block drawn and not yet yielded
    try:
        for i, start in enumerate(range(0, rows, BLOCK)):
            stop = min(start + BLOCK, rows)
            role = ("words", "words_ahead")[ahead and i % 2]
            words = _scratch_array(role, (count + count % 2, stop - start), np.uint64)
            draw = (words, seed, start, count, STREAM_SHARED, jobs, stop == rows)
            drawn.append((start, stop, *_draw_normals(*draw)))
            while len(drawn) > (ahead and stop < rows):
                first, last, z, wait = drawn.pop(0)
                wait()
                yield first, last, z
    finally:
        for *_, wait in drawn:
            with suppress(Exception):  # an abandoned draw's error has no reader
                wait()


def _wait(done, pending: int) -> None:
    """Take a draw's ``pending`` helper replies from ``done``, then raise the first job's error."""
    errors = [error for error in (done.get() for _ in range(pending)) if error]
    if errors:
        raise errors[0]
