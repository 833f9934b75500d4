"""Counter-based generator: known answers, range guarantees, path purity.

The three Philox4x32-10 known-answer vectors are the published reference
outputs for the all-zero block, the all-ones block, and the pi-digit block.
``philox_reference.py`` freezes the earlier one-pass-per-block generator;
the tiled generator must reproduce its every bit. The vectors are checked on
the reference's one-block entry point, and the zero block on the engine too.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import queue
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import philox_reference
from checkout import CAP_ONLY, HIDE, MS_PIN, NO_AVX512, REFUSE, probe, traced_peak
from monthlysum import MarketParams, McConfig, empirical_cumulants, rng
from monthlysum.montecarlo import BLOCK
from monthlysum.rng import STREAM_SHARED, _to_unit_interval, path_normals

#: Two stream ids besides the engine's; path_normals takes any id in [0, 2^32).
STREAM_ONE = 1
STREAM_TWO = 2


#: The published output words of the all-zero block under the all-zero key.
ZERO_BLOCK = (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)


def _normals(words):
    """The two normals of one counter block's four output words, from the formula."""
    packed = ((words[0] << 32) | words[1], (words[2] << 32) | words[3])
    return [ndtri(((bits >> 12) + 0.5) * 2.0**-52) for bits in packed]


def _block_normals(seed, path, block, stream):
    """Block ``block``'s two normals of ``path`` from the frozen reference's one-block entry point."""
    counter = (block, path & 0xFFFFFFFF, path >> 32, stream)
    return _normals(philox_reference.philox4x32(counter, (seed & 0xFFFFFFFF, seed >> 32)))


class TestKnownAnswers:
    def test_zero_block(self):
        assert philox_reference.philox4x32((0, 0, 0, 0), (0, 0)) == ZERO_BLOCK
        # and on the engine's own rounds: block 0 of path 0, seed 0, stream 0
        np.testing.assert_array_equal(path_normals(0, 0, 1, 2, 0)[0], _normals(ZERO_BLOCK))

    def test_all_ones_block(self):
        ff = 0xFFFFFFFF
        got = philox_reference.philox4x32((ff, ff, ff, ff), (ff, ff))
        assert got == (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)

    def test_pi_digits_block(self):
        got = philox_reference.philox4x32(
            (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
            (0xA4093822, 0x299F31D0),
        )
        assert got == (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)


class TestUniformMapping:
    def test_extreme_words_stay_inside_unit_interval(self):
        bits = np.array([0, 2**64 - 1], dtype=np.uint64)
        u = _to_unit_interval(bits)
        assert u[0] == 2.0**-53
        assert u[1] == 1.0 - 2.0**-53
        assert np.isfinite(ndtri(u)).all()

    @settings(max_examples=200, deadline=None)
    @given(words=st.lists(st.integers(0, 2**64 - 1), max_size=64))
    def test_matches_the_converted_formula_bit_for_bit(self, words):
        # the exponent-bit mapping against the integer-to-float formula,
        # with the extremes of the word and of its 52 kept bits always in
        extremes = [0, 2**12 - 1, 2**12, 2**63, 2**64 - 2**12, 2**64 - 1]
        bits = np.array(words + extremes, dtype=np.uint64)
        want = ((bits >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52
        got = _to_unit_interval(bits.copy())
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_sample_mean_and_spread(self):
        z = path_normals(seed=7, first_path=0, n_paths=4000, count=12, stream=STREAM_ONE)
        flat = z.ravel()
        n = flat.size
        assert abs(flat.mean()) < 4.0 / np.sqrt(n)
        assert abs(flat.std() - 1.0) < 4.0 / np.sqrt(2.0 * n)


class TestPathPurity:
    def test_rows_independent_of_batching(self):
        whole = path_normals(seed=42, first_path=0, n_paths=64, count=12, stream=STREAM_ONE)
        pieces = np.vstack(
            [
                path_normals(seed=42, first_path=lo, n_paths=16, count=12, stream=STREAM_ONE)
                for lo in (0, 16, 32, 48)
            ]
        )
        np.testing.assert_array_equal(whole, pieces)

    def test_single_path_extraction(self):
        whole = path_normals(seed=42, first_path=0, n_paths=64, count=12, stream=STREAM_ONE)
        one = path_normals(seed=42, first_path=37, n_paths=1, count=12, stream=STREAM_ONE)
        np.testing.assert_array_equal(whole[37], one[0])

    def test_count_prefix_consistency(self):
        # shorter draws are prefixes: the counter layout ties column j to
        # block j//2, not to the requested count
        long = path_normals(seed=9, first_path=5, n_paths=3, count=12, stream=STREAM_ONE)
        short = path_normals(seed=9, first_path=5, n_paths=3, count=7, stream=STREAM_ONE)
        np.testing.assert_array_equal(long[:, :7], short)


class TestSeparation:
    def test_streams_differ(self):
        a = path_normals(seed=42, first_path=0, n_paths=8, count=12, stream=STREAM_SHARED)
        b = path_normals(seed=42, first_path=0, n_paths=8, count=12, stream=STREAM_ONE)
        c = path_normals(seed=42, first_path=0, n_paths=8, count=12, stream=STREAM_TWO)
        assert not np.array_equal(a, b)
        assert not np.array_equal(b, c)
        assert not np.array_equal(a, c)

    def test_seeds_differ(self):
        a = path_normals(seed=1, first_path=0, n_paths=8, count=12, stream=STREAM_ONE)
        b = path_normals(seed=2, first_path=0, n_paths=8, count=12, stream=STREAM_ONE)
        assert not np.array_equal(a, b)

    def test_high_seed_bits_matter(self):
        a = path_normals(seed=1, first_path=0, n_paths=8, count=2, stream=STREAM_ONE)
        b = path_normals(seed=1 + 2**32, first_path=0, n_paths=8, count=2, stream=STREAM_ONE)
        assert not np.array_equal(a, b)

    def test_high_path_bits_matter(self):
        a = path_normals(seed=1, first_path=0, n_paths=1, count=2, stream=STREAM_ONE)
        b = path_normals(seed=1, first_path=2**32, n_paths=1, count=2, stream=STREAM_ONE)
        assert not np.array_equal(a, b)


class TestValidation:
    def test_seed_range_checked(self):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                path_normals(seed=seed, first_path=0, n_paths=1, count=1, stream=0)

    def test_negative_extents_checked(self):
        with pytest.raises(ValueError):
            path_normals(seed=0, first_path=-1, n_paths=1, count=1, stream=0)
        with pytest.raises(ValueError):
            path_normals(seed=0, first_path=0, n_paths=-1, count=1, stream=0)

    def test_empty_requests_allowed(self):
        assert path_normals(seed=0, first_path=0, n_paths=0, count=4, stream=0).shape == (0, 4)
        assert path_normals(seed=0, first_path=0, n_paths=3, count=0, stream=0).shape == (3, 0)

    def test_stream_range_checked(self):
        # a stream id is one 32-bit counter word: 2^32 would alias stream 0
        for stream in (-1, 2**32):
            with pytest.raises(ValueError, match="stream"):
                path_normals(seed=0, first_path=0, n_paths=1, count=2, stream=stream)
        path_normals(seed=0, first_path=0, n_paths=1, count=2, stream=2**32 - 1)

    def test_path_range_reaches_the_last_index(self):
        last = 2**64 - 1
        z = path_normals(seed=5, first_path=last, n_paths=1, count=3, stream=STREAM_ONE)
        # path 2^64 - 1 from the reference's one-block entry point
        expected = _block_normals(5, last, 0, STREAM_ONE) + _block_normals(5, last, 1, STREAM_ONE)
        np.testing.assert_array_equal(z[0], expected[:3])
        tail = path_normals(seed=5, first_path=last - 2, n_paths=3, count=3, stream=STREAM_ONE)
        np.testing.assert_array_equal(tail[2], z[0])
        assert path_normals(seed=5, first_path=2**64, n_paths=0, count=3, stream=0).shape == (0, 3)

    def test_path_range_beyond_2_pow_64_checked(self):
        for first_path, n_paths in ((2**64 - 1, 2), (2**64, 1), (0, 2**64 + 1)):
            with pytest.raises(ValueError, match="2\\^64"):
                path_normals(seed=0, first_path=first_path, n_paths=n_paths, count=2, stream=0)


#: Lanes (counter blocks) per pass of the rounds, read from the module.
TILE = rng._TILE


@st.composite
def draw_requests(draw):
    """(seed, first_path, n_paths, count, stream) across the reference's range."""
    count = draw(st.integers(0, 61))
    blocks = max(1, (count + 1) // 2)
    # up to several tiles of lanes, mostly not a whole number of tiles
    n_paths = draw(st.integers(0, 3 * TILE // blocks + 7))
    # the reference builds indices with np.arange, which cannot stop at 2^64
    top = 2**64 - 1 - n_paths
    first_path = draw(
        st.one_of(
            st.just(0),
            st.integers(0, 64),
            st.integers(2**32 - n_paths - 3, 2**32 + 3),
            st.integers(0, top),
            st.integers(top - 64, top),
        )
    )
    seed = draw(st.integers(0, 2**64 - 1))
    stream = draw(st.sampled_from((0, 1, 2, 2**32 - 1)))
    return seed, first_path, n_paths, count, stream


class TestFrozenReference:
    @settings(max_examples=150, deadline=None)
    @given(request=draw_requests())
    def test_bits_match_the_per_block_generator(self, request):
        got = path_normals(*request)
        want = philox_reference.path_normals(*request)
        assert got.shape == want.shape == request[2:4]
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("count", (12, 13, 1))
    def test_path_normals_is_a_c_contiguous_path_major_copy(self, count):
        # the engine draws period-major; path_normals hands out a path per row,
        # so a caller's own row sums take numpy's contiguous (pairwise) order
        got = path_normals(11, 5, 4099, count, STREAM_SHARED)
        want = philox_reference.path_normals(11, 5, 4099, count, STREAM_SHARED)
        assert got.flags.c_contiguous and got.flags.owndata and got.shape == (4099, count)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(got.sum(axis=1).view(np.uint64), want.sum(axis=1).view(np.uint64))


#: Reads path_normals requests from stdin and sets ``draws``: the sha256 of
#: the engine's bits for each request (``digests``), and MS_PIN's simulate_ms at
#: 1 and at 2 threads (``mc``), whose inputs it leaves in ``contract`` and ``market``.
DRAWS = (
    "import hashlib, json, sys\n"
    "from monthlysum import ContractSpec, MarketParams, McConfig, rng, simulate_ms\n"
    "contract = ContractSpec(cap=0.025)\n"
    "market = MarketParams(rate=0.03, dividend_yield=0.02, sigma=0.20, term=1.0, periods=12)\n"
    "digests = [\n"
    "    hashlib.sha256(rng.path_normals(*r).tobytes()).hexdigest() for r in json.load(sys.stdin)\n"
    "]\n"
    "mc = [simulate_ms(contract, market, McConfig(paths=10_000, seed=42), t) for t in (1, 2)]\n"
    "draws = {'digests': digests, 'mc': [[r.mean.hex(), r.stderr.hex()] for r in mc]}\n"
)


@functools.cache
def reference_digest(request):
    """The sha256 of the frozen reference's bits for one request, drawn once a session.

    The reference takes exact uint64 products, converts integers below 2^52 to
    doubles exactly and runs scipy's ndtri, none of which numpy's CPU dispatch
    reaches, so one digest serves every kernel set.
    """
    return hashlib.sha256(philox_reference.path_normals(*request).tobytes()).hexdigest()


def check_draws(draws, requests):
    """A DRAWS child's results reproduce the frozen reference and MS_PIN."""
    assert draws["digests"] == [reference_digest(request) for request in requests]
    # tests/test_montecarlo.py::TestExactPins' 12-period simulate_ms pin, three blocks
    for mean, stderr in draws["mc"]:
        assert (float.fromhex(mean), float.fromhex(stderr)) == (MS_PIN.mean, MS_PIN.stderr)


#: DRAWS, then prints ``draws``, whether 3 blocks and a partial one, plain and
#: antithetic, price the same at 2 threads (blocks drawn ahead) as at 1, seed
#: 7's k-statistics (KSTAT_MARKET), and whether the engine's row sums equal
#: numpy's at five period counts.
FROZEN_STDIN = DRAWS + (
    "import numpy as np\n"
    "from monthlysum import empirical_cumulants\n"
    "from monthlysum.montecarlo import _pairwise_rows\n"
    "KSTAT_MARKET = MarketParams(0.03, 0.02, 0.05, 1.0, 12)\n"
    "bits = lambda z: z.view(np.uint64)\n"
    "rows = 3 * 4096 + 37\n"
    "ahead = [\n"
    "    simulate_ms(contract, market, cfg, 2) == simulate_ms(contract, market, cfg, 1)\n"
    "    for cfg in (McConfig(rows, seed=3), McConfig(2 * rows, seed=3, antithetic=True))\n"
    "]\n"
    "cfg = McConfig(paths=16_384, seed=7)\n"
    "k = empirical_cumulants(contract, KSTAT_MARKET, cfg)\n"
    "kstats = [k.iota1.hex(), k.iota2.hex(), k.iota3.hex()]\n"
    "g = np.random.default_rng(5)\n"
    "x = g.standard_normal((3000, 257)) * 10.0 ** g.uniform(-30, 30, (3000, 257))\n"
    "x[g.random(x.shape) < 0.05] = -0.0\n"
    "sums = [\n"
    "    np.array_equal(bits(_pairwise_rows(x[:, :n].T.copy())), bits(x[:, :n].sum(axis=1)))\n"
    "    for n in (7, 12, 60, 129, 257)\n"
    "]\n"
    "print(json.dumps([draws, ahead, kstats, sums]))\n"
)

#: Seed 7's k-statistics at this sigma moved in their last bits with numpy's
#: AVX-512 power kernel, when the power sums were taken with ``**``.
KSTAT_MARKET = MarketParams(0.03, 0.02, 0.05, 1.0, 12)


class TestCpuFeatures:
    def test_draws_do_not_depend_on_numpys_avx512_kernels(self):
        # the rounds run on numpy's uint64 multiply and shift kernels, which
        # dispatch to AVX-512 where the CPU has it
        requests = [
            (42, 0, 5000, 13, 0),
            (2**64 - 1, 2**32 - 100, 900, 61, 1),
            (3, 2**64 - 2000, 1999, 7, 2**32 - 1),
            (7, 5, 2, 2 * TILE + 3, 2),
        ]
        out = probe(FROZEN_STDIN, stdin=json.dumps(requests), NPY_DISABLE_CPU_FEATURES=NO_AVX512)
        draws, ahead, kstats, sums = json.loads(out)
        check_draws(draws, requests)
        # blocks drawn ahead of the one priced, plain and antithetic
        assert ahead == [True, True]
        # numpy's pairwise row sum, replayed on whole rows, on the same kernel set
        assert sums == [True] * 5
        # the power sums are products, the same on either kernel set
        cfg = McConfig(paths=16_384, seed=7)
        here = empirical_cumulants(CAP_ONLY, KSTAT_MARKET, cfg)
        assert [float.fromhex(k) for k in kstats] == [here.iota1, here.iota2, here.iota3]


#: Draws after altering how scipy.special loads, as argv[1] names: 'no-package'
#: makes the scipy.special package and its submodules unimportable (the direct
#: load finds the compiled leaves by path); 'missing:<leaf>' hides one
#: compiled module from the direct load (as an older scipy lacks it);
#: 'ufuncs-alone' first loads _ufuncs without its siblings, which imports its
#: package mid-load; 'import-first' imports scipy.special before any draw.
#: Then runs DRAWS and prints ``draws`` with whether the package was loaded by
#: the draws, and whether a later scipy.special.ndtri is the engine's.
NDTRI_LOAD = REFUSE + HIDE + (
    "import importlib, sys\n"
    "how = sys.argv[1]\n"
    "if how == 'no-package':\n"
    "    refuse('scipy.special')\n"
    "elif how.startswith('missing:'):\n"
    "    hide('scipy.special.' + how[8:])\n"
    "elif how == 'ufuncs-alone':\n"
    "    _compiled._load('special', ('_ufuncs',))\n"
    "elif how == 'import-first':\n"
    "    import scipy.special\n"
) + DRAWS + (
    "package = 'scipy.special' in sys.modules\n"
    "try:\n"
    "    shared = importlib.import_module('scipy.special').ndtri is rng._ndtri()\n"
    "except ModuleNotFoundError:\n"
    "    shared = None\n"
    "print(json.dumps({**draws, 'package': package, 'shared': shared}))\n"
)


class TestNdtriLoad:
    REQUESTS = [(42, 0, 5000, 13, 0), (7, 5, 2, 2 * TILE + 3, 2)]

    def _draw(self, how):
        got = json.loads(probe(NDTRI_LOAD, how, stdin=json.dumps(self.REQUESTS)))
        check_draws(got, self.REQUESTS)
        return got["package"], got["shared"]

    def test_draws_need_no_scipy_special_package(self):
        # the compiled modules load by path; the package's __init__ never runs
        assert self._draw("no-package") == (False, None)

    def test_a_later_import_shares_the_engines_ndtri(self):
        assert self._draw("direct") == (False, True)

    def test_an_earlier_import_is_reused(self):
        assert self._draw("import-first") == (True, True)

    @pytest.mark.parametrize("leaf", ("_special_ufuncs", "_ufuncs"))
    def test_a_missing_leaf_falls_back_to_the_package(self, leaf):
        # the siblings loaded before the missing one are reused by the package import
        assert self._draw(f"missing:{leaf}") == (True, True)

    def test_racing_first_draws_load_each_module_once(self):
        # six callers ask for ndtri together, before their first draws; a compiled
        # module executed twice at once raises, which shows as an error or a fallback
        source = (
            "import importlib.util, sys, threading, time\n"
            "import numpy as np\n"
            "from monthlysum import rng\n"
            "sys.setswitchinterval(1e-6)\n"
            "make = importlib.util.module_from_spec\n"
            "def slow(spec):  # widens the window between the sys.modules check and the load\n"
            "    time.sleep(0.01)\n"
            "    return make(spec)\n"
            "importlib.util.module_from_spec = slow\n"
            "start, drawn, errors = threading.Barrier(6), [], []\n"
            "def draw(seed):\n"
            "    start.wait(timeout=30)\n"
            "    try:\n"
            "        ndtri = rng._ndtri()\n"
            "        drawn.append((seed, ndtri, rng.path_normals(seed, 0, 3, 5, 0)))\n"
            "    except Exception as error:\n"
            "        errors.append(repr(error))\n"
            "callers = [threading.Thread(target=draw, args=(seed,)) for seed in range(6)]\n"
            "for caller in callers: caller.start()\n"
            "for caller in callers: caller.join(timeout=60)\n"
            "same = [\n"
            "    ndtri is rng._ndtri() and np.array_equal(z, rng.path_normals(seed, 0, 3, 5, 0))\n"
            "    for seed, ndtri, z in drawn\n"
            "]\n"
            "print(errors, sum(same), 'scipy.special' in sys.modules)\n"
        )
        out = probe(source)
        assert out.strip().splitlines()[-1] == "[] 6 False"

    def test_a_leaf_that_imports_its_package_falls_back(self):
        # _ufuncs without its siblings imports scipy.special mid-load, whose
        # __init__ meets the half-made module; the loader drops it and imports
        assert self._draw("ufuncs-alone") == (True, True)


class TestLongPaths:
    @pytest.mark.parametrize("first_path, n_paths", ((2**32 - 2, 3), (2**32 - 1, 2)))
    def test_blocks_on_both_sides_of_each_tile_boundary(self, first_path, n_paths):
        # a path of 2 * TILE + 3 normals has TILE + 2 blocks, so its blocks
        # span three passes and its neighbours' start mid-pass
        seed, stream, count = 2**63 + 12345, STREAM_ONE, 2 * TILE + 3
        blocks = (count + 1) // 2
        z = path_normals(seed, first_path, n_paths, count, stream)
        lanes = set()
        for path in range(n_paths):
            lanes |= {path * blocks, (path + 1) * blocks - 1}
        for boundary in range(TILE, n_paths * blocks, TILE):
            lanes |= {boundary - 1, boundary}
        for lane in sorted(lanes):
            path, block = divmod(lane, blocks)
            want = _block_normals(seed, first_path + path, block, stream)[: count - 2 * block]
            np.testing.assert_array_equal(z[path, 2 * block : 2 * block + 2], want)


class TestOnePass:
    @pytest.mark.parametrize("count", (60, 12))
    def test_passes_cover_a_tile_of_blocks_each(self, monkeypatch, count):
        passes = 0
        rounds = rng._rounds

        def counted(*args):
            nonlocal passes
            passes += 1
            return rounds(*args)

        monkeypatch.setattr(rng, "_rounds", counted)
        path_normals(seed=3, first_path=0, n_paths=4096, count=count, stream=0)
        # one pass per counter block would make count / 2 passes (30, 6)
        assert passes == math.ceil(4096 * (count // 2) / TILE)


class TestMemory:
    def test_path_normals_holds_little_beside_its_output(self):
        path_normals(1, 0, 1, 12, 0)  # loads ndtri and sizes the lane scratch first
        out, peak = traced_peak(lambda: path_normals(1, 0, 200_000, 12, 0))
        # drawn BLOCK paths at a time into a small array each: the peak is the
        # output and one chunk (a whole-range draw and its transposed copy made it 2x)
        assert peak <= 1.2 * out.nbytes, peak / out.nbytes


#: Whether this process may run on two CPUs, so that threads=2 starts the helper.
TWO_CPUS = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


class RecordingQueue:
    """The helper's job queue, passing each job put on it to ``record``.

    A draw makes its reply queue as ``type(jobs)()``, which records nothing.
    """

    def __init__(self, inner=None, record=None):
        self.inner = queue.SimpleQueue() if inner is None else inner
        self.record = record

    def put(self, item):
        if self.record is not None:
            self.record(item)
        self.inner.put(item)

    def get(self):
        return self.inner.get()


class TestHelper:
    @pytest.mark.skipif(not TWO_CPUS, reason="needs 2 allowed CPUs")
    def test_a_failed_job_raises_in_the_draw(self, monkeypatch):
        def failing(u, out):
            if threading.current_thread().name == "monthlysum-ndtri":
                raise FloatingPointError("helper job")
            return ndtri(u, out=out)

        monkeypatch.setattr(rng, "_ndtri", lambda: failing)
        with pytest.raises(FloatingPointError, match="helper job"):
            next(rng._blocks(1, BLOCK, 12, threads=2))
        monkeypatch.undo()
        # the helper survives the failure and serves the next walk
        [(_, _, z)] = rng._blocks(1, BLOCK, 12, threads=2)
        fresh = path_normals(1, 0, 4096, 12, STREAM_SHARED)
        assert np.array_equal(z.T.view(np.uint64), fresh.view(np.uint64))

    @pytest.mark.skipif(not TWO_CPUS, reason="needs 2 allowed CPUs")
    def test_a_failed_job_in_the_block_drawn_ahead_raises_in_the_caller(self, monkeypatch):
        helper_calls = 0

        def failing(u, out):
            nonlocal helper_calls
            if threading.current_thread().name == "monthlysum-ndtri":
                helper_calls += 1
                if helper_calls == 3:
                    raise FloatingPointError("block 1")
            return ndtri(u, out=out)

        monkeypatch.setattr(rng, "_ndtri", lambda: failing)
        # a 4096 x 12 block is two tiles, each handed whole when drawn ahead,
        # so the third job is block 1's, drawn before block 0 is yielded
        blocks = rng._blocks(5, 3 * BLOCK, 12, threads=2)
        start, _, z = next(blocks)
        assert start == 0
        fresh = path_normals(5, 0, BLOCK, 12, STREAM_SHARED)
        assert np.array_equal(z.T.view(np.uint64), fresh.view(np.uint64))
        with pytest.raises(FloatingPointError, match="block 1"):
            next(blocks)
        assert all(jobs.empty() for jobs in rng._helper)

    @pytest.mark.skipif(not TWO_CPUS, reason="needs 2 allowed CPUs")
    def test_a_draw_that_fails_waits_for_the_jobs_it_handed_over(self, monkeypatch):
        rounds, passes = rng._rounds, []

        def failing(*args):
            passes.append(None)
            if len(passes) == 2:
                raise MemoryError("tile 2")
            return rounds(*args)

        unfinished, begun = [], []  # helper jobs begun and not yet done; all begun

        def slow(u, out):  # so that a job left behind would still run at the check
            if threading.current_thread().name == "monthlysum-ndtri":
                unfinished.append(None)
                begun.append(None)
                time.sleep(0.02)
                unfinished.pop()
            return ndtri(u, out=out)

        monkeypatch.setattr(rng, "_rounds", failing)
        monkeypatch.setattr(rng, "_ndtri", lambda: slow)
        with pytest.raises(MemoryError, match="tile 2"):
            next(rng._blocks(1, BLOCK, 60, threads=2))
        assert passes == [None, None] and not unfinished
        assert begun == [None]  # the first tile's job ran the slow ndtri
        assert all(jobs.empty() for jobs in rng._helper)

    @pytest.mark.skipif(not TWO_CPUS, reason="needs 2 allowed CPUs")
    def test_small_draws_hand_no_job_to_the_helper(self, monkeypatch):
        jobs, calls = [], []
        helper_queue = rng._helper_queue

        def recording(threads):
            calls.append(threads)
            inner = helper_queue(threads)
            return None if inner is None else RecordingQueue(inner, jobs.append)

        monkeypatch.setattr(rng, "_helper_queue", recording)
        # 50 x 12 is 300 counter blocks; 4096 x 12 is past the floor and hands over, and so
        # does a walk of 3 blocks and 1 path, every block on the one queue taken for the walk
        for paths, handed in ((50, False), (4096, True), (3 * BLOCK + 1, True)):
            jobs.clear()
            calls.clear()
            for start, stop, z in rng._blocks(9, paths, 12, threads=2):
                fresh = path_normals(9, start, stop - start, 12, STREAM_SHARED)
                assert np.array_equal(z.T.view(np.uint64), fresh.view(np.uint64))
            assert bool(jobs) == handed, paths
            # a 4096 x 12 block is two tiles, and the 1-path block one
            assert len(jobs) == {50: 0, 4096: 2, 3 * BLOCK + 1: 7}[paths]
            assert calls == ([2] if handed else [])

    @pytest.mark.skipif(not TWO_CPUS, reason="needs 2 allowed CPUs")
    def test_the_walk_draws_a_block_ahead_and_splits_its_last_tile(self, monkeypatch):
        events, handed, blocks = [], [], []
        draw, helper_queue = rng._draw_normals, rng._helper_queue

        def recorded(words, seed, first_path, *args):
            events.append(("draw", first_path))
            return draw(words, seed, first_path, *args)

        monkeypatch.setattr(rng, "_draw_normals", recorded)
        record = lambda job: handed.append(job[1].shape)  # the rows handed over
        monkeypatch.setattr(rng, "_helper_queue", lambda threads: RecordingQueue(helper_queue(threads), record))
        for start, stop, z in rng._blocks(4, 2 * BLOCK + 1, 12, threads=2):
            events.append(("yield", start))
            blocks.append((start, stop, z.copy()))
        monkeypatch.undo()
        # block k + 1 is drawn before block k is yielded
        assert events == [
            ("draw", 0), ("draw", BLOCK), ("yield", 0),
            ("draw", 2 * BLOCK), ("yield", BLOCK), ("yield", 2 * BLOCK),
        ]
        # a 4096 x 12 block is two tiles of 6 rows, each handed whole; the 1-path last
        # block is one tile of 12 rows, whose first half goes to the helper
        assert handed == [(6, BLOCK)] * 4 + [(6, 1)]
        for start, stop, z in blocks:
            fresh = path_normals(4, start, stop - start, 12, STREAM_SHARED)
            assert np.array_equal(z.T.view(np.uint64), fresh.view(np.uint64))

    @pytest.mark.skipif(not TWO_CPUS, reason="needs 2 allowed CPUs")
    def test_callers_racing_to_start_the_helper_share_one(self):
        # six callers reach the first threads=2 draw together, with the
        # interpreter switching threads as often as it can
        source = (
            "import sys, threading\n"
            "import numpy as np\n"
            "from monthlysum.rng import _blocks, path_normals\n"
            "sys.setswitchinterval(1e-6)\n"
            "start, same = threading.Barrier(6), []\n"
            "def draw(seed):\n"
            "    start.wait(timeout=30)\n"
            "    [(_, _, z)] = _blocks(seed, 3000, 60, 2)\n"
            "    z = z.T.view(np.uint64)\n"
            "    same.append(np.array_equal(z, path_normals(seed, 0, 3000, 60, 0).view(np.uint64)))\n"
            "callers = [threading.Thread(target=draw, args=(seed,)) for seed in range(6)]\n"
            "for caller in callers: caller.start()\n"
            "for caller in callers: caller.join(timeout=60)\n"
            "helpers = [t for t in threading.enumerate() if t.name == 'monthlysum-ndtri']\n"
            "print(len(helpers), sum(same), any(caller.is_alive() for caller in callers))\n"
        )
        out = probe(source)
        assert out.strip().splitlines()[-1] == "1 6 False"
