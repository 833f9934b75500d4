"""Monte Carlo engine: determinism, pairing, and agreement with closed form.

The two regression means below were frozen at seed 42 and cross-checked
against a 10^7-path run with an unrelated generator (numpy PCG64): both sit
within 2 standard errors of that independent estimate.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monthlysum import (
    ContractSpec,
    CumulantSet,
    MarketParams,
    McConfig,
    McResult,
    empirical_cumulants,
    price_ms,
    simulate_ms,
    simulate_msln,
)
from monthlysum import montecarlo, rng
from monthlysum.cli import main
from monthlysum.montecarlo import _PAIR, BLOCK, _pairwise_rows, _run
from monthlysum.rng import STREAM_SHARED, path_normals

from checkout import CAP_FLOOR, CAP_ONLY, MARKET, MS_PIN


def _count_path_normals(monkeypatch) -> list[int]:
    """Route the engine's draws through a wrapper; returns the stream of each call."""
    streams: list[int] = []
    draw = rng._draw_normals

    def counted(words, seed, first_path, count, stream, *args, **kwargs):
        streams.append(stream)
        return draw(words, seed, first_path, count, stream, *args, **kwargs)

    monkeypatch.setattr(rng, "_draw_normals", counted)
    return streams


def _price_pair(contract, market, cfg):
    """Both payoffs of one row from one pass, as ``mc`` prices them."""
    return _run(((contract, market),), cfg, _PAIR, 1)[0]


class TestRegressionPoints:
    def test_ms_at_seed_42(self):
        res = simulate_ms(CAP_ONLY, MARKET, McConfig(paths=100_000, seed=42))
        assert res.mean == pytest.approx(0.008331608822928242, rel=1e-13)
        assert res.stderr == pytest.approx(8.532348920204459e-05, rel=1e-13)
        assert res.paths_used == 100_000

    def test_msln_at_seed_42(self):
        res = simulate_msln(CAP_ONLY, MARKET, McConfig(paths=100_000, seed=42))
        assert res.mean == pytest.approx(0.008056090339917775, rel=1e-13)
        assert res.stderr == pytest.approx(8.750447941944331e-05, rel=1e-13)


class TestExactPins:
    """Whole results compared with ``==``: any change to a drawn bit fails here.

    Recorded before the Philox rounds were batched over tiles of counter
    blocks; 10^4 paths span two full engine blocks and a partial third.
    """

    LONG = MarketParams(rate=0.03, dividend_yield=0.02, sigma=0.20, term=5.0, periods=60)
    FLOORED = ContractSpec(cap=0.025, floor=-0.03)

    @pytest.mark.parametrize(
        "fn, antithetic, expected",
        (
            (simulate_ms, False, MS_PIN),
            (simulate_ms, True, McResult(0.008351432944579004, 0.0002526638865244965, 10_000)),
            (simulate_msln, False, McResult(0.007818284064624256, 0.0002704334834590667, 10_000)),
            (simulate_msln, True, McResult(0.008040920575523663, 0.000259466380853045, 10_000)),
        ),
    )
    def test_twelve_periods(self, fn, antithetic, expected):
        cfg = McConfig(paths=10_000, seed=42, antithetic=antithetic)
        assert fn(CAP_ONLY, MARKET, cfg) == expected

    def test_sixty_periods_with_floor(self):
        res = simulate_ms(self.FLOORED, self.LONG, McConfig(paths=5_000, seed=42))
        assert res == McResult(0.02524945685038768, 0.000820772500500128, 5_000)

    def test_empirical_cumulants(self):
        est = empirical_cumulants(self.FLOORED, MARKET, McConfig(paths=10_000, seed=42))
        assert est == CumulantSet(
            iota1=-0.0022091809778739878,
            iota2=0.0005734862528121107,
            iota3=-1.4576252584785535e-06,
        )


class TestDeterminism:
    def test_thread_count_does_not_change_results(self):
        cfg = McConfig(paths=20_000, seed=7)
        base = simulate_ms(CAP_ONLY, MARKET, cfg, threads=1)
        for threads in (2, 8):
            again = simulate_ms(CAP_ONLY, MARKET, cfg, threads=threads)
            assert again.mean == base.mean
            assert again.stderr == base.stderr

    def test_runs_are_reproducible(self):
        cfg = McConfig(paths=10_000, seed=123)
        a = simulate_msln(CAP_ONLY, MARKET, cfg)
        b = simulate_msln(CAP_ONLY, MARKET, cfg)
        assert a == b

    def test_seed_changes_results(self):
        a = simulate_ms(CAP_ONLY, MARKET, McConfig(paths=10_000, seed=1))
        b = simulate_ms(CAP_ONLY, MARKET, McConfig(paths=10_000, seed=2))
        assert a.mean != b.mean

    def test_partial_final_block(self):
        # a path count that is not a multiple of BLOCK still fills every slot
        cfg = McConfig(paths=BLOCK + 37, seed=5)
        res = simulate_ms(CAP_ONLY, MARKET, cfg)
        assert res.paths_used == BLOCK + 37
        assert np.isfinite(res.mean) and np.isfinite(res.stderr)


class TestCommonRandomNumbers:
    @pytest.mark.parametrize(
        "contract, market, paths, antithetic",
        (
            (CAP_ONLY, MARKET, 10_000, False),
            (CAP_ONLY, MARKET, 10_000, True),
            (ContractSpec(cap=0.025, floor=-0.03), MARKET, 10_000, True),
            (CAP_ONLY, MarketParams(0.03, 0.02, 0.2, 1.0, periods=13), 5_000, True),
            (CAP_ONLY, MARKET, BLOCK + 37, False),
        ),
        ids=("crn", "crn-antithetic", "floored", "odd-periods", "partial-block"),
    )
    def test_pair_equals_separate_calls(self, contract, market, paths, antithetic):
        cfg = McConfig(paths=paths, seed=11, antithetic=antithetic)
        separate = (simulate_ms(contract, market, cfg), simulate_msln(contract, market, cfg))
        assert _price_pair(contract, market, cfg) == separate

    @pytest.mark.parametrize(
        "argv, calls",
        (
            (("mc", "--mc-paths", "4096"), 1),
            (("mc", "--mc-paths", str(BLOCK + 37)), 2),
            (("mc", "--mc-paths", "4096", "--antithetic"), 1),
            (("sweep", "--axis", "vol", "--from", "0.1", "--to", "0.25", "--step", "0.05",
              "--mc-paths", "4096"), 1),
            (("sweep", "--axis", "months", "--from", "12", "--to", "15", "--step", "1",
              "--mc-paths", "4096"), 1),
        ),
    )
    def test_cli_draws_each_block_once(self, monkeypatch, capsys, argv, calls):
        drawn = _count_path_normals(monkeypatch)
        assert main(list(argv)) == 0
        capsys.readouterr()
        assert len(drawn) == calls

    @pytest.mark.parametrize("paths", (4096, BLOCK + 37))
    def test_private_streams_draw_per_payoff(self, monkeypatch, paths):
        """Each payoff alone, and the pair together, draw the shared stream once per block.

        The payoffs no longer have private streams of their own: a payoff priced
        alone draws the same stream as the pair, and the pair draws it no more often.
        """
        drawn = _count_path_normals(monkeypatch)
        blocks = math.ceil(paths / BLOCK)
        cfg = McConfig(paths=paths, seed=11)
        for simulate in (simulate_ms, simulate_msln, _price_pair):
            drawn.clear()
            simulate(CAP_ONLY, MARKET, cfg)
            assert drawn == [STREAM_SHARED] * blocks


#: Sweep rows along each axis; the months rows mix odd and even period counts.
SWEEP_ROWS = {
    "vol": [(CAP_ONLY, replace(MARKET, sigma=sigma)) for sigma in (0.05, 0.2, 0.45, 1.0)],
    "cap": [(ContractSpec(cap=cap), MARKET) for cap in (0.0, 0.01, 0.025, 0.1)],
    "floor": [
        (ContractSpec(cap=0.025, floor=floor), MARKET) for floor in (None, -0.05, -0.02, 0.0)
    ],
    "months": [
        (CAP_ONLY, replace(MARKET, periods=periods, term=periods / 12))
        for periods in (13, 1, 12, 7, 24, 61, 2)
    ],
}


class TestSharedPasses:
    """Rows priced in one pass equal rows priced alone, bit for bit."""

    @pytest.mark.parametrize("axis", sorted(SWEEP_ROWS))
    @pytest.mark.parametrize(
        "paths, antithetic",
        ((4096, False), (4096, True), (BLOCK + 37, False), (2 * BLOCK + 38, True)),
        ids=("plain", "antithetic", "partial-block", "antithetic-partial-block"),
    )
    def test_rows_equal_separate_pairs(self, monkeypatch, axis, paths, antithetic):
        rows = SWEEP_ROWS[axis]
        cfg = McConfig(paths=paths, seed=19, antithetic=antithetic)
        alone = [_price_pair(contract, market, cfg) for contract, market in rows]
        drawn = _count_path_normals(monkeypatch)
        assert _run(rows, cfg, _PAIR, 1) == alone
        # an antithetic pair reads one draw row, so a block holds BLOCK pairs
        assert len(drawn) == math.ceil((paths // 2 if antithetic else paths) / BLOCK)

    def test_rows_beyond_the_pass_bound_take_more_passes(self, monkeypatch, capsys):
        paths = BLOCK + 37
        argv = ["sweep", "--axis", "vol", "--from", "0.1", "--to", "0.3", "--step", "0.05",
                "--mc-paths", str(paths)]
        assert main(argv) == 0
        one_pass = capsys.readouterr().out
        # two rows of two payoffs fit, so the five rows take three passes
        monkeypatch.setattr(montecarlo, "_PASS_VALUES", 2 * 2 * paths + 1)
        drawn = _count_path_normals(monkeypatch)
        assert main(argv) == 0
        assert capsys.readouterr().out == one_pass
        assert len(drawn) == 3 * math.ceil(paths / BLOCK)


def _antithetic_reference(contract, market, paths, seed, log_payoff):
    """The antithetic estimate by its definition: pair k prices draw row k on z and on -z."""
    z = path_normals(seed, 0, paths // 2, market.periods, STREAM_SHARED)

    def payoff(shock):
        x = shock * (market.sigma * math.sqrt(market.dt)) + market.mu * market.dt
        if log_payoff:
            cap, floor = contract.log_cap, contract.log_floor
        else:
            cap, floor = contract.cap, contract.floor
            x = np.expm1(x)
        x = np.minimum(x, cap)
        if floor is not None:
            x = np.maximum(x, floor)
        sums = x.sum(axis=1)
        return np.maximum(np.expm1(sums) if log_payoff else sums, 0.0)

    sample = 0.5 * (payoff(z) + payoff(-z))
    discount = math.exp(-market.rate * market.term)
    mean, stderr = float(sample.mean()), float(sample.std(ddof=1) / math.sqrt(sample.size))
    return McResult(discount * mean, discount * stderr, paths)


class TestAntithetic:
    def test_pairs_mirror_the_base_draws(self):
        """Each antithetic result is its definition on draw rows z and -z, bit for bit."""
        # 4 paths, the fewest pairing accepts
        for paths in (4, 8, 2 * BLOCK + 38):
            cfg = McConfig(paths=paths, seed=3, antithetic=True)
            for contract in (CAP_ONLY, CAP_FLOOR):
                for simulate, log_payoff in ((simulate_ms, False), (simulate_msln, True)):
                    expected = _antithetic_reference(contract, MARKET, paths, 3, log_payoff)
                    got = simulate(contract, MARKET, cfg)
                    assert got == expected, (paths, contract, simulate.__name__)

    def test_variance_reduction_on_default_contract(self):
        plain = simulate_ms(CAP_ONLY, MARKET, McConfig(paths=40_000, seed=21))
        paired = simulate_ms(
            CAP_ONLY, MARKET, McConfig(paths=40_000, seed=21, antithetic=True)
        )
        assert paired.stderr < plain.stderr

    def test_antithetic_estimate_is_consistent(self):
        paired = simulate_ms(
            CAP_ONLY, MARKET, McConfig(paths=200_000, seed=17, antithetic=True)
        )
        truth = 0.008491354678513101
        assert abs(paired.mean - truth) < 4.0 * paired.stderr

    def test_config_validation(self):
        with pytest.raises(ValueError, match="even"):
            McConfig(paths=101, antithetic=True)
        with pytest.raises(ValueError, match="at least 4"):
            McConfig(paths=2, antithetic=True)


class TestScratch:
    @pytest.mark.parametrize("periods", (12, 13))
    def test_blocks_reuse_the_thread_scratch(self, periods):
        blocks = rng._blocks(5, 2 * BLOCK, periods)
        (_, _, first), (_, _, second) = next(blocks), next(blocks)
        assert np.shares_memory(first, second)
        held = second.copy()
        fresh = path_normals(5, BLOCK, BLOCK, periods, STREAM_SHARED)
        # a block is period-major: row j holds every path's j-th normal
        assert np.array_equal(second.T.view(np.uint64), fresh.view(np.uint64))
        # path_normals draws into its own memory: other draws leave the held block as it was
        assert not np.shares_memory(fresh, second)
        other = path_normals(6, 0, 2 * BLOCK + 1, periods, STREAM_SHARED)
        assert not np.shares_memory(other, second)
        assert np.array_equal(second.view(np.uint64), held.view(np.uint64))

    def test_threads_price_as_if_alone(self):
        # at threads=2 both callers hand tiles to the one helper thread
        cfgs = [McConfig(paths=3 * BLOCK + 10, seed=seed) for seed in range(6)]
        alone = [simulate_ms(CAP_ONLY, MARKET, cfg) for cfg in cfgs]
        for threads in (1, 2):
            with ThreadPoolExecutor(max_workers=2) as pool:
                together = list(pool.map(lambda c: simulate_ms(CAP_ONLY, MARKET, c, threads), cfgs))
            assert together == alone

    def test_a_closed_generator_leaves_no_job_behind(self):
        # 60 periods make 8 tiles a block, so the helper holds several jobs at once
        fresh = path_normals(5, 0, BLOCK, 60, STREAM_SHARED).copy()
        blocks = rng._blocks(5, 3 * BLOCK, 60, threads=2)
        _, _, first = next(blocks)
        blocks.close()
        # nothing is left for the helper, checked at once, and the block was whole when yielded
        assert all(jobs.empty() for jobs in rng._helper)
        assert np.array_equal(first.T.view(np.uint64), fresh.view(np.uint64))
        cfg = McConfig(paths=BLOCK + 10, seed=5)
        assert simulate_ms(CAP_ONLY, MARKET, cfg, threads=2) == simulate_ms(CAP_ONLY, MARKET, cfg)

    def test_an_error_in_the_consumer_leaves_no_job_behind(self, monkeypatch):
        # pricing block 1 fails while block 2, drawn ahead, has its tiles on the helper
        market = replace(MARKET, term=5.0, periods=60)
        capped_sums, calls, ndtri, slowed = montecarlo._capped_sums, [], rng._ndtri(), []

        def slow(u, out):  # so that a job left behind would still be queued at the check
            if threading.current_thread().name == "monthlysum-ndtri":
                slowed.append(None)
                time.sleep(0.005)
            return ndtri(u, out=out)

        def failing(*args):
            calls.append(len(calls))
            if len(calls) == 2:
                raise ArithmeticError("pricing block 1")
            return capped_sums(*args)

        monkeypatch.setattr(montecarlo, "_capped_sums", failing)
        monkeypatch.setattr(rng, "_ndtri", lambda: slow)
        with pytest.raises(ArithmeticError, match="pricing block 1"):
            simulate_ms(CAP_ONLY, market, McConfig(paths=4 * BLOCK, seed=5), threads=2)
        monkeypatch.undo()
        assert slowed  # the helper's jobs ran the slow ndtri
        assert all(jobs.empty() for jobs in rng._helper)
        cfg = McConfig(paths=BLOCK + 10, seed=5)
        assert simulate_ms(CAP_ONLY, market, cfg, threads=2) == simulate_ms(CAP_ONLY, market, cfg)


def _mixed_values(seed: int, paths: int, periods: int) -> np.ndarray:
    """A C-contiguous (paths, periods) array of both signs over 60 decades, with
    +0.0 and -0.0, subnormals, values near 1e300, and (from 3 paths) a path of
    -0.0 only and a path of cancelling pairs."""
    g = np.random.default_rng(seed)
    x = g.standard_normal((paths, periods)) * 10.0 ** g.uniform(-30, 30, (paths, periods))
    pick = g.random(x.shape)
    x[pick < 0.05] = 0.0
    x[(0.05 <= pick) & (pick < 0.1)] = -0.0
    subnormal = (0.1 <= pick) & (pick < 0.15)
    x[subnormal] = g.integers(-(2**52), 2**52, subnormal.sum()) * 5e-324
    x[(0.15 <= pick) & (pick < 0.17)] *= 1e270
    if paths >= 3:
        x[0] = -0.0
        x[1, 1::2] = -x[1, 0 : periods - 1 : 2]
    return x


class TestPairwiseRows:
    """``_pairwise_rows`` on the period-major layout equals numpy's row sum, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(periods=st.integers(1, 300), paths=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1))
    @example(periods=1, paths=5, seed=1)
    @example(periods=7, paths=4096, seed=2)
    @example(periods=8, paths=5, seed=3)
    @example(periods=9, paths=4096, seed=4)
    @example(periods=127, paths=300, seed=5)
    @example(periods=128, paths=300, seed=6)
    @example(periods=129, paths=300, seed=7)
    @example(periods=136, paths=300, seed=8)
    @example(periods=252, paths=1000, seed=9)
    @example(periods=256, paths=1000, seed=10)
    @example(periods=257, paths=1000, seed=11)
    def test_equals_numpys_row_sum(self, periods, paths, seed):
        x = _mixed_values(seed, paths, periods)
        want = x.sum(axis=1)
        got = _pairwise_rows(np.ascontiguousarray(x.T))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_signed_zeros(self):
        # numpy's reduction starts from +0.0, so only a sum of -0.0 alone is +0.0
        x = np.array([[-0.0] * 12, [-0.0] * 11 + [0.0], [1.0, -1.0] * 6, [-0.0] * 3 + [-1e-320] * 9])
        got = _pairwise_rows(np.ascontiguousarray(x.T))
        assert np.array_equal(got.view(np.uint64), x.sum(axis=1).view(np.uint64))
        assert not np.signbit(got[:3]).any() and np.signbit(got[3])


class TestAgainstIndependentTruth:
    def test_ms_mean_within_sampling_error(self):
        res = simulate_ms(CAP_ONLY, MARKET, McConfig(paths=100_000, seed=42))
        truth = 0.008491354678513101
        assert abs(res.mean - truth) < 4.0 * res.stderr

    def test_msln_mean_within_sampling_error(self):
        res = simulate_msln(CAP_ONLY, MARKET, McConfig(paths=100_000, seed=42))
        truth = 0.008214896778542332
        assert abs(res.mean - truth) < 4.0 * res.stderr

    def test_msln_approaches_closed_form(self):
        closed = price_ms(CAP_ONLY, MARKET).total
        res = simulate_msln(CAP_ONLY, MARKET, McConfig(paths=400_000, seed=42))
        # the expansion truncates at first order, so allow analytic bias of
        # a few epsilon1^2 on top of the sampling error
        assert abs(res.mean - closed) < 4.0 * res.stderr + 3e-4


class TestEmpiricalCumulants:
    def test_matches_analytic_cumulants(self):
        from monthlysum import closed_form_moments, cumulants_from_moments

        analytic = cumulants_from_moments(closed_form_moments(MARKET, CAP_ONLY))
        est = empirical_cumulants(CAP_ONLY, MARKET, McConfig(paths=300_000, seed=42))
        assert est.iota1 == pytest.approx(analytic.iota1, rel=1e-2)
        assert est.iota2 == pytest.approx(analytic.iota2, rel=2e-2)
        assert est.iota3 == pytest.approx(analytic.iota3, rel=2e-1)

    def test_k_statistics_match_scipy_bit_for_bit(self):
        from scipy import stats

        contract = CAP_FLOOR
        cfg = McConfig(paths=10_000, seed=5)
        z = path_normals(cfg.seed, 0, cfg.paths, MARKET.periods, STREAM_SHARED)
        x = MARKET.mu * MARKET.dt + MARKET.sigma * np.sqrt(MARKET.dt) * z
        sums = np.clip(x, contract.log_floor, contract.log_cap).sum(axis=1)
        est = empirical_cumulants(contract, MARKET, cfg)
        n = MARKET.periods
        assert est.iota1 == float(stats.kstat(sums, 1)) / n
        assert est.iota2 == float(stats.kstat(sums, 2)) / n
        assert est.iota3 == float(stats.kstat(sums, 3)) / n

    def test_path_floor_enforced(self):
        with pytest.raises(ValueError, match="10\\^4"):
            empirical_cumulants(CAP_ONLY, MARKET, McConfig(paths=5_000, seed=1))

    def test_antithetic_rejected(self):
        cfg = McConfig(paths=20_000, seed=1, antithetic=True)
        with pytest.raises(ValueError, match="antithetic"):
            empirical_cumulants(CAP_ONLY, MARKET, cfg)


class TestConfigGuards:
    @pytest.mark.parametrize("value", ("false", "no", 1, 2.5, None, 0))
    def test_antithetic_must_be_a_bool(self, value):
        # a truthy string such as "false" used to turn pairing on
        with pytest.raises(ValueError, match="antithetic"):
            McConfig(paths=4096, antithetic=value)

    def test_numpy_bool_antithetic_is_stored_as_bool(self):
        cfg = McConfig(paths=4096, antithetic=np.bool_(True))
        assert cfg.antithetic is True
        assert simulate_ms(CAP_ONLY, MARKET, cfg) == simulate_ms(
            CAP_ONLY, MARKET, McConfig(paths=4096, antithetic=True)
        )

    def test_path_minimum(self):
        with pytest.raises(ValueError, match="paths"):
            McConfig(paths=1)

    def test_non_integer_counts_rejected(self):
        # caught here, not later inside simulate_ms as a bare TypeError
        with pytest.raises(ValueError, match="paths"):
            McConfig(paths=4096.5)
        with pytest.raises(ValueError, match="seed"):
            McConfig(paths=5000, seed=1.5)
        with pytest.raises(ValueError, match="paths"):
            McConfig(paths=True)
        with pytest.raises(ValueError, match="seed"):
            McConfig(paths=5000, seed=True)
        # numpy integers stay accepted
        assert McConfig(paths=np.int64(5000), seed=np.uint64(2**63)).paths == 5000

    def test_numpy_integers_price_like_ints(self):
        cfg = McConfig(paths=np.int64(4096), seed=np.int64(7))
        market = MarketParams(0.03, 0.02, 0.20, 1.0, np.int64(12))
        assert type(cfg.paths) is type(cfg.seed) is type(market.periods) is int
        twin = McConfig(paths=4096, seed=7)
        assert simulate_ms(CAP_ONLY, market, cfg) == simulate_ms(CAP_ONLY, MARKET, twin)
        assert simulate_msln(CAP_ONLY, MARKET, cfg) == simulate_msln(CAP_ONLY, MARKET, twin)
        assert type(simulate_ms(CAP_ONLY, MARKET, cfg).paths_used) is int
        assert price_ms(CAP_ONLY, market) == price_ms(CAP_ONLY, MARKET)

    def test_seed_range(self):
        with pytest.raises(ValueError, match="seed"):
            McConfig(paths=100, seed=-1)
        with pytest.raises(ValueError, match="seed"):
            McConfig(paths=100, seed=2**64)
        # the largest key prices
        res = simulate_ms(CAP_ONLY, MARKET, McConfig(paths=100, seed=2**64 - 1))
        assert math.isfinite(res.mean) and res.paths_used == 100

    def test_default_seed(self):
        assert McConfig(paths=100).seed == 42

    def test_thread_minimum(self):
        with pytest.raises(ValueError, match="threads"):
            simulate_ms(CAP_ONLY, MARKET, McConfig(paths=100), threads=0)

    def test_non_integer_threads_rejected(self):
        cfg = McConfig(paths=100)
        for simulate in (simulate_ms, simulate_msln):
            for threads in (True, False, 1.5, 1.0, 0):
                with pytest.raises(ValueError, match="threads must be an integer of at least 1"):
                    simulate(CAP_ONLY, MARKET, cfg, threads=threads)
            # numpy integers stay accepted
            assert simulate(CAP_ONLY, MARKET, cfg, threads=np.int64(2)) == simulate(
                CAP_ONLY, MARKET, cfg
            )
