"""Monte Carlo valuation of the monthly-sum contract and its log variant.

Two payoffs are simulated on the same monthly Gaussian draws:

* ``simulate_ms``: the contract itself, max(sum of capped simple monthly
  returns, 0);
* ``simulate_msln``: the lognormal proxy the closed form actually prices,
  max(exp(sum of capped log monthly returns) - 1, 0).

Draws come from the counter-based generator in :mod:`monthlysum.rng`,
all on its one stream :data:`~monthlysum.rng.STREAM_SHARED`, so a path's
normals are a pure function of (seed, draw row). One walk,
``rng._blocks``, hands out the rows in blocks of :data:`BLOCK`, for
prices and cumulants alike; an antithetic pair reads one row twice, as z
and as -z, and adds its two payoffs as they are priced. All reductions
happen after the walk. A block is period-major, (periods, paths), in the
thread's scratch; a payoff reads its leading rows and sums each path in
numpy's pairwise order on whole rows. ``threads`` (an integer of at
least 1) only says whether the walk may overlap a block's ``ndtri`` with
its Philox rounds and with the pricing of the block before it, on a
helper thread, at 2 or more (:mod:`monthlysum.rng` owns that schedule);
the results are the same at every count.

Both payoffs read the same draws (common random numbers), so their
difference is a low-variance estimate of the capping-convention gap. The
rows of a ``sweep`` share them too: their normals do not depend on
sigma, cap, floor, rate or dividend, and a path's first n normals are
the same whatever count is drawn. One pass over the blocks draws each
block once, at the widest period count, and every payoff of every row
reads its leading rows. Rows share a pass as far as :data:`_PASS_VALUES`
allows; the rest take further passes, with the same results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .contracts import ContractSpec, MarketParams, _require_integer
from .edgeworth import CumulantSet
from .rng import BLOCK, _blocks, _scratch_array

__all__ = [
    "BLOCK",
    "McConfig",
    "McResult",
    "empirical_cumulants",
    "simulate_ms",
    "simulate_msln",
]

#: Payoff values one pass over the blocks may hold (2^22 doubles, 32 MiB):
#: rows x legs x draw rows, where a draw row is one path or one antithetic pair.
#: Rows beyond it take further passes, each drawing the blocks again; at 4096
#: paths and two legs, 512 rows share a pass, or 1024 antithetic.
_PASS_VALUES = 2**22


@dataclass(frozen=True)
class McConfig:
    """Simulation controls.

    ``antithetic``, a bool, prices each pair (z, -z) together and averages
    within the pair before the variance is estimated; it requires at least
    two pairs. Every payoff reads the same draws for a given ``seed``, so
    cross-payoff differences are computed on identical draws.
    """

    paths: int
    seed: int = 42
    antithetic: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "paths", _require_integer("paths", self.paths, 2))
        object.__setattr__(self, "seed", _require_integer("seed", self.seed, 0, 2**64 - 1))
        if not isinstance(self.antithetic, (bool, np.bool_)):
            raise ValueError(f"antithetic must be a bool, got {self.antithetic!r}")
        object.__setattr__(self, "antithetic", bool(self.antithetic))
        if self.antithetic and (self.paths % 2 or self.paths < 4):
            raise ValueError(
                f"antithetic pairing requires an even path count of at least 4, got {self.paths!r}"
            )


@dataclass(frozen=True)
class McResult:
    """Discounted price estimate with its standard error."""

    mean: float
    stderr: float
    paths_used: int


#: The (contract, market) rows that ``_run`` prices on common draws.
_Rows = Sequence[tuple[ContractSpec, MarketParams]]


def _capped_sums(
    contract: ContractSpec,
    market: MarketParams,
    z: np.ndarray,
    log_returns: bool,
    sign: float,
    in_place: bool,
) -> np.ndarray:
    """Per-path sums of the capped (and floored) monthly returns on ``sign * z``, (periods, paths).

    Log returns bounded by ``log_cap``/``log_floor`` when ``log_returns``,
    otherwise simple returns bounded by ``cap``/``floor``. ``z`` is
    overwritten only when ``in_place``, so other payoffs can still read it.
    """
    # the last leg overwrites the block: out of place, a one-leg walk holds a
    # second (periods, paths) array (simulate_ms at 16,384 paths: tracemalloc
    # peak 2.8 against 4.7 MB at 60 periods, 8.8 against 16.7 MB at 252; no slower)
    out = z if in_place else _scratch_array("returns", z.shape, np.float64)
    # x = drift + (sign * scale) * z in that order; z * -scale is -z * scale exactly
    x = np.multiply(z, sign * (market.sigma * math.sqrt(market.dt)), out=out)
    x += market.mu * market.dt
    if log_returns:
        cap, floor = contract.log_cap, contract.log_floor
    else:
        cap, floor = contract.cap, contract.floor
        np.expm1(x, out=x)
    np.minimum(x, cap, out=x)
    if floor is not None:
        np.maximum(x, floor, out=x)
    return _pairwise_rows(x)


def _pairwise_rows(x: np.ndarray) -> np.ndarray:
    """Each column's sum, bit for bit numpy's ``sum(axis=1)`` of ``x.T``, added up in ``x[0]``.

    numpy's ``pairwise_sum`` on whole rows: in order under 8 terms; to 128, eight accumulators
    combined pairwise, then the rest in order; past that, halves cut at a multiple of 8.
    """
    n = len(x)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return np.add(_pairwise_rows(x[:half]), _pairwise_rows(x[half:]), out=x[0])
    rest = 1 if n < 8 else n - n % 8  # x[rest:] is added to x[0] in order
    if n >= 8:
        for i in range(8, rest, 8):
            x[:8] += x[i : i + 8]
        x[0:8:2] += x[1:8:2]
        x[0:8:4] += x[2:8:4]
        x[0] += x[4]
    for row in x[rest:]:
        x[0] += row
    x[0] += 0.0  # the reduction's initial value, which only turns -0.0 into 0.0
    return x[0]


def _run(rows: _Rows, cfg: McConfig, legs: tuple[bool, ...], threads: int) -> list[tuple[McResult, ...]]:
    """One tuple per (contract, market) row: its result for each leg (a log-payoff flag), in order."""
    _require_integer("threads", threads, 1)
    draws = cfg.paths // 2 if cfg.antithetic else cfg.paths
    per_pass = max(1, _PASS_VALUES // (len(legs) * draws))
    passes = range(0, len(rows), per_pass)
    return [res for lo in passes for res in _pass(rows[lo : lo + per_pass], cfg, legs, draws, threads)]


def _pass(
    chunk: _Rows, cfg: McConfig, legs: tuple[bool, ...], draws: int, threads: int
) -> list[tuple[McResult, ...]]:
    """``_run``'s results for one pass's rows; its payoffs, (rows, legs, draw rows), die on return.

    Each block is drawn once, at the widest period count: a path's normals do not depend on
    how many are drawn. If antithetic, a leg's payoff on -z adds into its payoff on z, and the
    sums are halved after the walk. Only the last (leg, sign, row) works on the block in place;
    the reductions work in the payoffs and allocate nothing beside them.
    """
    signs = (1.0, -1.0) if cfg.antithetic else (1.0,)
    payoffs = np.empty((len(chunk), len(legs), draws), dtype=np.float64)
    last = (len(legs) - 1, signs[-1], len(chunk) - 1)
    for start, stop, z in _blocks(cfg.seed, draws, max(m.periods for _, m in chunk), threads):
        for i, log_payoff in enumerate(legs):
            for sign in signs:
                for r, (contract, market) in enumerate(chunk):
                    sums = _capped_sums(
                        contract, market, z[: market.periods], log_payoff, sign, (i, sign, r) == last
                    )
                    if log_payoff:
                        np.expm1(sums, out=sums)
                    if sign > 0:
                        np.maximum(sums, 0.0, out=payoffs[r, i, start:stop])
                    else:
                        payoffs[r, i, start:stop] += np.maximum(sums, 0.0, out=sums)
    if cfg.antithetic:
        payoffs *= 0.5
    results = []
    for (_, market), row in zip(chunk, payoffs):
        discount = math.exp(-market.rate * market.term)
        stats = []
        for leg in row:  # mean() and std(ddof=1) in numpy's own steps, one sum each, in the leg
            mean = np.add.reduce(leg) / draws
            leg -= mean
            np.square(leg, out=leg)
            stats.append((mean, math.sqrt(np.add.reduce(leg) / (draws - 1)) / math.sqrt(draws)))
        results.append(tuple(McResult(discount * float(m), discount * s, cfg.paths) for m, s in stats))
    return results


def simulate_ms(
    contract: ContractSpec, market: MarketParams, cfg: McConfig, threads: int = 1
) -> McResult:
    """Price the contract: discounted max(sum of capped simple returns, 0).

    ``threads`` >= 2 runs ``ndtri`` on a helper, beside the rounds and pricing; no bit changes.
    """
    return _run(((contract, market),), cfg, (False,), threads)[0][0]


def simulate_msln(
    contract: ContractSpec, market: MarketParams, cfg: McConfig, threads: int = 1
) -> McResult:
    """Price the lognormal proxy: discounted max(exp(capped log sum) - 1, 0).

    ``threads`` >= 2 runs ``ndtri`` on a helper, beside the rounds and pricing; no bit changes.
    """
    return _run(((contract, market),), cfg, (True,), threads)[0][0]


#: The legs of ``mc`` and ``sweep``: the contract, then the lognormal proxy.
_PAIR = (False, True)


def empirical_cumulants(
    contract: ContractSpec, market: MarketParams, cfg: McConfig
) -> CumulantSet:
    """Unbiased cumulant estimates (k-statistics) of the capped log sum.

    Simulates the aggregate capped log return over the full term and
    returns k1, k2, k3 packed as a :class:`CumulantSet` scaled back to one
    period, i.e. each k divided by the number of periods, so the values are
    directly comparable to the analytic per-month cumulants.

    Requires at least 10^4 paths; below that the third k-statistic is too
    noisy to be meaningful for capped laws. Antithetic pairing is rejected
    because k-statistics are unbiased only for independent samples.
    """
    if cfg.paths < 10_000:
        raise ValueError(f"cumulant estimation requires at least 10^4 paths, got {cfg.paths!r}")
    if cfg.antithetic:
        raise ValueError("cumulant estimation requires independent paths; disable antithetic")
    sums = np.empty(cfg.paths, dtype=np.float64)
    for start, stop, z in _blocks(cfg.seed, cfg.paths, market.periods):
        sums[start:stop] = _capped_sums(contract, market, z, True, 1.0, in_place=True)
    # k-statistics from the power sums S_r, in SciPy's kstat formulas; the powers
    # are products, as numpy's power kernel rounds differently under AVX-512
    size = sums.size
    s1, s2, s3 = np.sum(sums), np.sum(sums * sums), np.sum(sums * sums * sums)
    k1 = s1 * 1.0 / size
    k2 = (size * s2 - s1**2.0) / (size * (size - 1.0))
    k3 = (2 * s1**3 - 3 * size * s1 * s2 + size * size * s3) / (
        size * (size - 1.0) * (size - 2.0)
    )
    n = market.periods
    return CumulantSet(iota1=float(k1) / n, iota2=float(k2) / n, iota3=float(k3) / n)
