"""Acceptance gate: one test per release criterion.

Each test prints a single pass/fail line (outside pytest's capture) so a
plain ``pytest tests/test_acceptance.py`` run reads as a checklist. The
criteria are numbered; shared expensive work (grid validation, swept once a
session by ``checkout.full_grid``, and the volatility-grid Monte Carlo) is
reached through module-scoped fixtures, and its wall time is asserted where
a criterion bounds it.

Criterion 5 measures how far the log-return proxy the closed form prices
(the exponential of capped log returns) sits from the contract (capped
simple returns summed). Both conventions cap each month at the same simple
return, so the gap is that of the product of growth factors against their
sum; at sigma=0.20 it peaks near 3.3 percent of the contract value around a
2.5 percent cap. The criterion checks the Monte Carlo gap against the exact
gap from a lattice convolution (``convolution_oracle``), not against a fixed
bound.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from monthlysum import (
    ContractSpec,
    MarketParams,
    McConfig,
    bs_call,
    closed_form_moments,
    cumulants_from_moments,
    edgeworth_params,
    empirical_cumulants,
    price_ms,
    simulate_ms,
    simulate_msln,
)
from monthlysum.moments import CORRECTED, PRINTED

from checkout import full_grid, python
from convolution_oracle import exact_prices

RATE = 0.03
DIV = 0.02
SEED = 42
SIGMAS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40)
CAPS = (0.005, 0.01, 0.025, 0.05, 0.10)

#: Formulas whose uncorrected transcriptions were adjudicated defective.
DEFECTIVE = frozenset({"I2_cap", "I1_capfloor", "I2_capfloor", "I3_capfloor", "ms1_closed"})
SOUND = frozenset({"I1_cap", "I3_cap"})


def market_for(sigma: float, rate: float = RATE, div: float = DIV) -> MarketParams:
    return MarketParams(rate=rate, dividend_yield=div, sigma=sigma, term=1.0, periods=12)


def announce(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def corrected_validation():
    """Full-grid corrected sweep with its wall time (criteria 1, 7, 9), shared with test_validation."""
    return full_grid(CORRECTED)


@pytest.fixture(scope="module")
def printed_validation():
    return full_grid(PRINTED)[0]


@pytest.fixture(scope="module")
def sigma_grid():
    """Closed form and MC across the volatility grid with wall time (criteria 3, 4)."""
    start = time.perf_counter()
    cfg = McConfig(paths=100_000, seed=SEED)
    rows = []
    for sigma in SIGMAS:
        market = market_for(sigma)
        contract = ContractSpec(cap=0.025)
        breakdown = price_ms(contract, market)
        mc = simulate_ms(contract, market, cfg)
        rows.append((sigma, breakdown, mc))
    return rows, time.perf_counter() - start


def test_criterion_1_moments_match_quadrature_across_grid(capsys, corrected_validation):
    report, elapsed = corrected_validation
    moment_errs = {k: v for k, v in report.max_rel_err.items() if k.startswith("I")}
    worst = max(moment_errs.values())
    moment_failures = [f for f in report.failures if f.check.startswith("I")]
    ok = report.points >= 600 and not moment_failures and worst <= 1e-9 and elapsed < 5.0
    announce(
        capsys,
        1,
        ok,
        f"moments vs quadrature on {report.points} points: "
        f"max rel err {worst:.2e} (tol 1e-09), {elapsed:.2f}s (limit 5s)",
    )
    assert report.points >= 600
    assert not moment_failures
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_2_wide_cap_reduces_to_black_scholes(capsys):
    market = market_for(0.20)
    contract = ContractSpec(cap=10.0)
    ep = edgeworth_params(contract, market)
    drift_gap = abs(ep.nu - market.mu)
    vol_gap = abs(ep.v - market.sigma)
    skew = abs(ep.epsilon1)
    price_gap = abs(
        price_ms(contract, market, order=1).total
        - bs_call(1.0, 1.0, market.sigma, market.rate, market.dividend_yield, market.term)
    )
    ok = drift_gap <= 1e-8 and vol_gap <= 1e-8 and skew <= 1e-8 and price_gap <= 1e-6
    announce(
        capsys,
        2,
        ok,
        f"wide-cap Gaussian reduction: |nu-mu|={drift_gap:.1e}, |v-sigma|={vol_gap:.1e}, "
        f"|eps1|={skew:.1e} (tol 1e-08), |price-bs_call|={price_gap:.1e} (tol 1e-06)",
    )
    assert drift_gap <= 1e-8
    assert vol_gap <= 1e-8
    assert skew <= 1e-8
    assert price_gap <= 1e-6


def test_criterion_3_expansion_tracks_monte_carlo_over_volatility(capsys, sigma_grid):
    rows, elapsed = sigma_grid
    worst_ratio = 0.0
    for sigma, breakdown, mc in rows:
        bound = max(3.0 * mc.stderr, 0.02 * mc.mean)
        gap = abs(breakdown.total - mc.mean)
        worst_ratio = max(worst_ratio, gap / bound)
    ok = worst_ratio <= 1.0 and elapsed < 10.0
    announce(
        capsys,
        3,
        ok,
        f"closed form within max(3 stderr, 2%) of MC at {len(rows)} vols: "
        f"worst gap/bound {worst_ratio:.2f}, {elapsed:.2f}s (limit 10s)",
    )
    assert worst_ratio <= 1.0
    assert elapsed < 10.0


def test_criterion_4_correction_improves_high_volatility_fit(capsys, sigma_grid):
    rows, _ = sigma_grid
    checked = []
    for sigma, breakdown, mc in rows:
        if sigma < 0.15:
            continue
        leading_gap = abs(breakdown.ms0 - mc.mean)
        corrected_gap = abs(breakdown.total - mc.mean)
        checked.append((sigma, leading_gap > corrected_gap))
    ok = all(improved for _, improved in checked)
    announce(
        capsys,
        4,
        ok,
        f"skew correction tightens the MC fit at every sigma >= 0.15 "
        f"({sum(1 for _, i in checked if i)}/{len(checked)} points)",
    )
    assert checked
    assert ok


def test_criterion_5_log_proxy_tracks_simple_sum_within_two_percent(capsys):
    """The log proxy departs from the contract by exactly the convention gap.

    The name records the original claim, a gap of at most 2 percent at every
    cap; the exact calculation puts the true gap at 3.3 percent near a 2.5
    percent cap, so the criterion now checks the simulated gap against the
    exact one. The standard error of the common-random-number difference is
    estimated from independent seed batches, as in criterion 6.
    """
    market = market_for(0.20)
    batches = 10
    batch_paths = 10_000
    rows = []
    worst_dev = 0.0
    for cap in CAPS:
        contract = ContractSpec(cap=cap)
        exact_ms, exact_msln = exact_prices(market, cap)
        runs = np.empty((batches, 4))
        for b in range(batches):
            cfg = McConfig(paths=batch_paths, seed=SEED + b)
            ms = simulate_ms(contract, market, cfg)
            msln = simulate_msln(contract, market, cfg)
            runs[b] = (ms.mean, msln.mean, ms.stderr, msln.stderr)
        ms_mean, msln_mean = runs[:, 0].mean(), runs[:, 1].mean()
        ms_se, msln_se = np.sqrt((runs[:, 2:] ** 2).mean(axis=0) / batches)
        diffs = runs[:, 1] - runs[:, 0]
        gap_se = diffs.std(ddof=1) / math.sqrt(batches)
        devs = (
            abs(diffs.mean() - (exact_msln - exact_ms)) / gap_se,
            abs(ms_mean - exact_ms) / ms_se,
            abs(msln_mean - exact_msln) / msln_se,
        )
        worst_dev = max(worst_dev, *devs)
        rows.append((cap, diffs.mean() / ms_mean, (exact_msln - exact_ms) / exact_ms, devs))
    ok = worst_dev <= 4.0
    announce(
        capsys,
        5,
        ok,
        "relative convention gap (msln-ms)/ms, Monte Carlo vs exact: "
        + ", ".join(f"cap={c:g}: {mc:+.4f} vs {ex:+.4f}" for c, mc, ex, _ in rows)
        + f"; worst deviation {worst_dev:.2f} se (limit 4)",
    )
    for cap, mc_gap, exact_gap, (gap_dev, ms_dev, msln_dev) in rows:
        assert gap_dev <= 4.0, (
            f"cap={cap:g}: simulated gap {mc_gap:+.4f} is {gap_dev:.1f} se from the exact "
            f"gap {exact_gap:+.4f}"
        )
        assert ms_dev <= 4.0, f"cap={cap:g}: simple-sum price is {ms_dev:.1f} se from exact"
        assert msln_dev <= 4.0, f"cap={cap:g}: log-proxy price is {msln_dev:.1f} se from exact"


def test_criterion_6_empirical_cumulants_match_analytic(capsys):
    start = time.perf_counter()
    points = (
        ("cap only", market_for(0.20), ContractSpec(cap=0.025)),
        ("floored", market_for(0.20), ContractSpec(cap=0.025, floor=-0.05)),
        ("high vol", market_for(0.35, rate=0.06, div=0.0), ContractSpec(cap=0.05)),
    )
    batches = 20
    batch_paths = 50_000
    worst_dev = 0.0
    ok = True
    for label, market, contract in points:
        analytic = cumulants_from_moments(closed_form_moments(market, contract))
        targets = np.array([analytic.iota1, analytic.iota2, analytic.iota3]) * market.periods
        estimates = np.empty((batches, 3))
        for b in range(batches):
            est = empirical_cumulants(contract, market, McConfig(paths=batch_paths, seed=SEED + b))
            estimates[b] = (est.iota1, est.iota2, est.iota3)
        estimates *= market.periods
        means = estimates.mean(axis=0)
        ses = estimates.std(axis=0, ddof=1) / math.sqrt(batches)
        devs = np.abs(means - targets) / ses
        worst_dev = max(worst_dev, float(devs.max()))
        ok = ok and bool((devs <= 5.0).all())
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    announce(
        capsys,
        6,
        ok,
        f"kappa1..kappa3 at 10^6 paths on 3 contracts: worst deviation "
        f"{worst_dev:.2f} se (limit 5), {elapsed:.1f}s (limit 30s)",
    )
    assert worst_dev <= 5.0
    assert elapsed < 30.0


def test_criterion_7_correction_formula_and_defect_detection(capsys, corrected_validation, printed_validation):
    corrected, _ = corrected_validation
    printed = printed_validation
    ms1_err = corrected.max_rel_err["ms1_closed"]
    corrected_ok = ms1_err <= 1e-8 and not corrected.failures

    failing = {f.check for f in printed.failures}
    logged = {d.formula for d in printed.discrepancies}
    printed_ok = failing == DEFECTIVE and logged == DEFECTIVE and not (SOUND & failing)
    ok = corrected_ok and printed_ok
    announce(
        capsys,
        7,
        ok,
        f"correction closed form max rel err {ms1_err:.2e} (tol 1e-08); uncorrected "
        f"transcriptions fail exactly for {sorted(failing)} with discrepancy records "
        f"for the same set",
    )
    assert ms1_err <= 1e-8
    assert not corrected.failures
    assert failing == DEFECTIVE
    assert logged == DEFECTIVE


def test_criterion_8_outputs_invariant_to_thread_count(capsys):
    def run(*argv: str) -> bytes:
        proc = python("-m", "monthlysum", *argv)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    mc_outputs = {
        run("mc", "--mc-paths", "100000", "--seed", str(SEED), "--threads", t)
        for t in ("1", "2", "8")
    }
    sweep_outputs = {
        run(
            "sweep",
            "--axis", "vol", "--from", "0.1", "--to", "0.4", "--step", "0.1",
            "--mc-paths", "20000", "--seed", str(SEED), "--threads", t,
        )
        for t in ("1", "2", "8")
    }
    ok = len(mc_outputs) == 1 and len(sweep_outputs) == 1
    announce(
        capsys,
        8,
        ok,
        "mc and sweep stdout byte-identical across 1, 2 and 8 threads at fixed seed",
    )
    assert len(mc_outputs) == 1
    assert len(sweep_outputs) == 1


def test_criterion_9_performance_envelope(capsys, corrected_validation):
    _, validate_elapsed = corrected_validation
    market = market_for(0.20)
    contract = ContractSpec(cap=0.025)
    cfg = McConfig(paths=100_000, seed=SEED)
    start = time.perf_counter()
    simulate_ms(contract, market, cfg)
    mc_elapsed = time.perf_counter() - start
    ok = mc_elapsed < 1.0 and validate_elapsed < 60.0
    announce(
        capsys,
        9,
        ok,
        f"10^5-path pricing {mc_elapsed:.2f}s (limit 1s); "
        f"full validation sweep {validate_elapsed:.2f}s (limit 60s)",
    )
    assert mc_elapsed < 1.0
    assert validate_elapsed < 60.0
