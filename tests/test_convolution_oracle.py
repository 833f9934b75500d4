"""The convolution oracle behind criterion 5, checked against closed forms."""

from __future__ import annotations

import pytest

from monthlysum import ContractSpec, MarketParams, McConfig, bs_call, simulate_ms, simulate_msln

from convolution_oracle import STEP, exact_prices

RATE = 0.03
DIV = 0.02
SIGMA = 0.20


def market(periods: int = 12) -> MarketParams:
    return MarketParams(rate=RATE, dividend_yield=DIV, sigma=SIGMA, term=1.0, periods=periods)


def test_wide_cap_log_proxy_is_black_scholes():
    _, msln = exact_prices(market(), 10.0)
    assert msln == pytest.approx(bs_call(1.0, 1.0, SIGMA, RATE, DIV, 1.0), abs=1e-7)


@pytest.mark.parametrize("cap", [0.005, 0.025, 0.1])
def test_single_period_is_a_call_spread(cap):
    spread = bs_call(1.0, 1.0, SIGMA, RATE, DIV, 1.0) - bs_call(1.0, 1.0 + cap, SIGMA, RATE, DIV, 1.0)
    ms, msln = exact_prices(market(periods=1), cap)
    assert ms == pytest.approx(spread, abs=1e-8)
    assert msln == pytest.approx(spread, abs=1e-8)


@pytest.mark.parametrize("cap", [0.005, 0.01, 0.025, 0.05, 0.1])
def test_halving_the_step_moves_no_price(cap):
    coarse = exact_prices(market(), cap)
    fine = exact_prices(market(), cap, step=STEP / 2)
    assert fine == pytest.approx(coarse, abs=1e-8)


#: Two of ROADMAP item 5's floored points: (sigma, cap, floor, periods, term).
FLOORED = [(0.20, 0.025, -0.02, 12, 1.0), (0.30, 0.05, -0.05, 4, 3.0)]


@pytest.mark.parametrize("sigma, cap, floor, periods, term", FLOORED)
def test_floored_lattice_agrees_with_monte_carlo(sigma, cap, floor, periods, term):
    mkt = MarketParams(rate=RATE, dividend_yield=DIV, sigma=sigma, term=term, periods=periods)
    coarse = exact_prices(mkt, cap, floor)
    fine = exact_prices(mkt, cap, floor, step=STEP / 2)
    contract, cfg = ContractSpec(cap=cap, floor=floor), McConfig(paths=200_000, seed=7)
    simulated = simulate_ms(contract, mkt, cfg, threads=2), simulate_msln(contract, mkt, cfg, threads=2)
    for c, f, mc in zip(coarse, fine, simulated):
        exact = (4.0 * f - c) / 3.0  # the Richardson pair
        assert abs(mc.mean - exact) <= 4.0 * mc.stderr, (mc, exact)


def test_floor_below_the_lower_tail_prices_as_cap_only():
    # the lattice reaches 10 monthly standard deviations down, about -44% here
    assert exact_prices(market(), 0.025, -0.9) == exact_prices(market(), 0.025)
