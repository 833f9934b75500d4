"""Black-Scholes building blocks and the expansion pricer.

Frozen references: the Black-Scholes call value comes from an independent
erfc-based evaluation; the leading term, correction term and totals at the
default contract come from a 400-node Gauss-Legendre oracle run before this
module was written.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monthlysum import (
    ContractSpec,
    EdgeworthParams,
    MarketParams,
    aggregate,
    bs_call,
    bs_put,
    cumulants_from_moments,
    edgeworth_params,
    ms_correction_closed,
    ms_correction_quadrature,
    ms_leading,
    price_ms,
    quadrature_moments,
)
from monthlysum.moments import PRINTED

MARKET = MarketParams(rate=0.03, dividend_yield=0.02, sigma=0.20, term=1.0, periods=12)
CAP_ONLY = ContractSpec(cap=0.025)

GOLDEN_MS0 = 0.010350588623120022
GOLDEN_MS1 = -0.0020028064570901563
GOLDEN_TOTAL = 0.008347782166029865


class TestBlackScholes:
    def test_call_reference_value(self):
        got = bs_call(100.0, 100.0, 0.2, 0.0, 0.0, 1.0)
        assert got == pytest.approx(7.965567455405804, rel=1e-13)

    def test_put_call_parity(self):
        spot, strike, vol, r, q, t = 105.0, 95.0, 0.3, 0.04, 0.01, 2.0
        call = bs_call(spot, strike, vol, r, q, t)
        put = bs_put(spot, strike, vol, r, q, t)
        forward_leg = spot * math.exp(-q * t) - strike * math.exp(-r * t)
        assert call - put == pytest.approx(forward_leg, rel=1e-13)

    def test_deep_in_the_money_limit(self):
        got = bs_call(100.0, 1e-8, 0.2, 0.03, 0.0, 1.0)
        assert got == pytest.approx(100.0 - 1e-8 * math.exp(-0.03), rel=1e-12)

    @pytest.mark.parametrize("field", ("spot", "strike", "vol", "term"))
    def test_nonpositive_inputs_rejected(self, field):
        kwargs = dict(spot=100.0, strike=100.0, vol=0.2, rate=0.0, div_yield=0.0, term=1.0)
        kwargs[field] = 0.0
        with pytest.raises(ValueError, match=field):
            bs_call(**kwargs)


class TestLeadingTerm:
    def test_frozen_reference_point(self):
        ep = edgeworth_params(CAP_ONLY, MARKET)
        assert ms_leading(ep, MARKET) == pytest.approx(GOLDEN_MS0, rel=1e-12)

    def test_equals_atm_unit_call(self):
        ep = edgeworth_params(CAP_ONLY, MARKET)
        direct = bs_call(1.0, 1.0, ep.v, MARKET.rate, ep.y_eff, ep.term)
        assert ms_leading(ep, MARKET) == direct

    def test_closed_phi_form(self):
        # exp(-y_eff T) Phi((nu/v + v) sqrt(T)) - exp(-r T) Phi((nu/v) sqrt(T))
        from monthlysum.moments import standard_normal_cdf

        ep = edgeworth_params(CAP_ONLY, MARKET)
        sq = math.sqrt(ep.term)
        explicit = math.exp(-ep.y_eff * ep.term) * standard_normal_cdf(
            (ep.nu / ep.v + ep.v) * sq
        ) - math.exp(-MARKET.rate * ep.term) * standard_normal_cdf(ep.nu / ep.v * sq)
        assert ms_leading(ep, MARKET) == pytest.approx(explicit, rel=1e-13)


class TestCorrectionTerm:
    def test_frozen_reference_point(self):
        ep = edgeworth_params(CAP_ONLY, MARKET)
        assert ms_correction_closed(ep, MARKET) == pytest.approx(GOLDEN_MS1, rel=1e-12)
        assert ms_correction_quadrature(ep, MARKET) == pytest.approx(GOLDEN_MS1, rel=1e-10)

    def test_synthetic_driftless_point(self):
        # at nu=0, v=0.2, T=1: J = v^2 phi(0) + v^3 exp(v^2/2) Phi(v),
        # frozen independently at 0.02068538347040357; here epsilon1 scales it
        market = MarketParams(rate=0.0, dividend_yield=0.0, sigma=0.2, term=1.0, periods=12)
        ep = EdgeworthParams(nu=0.0, v=0.2, epsilon1=1.0, y_eff=-0.02, term=1.0)
        assert ms_correction_closed(ep, market) == pytest.approx(
            0.02068538347040357, rel=1e-13
        )
        assert ms_correction_quadrature(ep, market) == pytest.approx(
            0.02068538347040357, rel=1e-10
        )

    def test_closed_matches_quadrature_across_contracts(self):
        for sigma, cap, floor in ((0.1, 0.01, None), (0.3, 0.05, -0.05), (0.4, 0.1, 0.0)):
            market = MarketParams(
                rate=0.03, dividend_yield=0.02, sigma=sigma, term=1.0, periods=12
            )
            ep = edgeworth_params(ContractSpec(cap=cap, floor=floor), market)
            closed = ms_correction_closed(ep, market)
            quad = ms_correction_quadrature(ep, market)
            assert closed == pytest.approx(quad, rel=1e-8, abs=1e-14)

    def test_printed_variant_is_defective(self):
        ep = edgeworth_params(CAP_ONLY, MARKET)
        printed = ms_correction_closed(ep, MARKET, variant=PRINTED)
        corrected = ms_correction_closed(ep, MARKET)
        assert abs(printed - corrected) / abs(corrected) > 1e-3

    def test_unknown_variant_rejected(self):
        ep = edgeworth_params(CAP_ONLY, MARKET)
        with pytest.raises(ValueError, match="variant"):
            ms_correction_closed(ep, MARKET, variant="bogus")


class TestPriceMs:
    def test_order_one_breakdown(self):
        out = price_ms(CAP_ONLY, MARKET)
        assert out.order == 1
        assert out.ms0 == pytest.approx(GOLDEN_MS0, rel=1e-12)
        assert out.ms1 == pytest.approx(GOLDEN_MS1, rel=1e-10)
        assert out.total == out.ms0 + out.ms1
        assert out.total == pytest.approx(GOLDEN_TOTAL, rel=1e-10)

    def test_order_zero_drops_the_correction(self):
        out = price_ms(CAP_ONLY, MARKET, order=0)
        assert out.order == 0
        assert out.ms1 == 0.0
        assert out.total == out.ms0

    def test_correction_routes_agree(self):
        quad = price_ms(CAP_ONLY, MARKET, correction="quadrature")
        closed = price_ms(CAP_ONLY, MARKET, correction="closed")
        assert closed.ms1 == pytest.approx(quad.ms1, rel=1e-8)

    def test_moment_routes_agree(self):
        # the quadrature moments reach the aggregate law by composing the stages
        for contract in (CAP_ONLY, ContractSpec(cap=0.025, floor=-0.05)):
            quad = aggregate(cumulants_from_moments(quadrature_moments(MARKET, contract)), MARKET)
            closed = edgeworth_params(contract, MARKET)
            for field in ("nu", "v", "epsilon1"):
                assert getattr(quad, field) == pytest.approx(getattr(closed, field), rel=1e-9)

    def test_nonpositive_cap_prices_to_zero(self):
        # every monthly return is capped at <= 0, so the sum never exceeds 0;
        # at cap -0.5 the capped law is a point mass to double precision
        for cap in (0.0, -0.01, -0.5):
            out = price_ms(ContractSpec(cap=cap), MARKET)
            assert out.total == 0.0
            assert out.ms0 == 0.0
            assert out.ms1 == 0.0
            assert out.params is None

    @settings(max_examples=200, deadline=None)
    @given(
        cap=st.floats(-1.0, 0.0, exclude_min=True),
        floor_share=st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        sigma=st.floats(1e-14, 2.0),
        rate=st.floats(-0.05, 0.2),
        div=st.floats(0.0, 0.2),
        term=st.floats(0.01, 50.0),
        periods=st.sampled_from((1, 4, 12, 52, 252, 360)),
        order=st.sampled_from((0, 1)),
        correction=st.sampled_from(("quadrature", "closed")),
    )
    def test_any_nonpositive_cap_prices_to_exactly_zero(
        self, cap, floor_share, sigma, rate, div, term, periods, order, correction
    ):
        floor = None if floor_share is None else -1.0 + (cap + 1.0) * floor_share
        if floor is not None and not -1.0 < floor < cap:
            floor = None
        market = MarketParams(
            rate=rate, dividend_yield=div, sigma=sigma, term=term, periods=periods
        )
        contract = ContractSpec(cap=cap, floor=floor)
        out = price_ms(contract, market, order=order, correction=correction)
        assert (out.ms0, out.ms1, out.total, out.params) == (0.0, 0.0, 0.0, None)

    def test_floored_contract_prices_above_unfloored(self):
        floored = price_ms(ContractSpec(cap=0.025, floor=-0.05), MARKET)
        unfloored = price_ms(CAP_ONLY, MARKET)
        assert floored.total > unfloored.total

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="order"):
            price_ms(CAP_ONLY, MARKET, order=2)
        with pytest.raises(ValueError, match="correction"):
            price_ms(CAP_ONLY, MARKET, correction="series")
