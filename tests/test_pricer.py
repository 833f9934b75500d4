"""Black-Scholes building blocks and the expansion pricer.

Frozen references: the Black-Scholes call value comes from an independent
erfc-based evaluation; the leading term, correction term and totals at the
default contract come from a 400-node Gauss-Legendre oracle run before this
module was written.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monthlysum import (
    ContractSpec,
    EdgeworthParams,
    MarketParams,
    aggregate,
    bs_call,
    cumulants_from_moments,
    edgeworth_params,
    ms_correction_closed,
    ms_correction_quadrature,
    ms_leading,
    price_ms,
    quadrature_moments,
)
from monthlysum import _reference
from monthlysum.pricer import PriceBreakdown
from monthlysum.moments import PRINTED, closed_form_moments, standard_normal_pdf
from monthlysum.validation import CORRECTION_REL_TOL, REL_DENOM_FLOOR

from checkout import CAP_FLOOR, CAP_ONLY, CONTRACTS, HIDE, MARKET, NO_AVX512, PAIRS, REFUSE
from checkout import markets, probe
from convolution_oracle import STEP, exact_prices

GOLDEN_MS0 = 0.010350588623120022
GOLDEN_MS1 = -0.0020028064570901563
GOLDEN_TOTAL = 0.008347782166029865


class TestBlackScholes:
    def test_call_reference_value(self):
        got = bs_call(100.0, 100.0, 0.2, 0.0, 0.0, 1.0)
        assert got == pytest.approx(7.965567455405804, rel=1e-13)

    def test_deep_in_the_money_limit(self):
        got = bs_call(100.0, 1e-8, 0.2, 0.03, 0.0, 1.0)
        assert got == pytest.approx(100.0 - 1e-8 * math.exp(-0.03), rel=1e-12)

    @pytest.mark.parametrize("field", ("spot", "strike", "vol", "term"))
    def test_nonpositive_inputs_rejected(self, field):
        kwargs = dict(spot=100.0, strike=100.0, vol=0.2, rate=0.0, div_yield=0.0, term=1.0)
        kwargs[field] = 0.0
        with pytest.raises(ValueError, match=field):
            bs_call(**kwargs)
        # an infinite spot used to price as inf
        kwargs[field] = math.inf
        with pytest.raises(ValueError, match=field):
            bs_call(**kwargs)

    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf, True))
    @pytest.mark.parametrize("field", ("rate", "div_yield"))
    def test_nonfinite_rates_rejected(self, field, value):
        # nan used to price as nan, rate=inf as 1.0 and div_yield=inf as 0.0
        kwargs = dict(spot=1.0, strike=1.0, vol=0.2, rate=0.0, div_yield=0.0, term=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            bs_call(**kwargs)

    @pytest.mark.parametrize("field", ("rate", "div_yield"))
    def test_negative_rates_still_price(self, field):
        kwargs = dict(spot=1.0, strike=1.0, vol=0.2, rate=0.0, div_yield=0.0, term=1.0)
        kwargs[field] = -0.02
        assert 0.0 < bs_call(**kwargs) < 1.0


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

    def test_overflowing_tilt_is_named(self):
        # nu + v^2/2 = 11.097 over 64 years: the closed correction's
        # exp((nu + v^2/2) T) overflows where the leading term still prices
        contract = ContractSpec(cap=2.944702294962673, floor=2.6954354023498786)
        market = MarketParams(
            0.26245383704745917, 0.2859967102122889, 9.330994728200345, 64.02977016493574, 543
        )
        assert math.isfinite(price_ms(contract, market, order=0).total)
        with pytest.raises(OverflowError) as info:
            price_ms(contract, market)
        assert "exp((nu + v^2/2) T) overflows at exponent 710.5" in str(info.value)
        assert "the closed form cannot evaluate this price in double precision" in str(info.value)


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

    # the benchmark's quote ranges: longer terms and every period count
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(contract=CONTRACTS, market=markets())
    def test_correction_routes_agree_over_quote_ranges(self, contract, market):
        quad = price_ms(contract, market, correction="quadrature").ms1
        closed = price_ms(contract, market, correction="closed").ms1
        # measured as the validation suite measures it, with its floor under |quad|
        assert abs(closed - quad) <= CORRECTION_REL_TOL * max(abs(quad), REL_DENOM_FLOOR)

    # a cap 40 monthly standard deviations above the drift never binds to
    # double precision, so the expansion collapses to Black-Scholes; over
    # the quote ranges of sigma, term, periods and carry
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(market=markets())
    def test_wide_cap_reduces_to_black_scholes_over_quote_ranges(self, market):
        cap = math.expm1(market.mu * market.dt + 40.0 * market.sigma * math.sqrt(market.dt))
        got = price_ms(ContractSpec(cap=cap), market).total
        want = bs_call(1.0, 1.0, market.sigma, market.rate, market.dividend_yield, market.term)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    # the quote ranges again, kept to where the correction is small on both
    # quotes, |ms1| <= 0.1 |ms0|: outside that a higher cap can price lower
    # (in every such case seen, one of the two totals was nonpositive)
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(contract=CONTRACTS, market=markets(), delta=st.floats(0.001, 0.2))
    def test_price_nondecreasing_in_the_cap_where_the_correction_is_small(
        self, contract, market, delta
    ):
        low = price_ms(contract, market)
        high = price_ms(dataclasses.replace(contract, cap=contract.cap * (1.0 + delta)), market)
        assume(all(abs(quote.ms1) <= 0.1 * abs(quote.ms0) for quote in (low, high)))
        assert high.total >= low.total - 1e-13 * abs(low.total)

    def test_moment_routes_agree(self):
        # the quadrature moments reach the aggregate law by composing the stages
        for contract in (CAP_ONLY, CAP_FLOOR):
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
        floored = price_ms(CAP_FLOOR, MARKET)
        unfloored = price_ms(CAP_ONLY, MARKET)
        assert floored.total > unfloored.total

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="order"):
            price_ms(CAP_ONLY, MARKET, order=2)
        with pytest.raises(ValueError, match="correction"):
            price_ms(CAP_ONLY, MARKET, correction="series")
        # a value equal to 0 or 1 is not an order: bools and floats are refused
        for order in (True, False, 1.0, 0.0):
            with pytest.raises(ValueError, match="order"):
                price_ms(CAP_ONLY, MARKET, order=order)
        # numpy integers stay accepted, and report a plain int
        out = price_ms(CAP_ONLY, MARKET, order=np.int64(0))
        assert out == price_ms(CAP_ONLY, MARKET, order=0)
        assert type(out.order) is int


def _breakdown(ms0, ms1, total, nu, v, epsilon1, y_eff, term):
    ep = EdgeworthParams(nu=nu, v=v, epsilon1=epsilon1, y_eff=y_eff, term=term)
    return PriceBreakdown(ms0=ms0, ms1=ms1, total=total, order=1, params=ep)


# whole results of price_ms on the quadrature correction route, the one
# `price` and `sweep` print, compared with ==, so any changed bit of the
# integrand or the closed form fails these
EXACT_PINS = (
    (
        CAP_ONLY,
        MARKET,
        _breakdown(
            0.010350588623120771, -0.002002806457090145, 0.008347782166030627,
            -0.1598218576116548, 0.14538601334078638, -0.05172030486750738,
            0.17925331117409113, 1.0,
        ),
    ),
    (
        CAP_FLOOR,
        MARKET,
        _breakdown(
            0.01251805056627353, -0.0004121130792107777, 0.012105937487062754,
            -0.08686175652714652, 0.10578902053343564, -0.015068219506653121,
            0.11126609809443469, 1.0,
        ),
    ),
    # six draws from the benchmark's quote ranges (random.Random(2026), draws
    # 7, 16, 46, 48, 52, 69): every period count, with and without a floor,
    # each a sentinel where libm's exp (math.exp, which the density uses) and
    # numpy's AVX-512 (X86_V4) exp differ in the last bit, so these prices
    # would move if the density went back to np.exp on an AVX-512 host
    (
        ContractSpec(cap=0.05858001226925958),
        MarketParams(
            rate=0.030776965104633815, dividend_yield=0.024155194318006067,
            sigma=0.3089823082166626, term=7.892436907894832, periods=4,
        ),
        _breakdown(
            0.028277118562140532, -0.01774373557112107, 0.010533382991019462,
            -0.09828679404488487, 0.2128514751749929, -0.10125793227717347,
            0.10641088390743336, 7.892436907894832,
        ),
    ),
    (
        ContractSpec(cap=0.06296270348435795, floor=-0.08791810898402731),
        MarketParams(
            rate=0.002679544576341659, dividend_yield=0.016393458535455215,
            sigma=0.17084139735113607, term=7.818952729692134, periods=52,
        ),
        _breakdown(
            0.03681282148661044, -0.0005799858709269001, 0.036232835615683544,
            -0.04698581058573512, 0.13254859190478854, -0.004442786841847765,
            0.0408807905541057, 7.818952729692134,
        ),
    ),
    (
        ContractSpec(cap=0.06551608274480863),
        MarketParams(
            rate=0.028443759484748064, dividend_yield=0.023658868671969334,
            sigma=0.311260865185314, term=2.691120456342756, periods=252,
        ),
        _breakdown(
            0.15008551870350534, -0.00028290892477645535, 0.1498026097787289,
            -0.07010806131674091, 0.3048180419598113, -0.0013431482766809507,
            0.05209480144938232, 2.691120456342756,
        ),
    ),
    (
        ContractSpec(cap=0.06571605024035583, floor=-0.06272061351930759),
        MarketParams(
            rate=0.043860497146106445, dividend_yield=0.004138817648898915,
            sigma=0.3827840331594511, term=9.989301734652797, periods=4,
        ),
        _breakdown(
            0.024849309259840247, 0.00021874861135437096, 0.025068057871194618,
            -0.0030330679140799024, 0.03923053393249446, 0.018298566683659354,
            0.04612404766387205, 9.989301734652797,
        ),
    ),
    (
        ContractSpec(cap=0.0854943597507876),
        MarketParams(
            rate=0.05635303858935217, dividend_yield=0.010669743600218363,
            sigma=0.3975665715035591, term=7.988277657413528, periods=12,
        ),
        _breakdown(
            0.014453517957935237, -0.008471026226236798, 0.005982491731698439,
            -0.15940168200503416, 0.27428392863813505, -0.05827572101797353,
            0.17813888383980153, 7.988277657413528,
        ),
    ),
    (
        ContractSpec(cap=0.09459346532098258, floor=-0.03268570738227841),
        MarketParams(
            rate=0.042330953170112415, dividend_yield=0.0025284653680679625,
            sigma=0.2376675756299721, term=5.696207323150805, periods=12,
        ),
        _breakdown(
            0.2591050893024033, -0.00021822541267764534, 0.25888686388972565,
            0.04593613118403405, 0.07983353899019442, 0.010518566647813447,
            -0.006791874987771082, 5.696207323150805,
        ),
    ),
)

#: EXACT_PINS' (contract, market) pairs as PAIRS reads them from stdin
PINS_STDIN = json.dumps([[dataclasses.asdict(c), dataclasses.asdict(m)] for c, m, _ in EXACT_PINS])

#: (ms1, total) of price_ms at its defaults (the closed correction) at the
#: same eight inputs, as float.hex; ms0 and params equal EXACT_PINS', and
#: contract2's two routes agree to the bit
CLOSED_PINS = (
    ("-0x1.0683087782ccfp-9", "0x1.118a45b2d88ccp-7"),
    ("-0x1.b021c328d02abp-12", "0x1.8caff6cc13d2bp-7"),
    ("-0x1.22b69eff2855ep-6", "0x1.59286bbb38cfcp-7"),
    ("-0x1.301462c83d453p-11", "0x1.28d1c38057b1bp-5"),
    ("-0x1.28a6c9464b088p-12", "0x1.32cbb5eed739ap-3"),
    ("0x1.cabfc437ceb75p-13", "0x1.9ab70e2ec8f87p-6"),
    ("-0x1.15941e4d78ae1p-7", "0x1.88118e5613826p-8"),
    ("-0x1.c9a6e056e3a21p-13", "0x1.0919a35714dd3p-2"),
)


#: makes scipy.special and scipy.integrate unimportable, then prices each
#: (contract, market) pair read from stdin on the quadrature route and at the
#: defaults (the closed route), as PriceBreakdown dicts, takes its quadrature
#: moments, as dicts, and reports whether each block held
RESTRICTED_STDIN = REFUSE + "refuse('scipy.special')\nrefuse('scipy.integrate')\n" + PAIRS + (
    "import dataclasses, importlib\n"
    "from monthlysum import price_ms, quadrature_moments\n"
    "quadrature = [dataclasses.asdict(price_ms(c, m, correction='quadrature')) for c, m in pairs]\n"
    "closed = [dataclasses.asdict(price_ms(c, m)) for c, m in pairs]\n"
    "moments = [dataclasses.asdict(quadrature_moments(m, c)) for c, m in pairs]\n"
    "def blocked(package):\n"
    "    try:\n"
    "        importlib.import_module(package)\n"
    "    except ModuleNotFoundError:\n"
    "        return True\n"
    "    return False\n"
    "print(json.dumps({'quadrature': quadrature, 'closed': closed, 'moments': moments,\n"
    "                  'blocked': [blocked('scipy.special'), blocked('scipy.integrate')]}))\n"
)


@functools.cache
def restricted_pins():
    """RESTRICTED_STDIN's output on EXACT_PINS' inputs, numpy's AVX-512 kernels off; once a session."""
    return json.loads(probe(RESTRICTED_STDIN, stdin=PINS_STDIN, NPY_DISABLE_CPU_FEATURES=NO_AVX512))


#: hides QUADPACK's compiled module from the direct load (as another scipy
#: may lay it out elsewhere), then prices each (contract, market) pair read
#: from stdin on the quadrature route, as PriceBreakdown dicts, and reports
#: whether the oracle fell back to scipy.integrate's own import
QUADRATURE_THROUGH_SCIPY_INTEGRATE = HIDE + "hide('scipy.integrate._quadpack')\n" + PAIRS + (
    "import dataclasses\n"
    "from monthlysum import _reference, price_ms\n"
    "out = [dataclasses.asdict(price_ms(c, m, correction='quadrature')) for c, m in pairs]\n"
    "fell_back = ['scipy.integrate' in sys.modules,\n"
    "             _reference._quadpack() is sys.modules['scipy.integrate._quadpack']]\n"
    "print(json.dumps({'fell_back': fell_back, 'breakdowns': out}))\n"
)


#: runs the oracle on the default contract, recording each QUADPACK piece,
#: then imports scipy.integrate and integrates the first moment piece and
#: the last correction piece again, by _quad_split and by quad
QUAD_AFTER_THE_ORACLE = (
    "import json, sys\n"
    "from monthlysum import ContractSpec, MarketParams, edgeworth_params\n"
    "from monthlysum import _reference\n"
    "market = MarketParams(0.03, 0.02, 0.2, 1.0, 12)\n"
    "contract = ContractSpec(cap=0.025)\n"
    "qagse, pieces = _reference._qagse, []\n"
    "def recording(fn, a, b):\n"
    "    result = qagse(fn, a, b)\n"
    "    pieces.append((fn, a, b, result[0]))\n"
    "    return result\n"
    "_reference._qagse = recording\n"
    "_reference.moment_quadrature(1, market, contract)\n"
    "moment = pieces[0]\n"
    "_reference.ms_correction_quadrature(edgeworth_params(contract, market), market)\n"
    "correction = pieces[-1]\n"
    "_reference._qagse = qagse\n"
    "loaded = sys.modules['scipy.integrate._quadpack']\n"
    "integrated = 'scipy.integrate' in sys.modules\n"
    "from scipy import integrate\n"
    "from scipy.integrate import _quadpack_py\n"
    "shared = [loaded is _reference._quadpack(),\n"
    "          sys.modules['scipy.integrate._quadpack'] is loaded,\n"
    "          _quadpack_py._quadpack is loaded]\n"
    "def bits(fn, a, b, first):\n"
    "    by_quad = integrate.quad(fn, a, b, epsabs=1e-16, epsrel=_reference.QUAD_REL_TOL,\n"
    "                             limit=_reference.QUAD_SUBDIVISION_LIMIT)[0]\n"
    "    return [first.hex(), _reference._quad_split(fn, a, b, ()).hex(), by_quad.hex()]\n"
    "print(json.dumps({'integrated': integrated, 'shared': shared,\n"
    "                  'moment': bits(*moment), 'correction': bits(*correction)}))\n"
)


def _hexed(value):
    """``value`` with every float, nested in dicts too, as its float.hex."""
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    return value.hex() if isinstance(value, float) else value


def _closed_pin(expected, pin):
    """EXACT_PINS' breakdown with the closed route's (ms1, total) from CLOSED_PINS."""
    ms1, total = (float.fromhex(x) for x in pin)
    return dataclasses.replace(expected, ms1=ms1, total=total)


class TestExactPins:
    # the quadrature route's pins (EXACT_PINS)
    @pytest.mark.parametrize("contract, market, expected", EXACT_PINS)
    def test_default_breakdown_is_bit_exact(self, contract, market, expected):
        assert price_ms(contract, market, correction="quadrature") == expected

    @pytest.mark.parametrize(
        "contract, market, expected, pin",
        [pins + (closed,) for pins, closed in zip(EXACT_PINS, CLOSED_PINS)],
    )
    def test_closed_default_breakdown_is_bit_exact(self, contract, market, expected, pin):
        got = price_ms(contract, market)
        assert got == price_ms(contract, market, correction="closed")
        want = _closed_pin(expected, pin)
        assert _hexed(dataclasses.asdict(got)) == _hexed(dataclasses.asdict(want))

    # the next three read one child, in which numpy's AVX-512 kernels are off
    # and neither scipy.special nor scipy.integrate can be imported
    def test_prices_do_not_depend_on_numpys_exp_kernel(self):
        # the same sixteen breakdowns, both routes, bit for bit
        got = restricted_pins()
        want = [price_ms(c, m, correction="quadrature") for c, m, _ in EXACT_PINS]
        want += [price_ms(c, m) for c, m, _ in EXACT_PINS]
        assert [_hexed(b) for b in got["quadrature"] + got["closed"]] == [
            _hexed(dataclasses.asdict(b)) for b in want
        ]

    def test_closed_route_needs_no_scipy_special(self):
        # the eight closed-route pins: the normal CDF is a port of scipy's erfc
        got = restricted_pins()
        assert got["blocked"][0]
        want = [_closed_pin(expected, pin) for (_, _, expected), pin in zip(EXACT_PINS, CLOSED_PINS)]
        assert [_hexed(b) for b in got["closed"]] == [_hexed(dataclasses.asdict(b)) for b in want]

    def test_quadrature_route_needs_no_scipy_integrate(self):
        # the eight quadrature-route pins and their moments: the oracle calls
        # QUADPACK's compiled qagse itself
        got = restricted_pins()
        assert got["blocked"][1]
        assert [_hexed(b) for b in got["quadrature"]] == [
            _hexed(dataclasses.asdict(expected)) for _, _, expected in EXACT_PINS
        ]
        assert [_hexed(m) for m in got["moments"]] == [
            _hexed(dataclasses.asdict(quadrature_moments(m, c))) for c, m, _ in EXACT_PINS
        ]

    def test_quadrature_route_falls_back_to_scipy_integrate(self):
        # the eight quadrature-route pins, with QUADPACK reached through
        # scipy.integrate's import when its module cannot be loaded directly
        got = json.loads(probe(QUADRATURE_THROUGH_SCIPY_INTEGRATE, stdin=PINS_STDIN))
        assert got["fell_back"] == [True, True]
        assert [_hexed(b) for b in got["breakdowns"]] == [
            _hexed(dataclasses.asdict(expected)) for _, _, expected in EXACT_PINS
        ]

    def test_scipy_integrate_shares_the_oracles_quadpack(self):
        # scipy.integrate imported after the oracle ran reuses the extension
        # module the oracle loaded, and its quad gives the oracle's bits on a
        # moment piece and a correction piece
        got = json.loads(probe(QUAD_AFTER_THE_ORACLE))
        assert not got["integrated"]
        assert got["shared"] == [True, True, True]
        for piece in ("moment", "correction"):
            first, split, by_quad = got[piece]
            assert first == split == by_quad, piece
        # and the other order: the oracle reuses the module scipy.integrate loaded
        reuse = (
            "from scipy.integrate import _quadpack_py\n"
            "from monthlysum import _reference\n"
            "print(_reference._quadpack() is _quadpack_py._quadpack)\n"
        )
        out = probe(reuse)
        assert out.strip().splitlines()[-1] == "True"


def _correction_integrand(contract, market):
    """The integrand, lower and upper limit that ms_correction_quadrature hands to _quad_split."""
    captured = []

    def capture(fn, lo, hi, interior):
        captured.append((fn, lo, hi))
        return 0.0

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_reference, "_quad_split", capture)
        ms_correction_quadrature(edgeworth_params(contract, market), market)
    (found,) = captured
    return found


class TestCorrectionIntegrand:
    # the integrand is its formula bit for bit, at every node of [z0, hi] and
    # in the far tail, where the density is subnormal (z > 37.6) or 0 (z > 38.6);
    # it writes the density inline, and this holds it to standard_normal_pdf
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        contract=CONTRACTS, market=markets(), where=st.floats(0.0, 1.0), tail=st.floats(37.0, 40.0)
    )
    def test_matches_its_formula_bit_for_bit(self, contract, market, where, tail):
        ep = edgeworth_params(contract, market)
        a = ep.nu * ep.term
        b = ep.v * math.sqrt(ep.term)
        integrand, z0, hi = _correction_integrand(contract, market)
        for z in (z0 + where * (hi - z0), tail):
            got = integrand(z)
            want = (math.exp(a + b * z) - 1.0) * (z * (z * z - 3.0)) * standard_normal_pdf(z)
            assert type(got) is float
            assert got.hex() == want.hex()


class TestScalarWork:
    # the quadrature correction takes 168 integrand evaluations at both golden
    # points; a float through the normal helpers must build no array on top
    # of that work (wrapping each float in a 0-d array cost 169 + 4 and
    # 170 + 5 np.asarray/np.ndim calls here)
    @pytest.mark.parametrize("contract", (CAP_ONLY, CAP_FLOOR))
    def test_no_array_conversions_and_same_quadrature_work(self, monkeypatch, contract):
        counts = {"asarray": 0, "ndim": 0, "integrand": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        quad_split = _reference._quad_split

        def counting_quad_split(fn, *args):
            return quad_split(counted("integrand", fn), *args)

        price_ms(contract, MARKET, correction="quadrature")  # warm any lazy imports first
        monkeypatch.setattr(np, "asarray", counted("asarray", np.asarray))
        monkeypatch.setattr(np, "ndim", counted("ndim", np.ndim))
        monkeypatch.setattr(_reference, "_quad_split", counting_quad_split)
        price_ms(contract, MARKET, correction="quadrature")
        assert counts == {"asarray": 0, "ndim": 0, "integrand": 168}


class TestRateInN:
    """The paper's small parameter is 1/sqrt(N): at fixed moneyness order 1 is off by O(1/N).

    Zero capped drift keeps the aggregate moneyness at 0 for every N: sigma
    0.1, dividend 0, rate 0.03, dt = 1/12 and T = N/12, with the cap at which
    the closed-form I1 vanishes. The exact proxy price is the lattice's
    Richardson pair, whose step error (about 1e-9) is far below order 1's.
    """

    CAP = 0.033652

    @staticmethod
    def _market(periods):
        return MarketParams(rate=0.03, dividend_yield=0.0, sigma=0.1, term=periods / 12, periods=periods)

    def test_order_one_error_halves_with_each_doubling_of_n(self):
        contract = ContractSpec(cap=self.CAP)
        errors = []
        for periods in (3, 6, 12, 24, 48):
            market = self._market(periods)
            # the per-period mean of the capped log return is zero to 6e-8
            assert abs(closed_form_moments(market, contract).i1) < 1e-7
            coarse, fine = exact_prices(market, self.CAP)[1], exact_prices(market, self.CAP, step=STEP / 2)[1]
            exact = (4.0 * fine - coarse) / 3.0
            errors.append((price_ms(contract, market, order=1).total - exact) / exact)
        # measured 2.10, 2.07, 2.08 and 2.11
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(1.9 <= ratio <= 2.4 for ratio in ratios), (errors, ratios)


class TestExactFlooredPrices:
    """The closed form against the exact floored proxy price, at five points with |ms1/ms0| <= 0.1.

    The exact price is the lattice's Richardson pair (steps 2e-5 and 1e-5), whose
    step error is far below the expansion's. The bounds pin today's error of the
    default route at order 1, measured at -4.43e-3, +3.83e-2, +1.46e-2, +3.6e-8 and
    +1.32e-3; they are not an accuracy target. Order 0 is closer at the first three.
    """

    # (sigma, cap, floor, periods, term, bound on the relative error)
    POINTS = (
        (0.20, 0.025, -0.02, 12, 1.0, 6e-3),
        (0.40, 0.010, -0.02, 12, 1.0, 5e-2),
        (0.30, 0.050, -0.05, 4, 3.0, 2e-2),
        (0.15, 0.020, 0.0, 52, 1.0, 1e-6),
        (0.25, 0.030, -0.01, 12, 5.0, 2e-3),
    )

    @pytest.mark.parametrize("sigma, cap, floor, periods, term, bound", POINTS)
    def test_order_one_is_within_todays_error(self, sigma, cap, floor, periods, term, bound):
        market = MarketParams(rate=0.03, dividend_yield=0.02, sigma=sigma, term=term, periods=periods)
        coarse = exact_prices(market, cap, floor)[1]
        fine = exact_prices(market, cap, floor, step=STEP / 2)[1]
        exact = (4.0 * fine - coarse) / 3.0
        # the step pairs differ by at most 6e-8 relative
        assert abs(fine - coarse) <= 1e-7 * exact
        price = price_ms(ContractSpec(cap=cap, floor=floor), market, order=1)
        assert abs(price.ms1) <= 0.1 * abs(price.ms0)
        assert abs(price.total - exact) <= bound * exact, (price.total - exact) / exact
