"""Closed-form moments against the quadrature oracle and frozen references.

Reference values were frozen from an independent 200-node Gauss-Legendre
integration of the capped Gaussian body plus erfc-based atom terms; the
package's adaptive quadrature and closed forms must both reproduce them.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from monthlysum import (
    ContractSpec,
    DegenerateVolatilityError,
    GridPoint,
    MarketParams,
    MomentSet,
    NonpositiveVarianceError,
    QuadratureConvergenceError,
    capped_floored_moment_closed,
    capped_moment_closed,
    closed_form_moments,
    moment_quadrature,
    price_ms,
    quadrature_moments,
)
from monthlysum import _reference
from monthlysum._reference import _quad_split, _variant_moments
from monthlysum.moments import (
    PRINTED,
    _MAXLOG,
    _truncation_geometry,
    standard_normal_cdf,
    standard_normal_pdf,
)
from monthlysum.validation import validate_point

from checkout import CAP_FLOOR, CAP_ONLY, CONTRACTS, MARKET, markets

GRID_POINT = GridPoint(sigma=0.20, cap=0.025, floor=-0.05, rate=0.03, div_yield=0.02)

# frozen from the independent Gauss-Legendre oracle
GOLDEN_CAP_ONLY = (-0.013318488134304939, 0.001938806532444221, -0.00015221021440185516)
GOLDEN_CAP_FLOOR = (-0.007238479710595556, 0.0009850053273060076, -2.955106595955624e-05)


class TestNormalHelpers:
    def test_cdf_reference_points(self):
        assert standard_normal_cdf(0.0) == pytest.approx(0.5, rel=1e-15)
        assert standard_normal_cdf(1.0) == pytest.approx(0.8413447460685429, rel=1e-14)
        assert standard_normal_cdf(-8.0) == pytest.approx(6.220960574271786e-16, rel=1e-12)

    def test_pdf_reference_points(self):
        assert standard_normal_pdf(0.0) == pytest.approx(0.3989422804014327, rel=1e-15)
        assert standard_normal_pdf(2.0) == pytest.approx(0.05399096651318806, rel=1e-14)

    @pytest.mark.parametrize(
        "z", (1.25, np.float64(1.25), 1, np.array(1.25)), ids=("float", "float64", "int", "0-d")
    )
    def test_scalar_in_gives_float_out(self, z):
        for fn in (standard_normal_pdf, standard_normal_cdf):
            out = fn(z)
            assert type(out) is float
            assert out == fn(float(z))


def _neighbours(values):
    """Each value and the floats one ulp below and above it."""
    return tuple(
        v for x in values for v in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))
    )


#: z at the edges of the port's branches, a = -z/sqrt(2) being erfc's argument:
#: zeros and subnormals, |a| = 1 and 8, -a*a = -MAXLOG, and the infinities
CDF_EDGES = _neighbours(
    (0.0, -0.0, 5e-324, -5e-324)
    + (math.nextafter(2.2250738585072014e-308, 0.0), -math.nextafter(2.2250738585072014e-308, 0.0))
    + tuple(sign * z for sign in (1.0, -1.0) for z in (math.sqrt(2.0), 8.0 * math.sqrt(2.0)))
    + (math.sqrt(2.0 * _MAXLOG), -math.sqrt(2.0 * _MAXLOG))
) + (math.inf, -math.inf)


def _scipy_cdf(z):
    return 0.5 * float(erfc(-z / math.sqrt(2.0)))


class TestCephesErfc:
    """standard_normal_cdf is scipy's 0.5*erfc(-z/sqrt(2)), bit for bit, without scipy.special.

    The port transcribes the Cephes erfc that scipy runs, one IEEE operation
    per step, on math.exp. So this holds where scipy's build calls the same
    C library exp as math.exp and fuses no multiply-add into the Horner
    steps, as on x86-64; where a build fuses them the last bit may differ.
    """

    @settings(max_examples=1000, deadline=None)
    @given(
        z=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(-40.0, 40.0),
        )
    )
    def test_bits_equal_scipys_erfc(self, z):
        for x in (z,) + CDF_EDGES:
            got, want = standard_normal_cdf(x), _scipy_cdf(x)
            assert got.hex() == want.hex(), x
        assert math.isnan(standard_normal_cdf(math.nan))

    def test_dense_grid_bits_equal_scipys_erfc(self):
        # a sampled float rarely lands where a wrong constant's last bit shows;
        # 160,001 evenly spaced z over [-40, 40] find such a change
        z = np.linspace(-40.0, 40.0, 160_001)
        want = 0.5 * erfc(-z / math.sqrt(2.0))
        got = np.array([standard_normal_cdf(x) for x in z.tolist()])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_edges_take_each_branch(self):
        # the named edges straddle every branch of the port, so the property
        # above crosses each boundary in every example
        a = [abs(-z / math.sqrt(2.0)) for z in CDF_EDGES]
        assert any(x < 1.0 for x in a) and any(1.0 <= x < 8.0 for x in a)
        assert any(8.0 <= x and -x * x >= -_MAXLOG for x in a)
        assert any(-x * x < -_MAXLOG for x in a if math.isfinite(x))
        assert (standard_normal_cdf(-math.inf), standard_normal_cdf(math.inf)) == (0.0, 1.0)


class TestTruncationGeometry:
    def test_standardized_cap_abscissa(self):
        geo = _truncation_geometry(MARKET, CAP_ONLY)
        assert geo.c_tilde == pytest.approx(0.44212235251112453, rel=1e-12)
        assert geo.cap_mass == pytest.approx(standard_normal_cdf(-geo.c_tilde), rel=1e-15)
        assert geo.f_tilde is None
        assert geo.floor_mass is None

    def test_floor_abscissa_and_mass(self):
        geo = _truncation_geometry(MARKET, CAP_FLOOR)
        m = MARKET.mu * MARKET.dt
        s = MARKET.sigma * math.sqrt(MARKET.dt)
        assert geo.f_tilde == pytest.approx((math.log1p(-0.05) - m) / s, rel=1e-14)
        assert geo.floor_mass == pytest.approx(standard_normal_cdf(geo.f_tilde), rel=1e-15)

    def test_degenerate_volatility_rejected(self):
        tiny = MarketParams(rate=0.03, dividend_yield=0.02, sigma=1e-13, term=1.0, periods=12)
        with pytest.raises(DegenerateVolatilityError):
            _truncation_geometry(tiny, CAP_ONLY)


class TestAgainstFrozenReferences:
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_closed_cap_only(self, n):
        got = capped_moment_closed(n, MARKET, CAP_ONLY)
        assert got == pytest.approx(GOLDEN_CAP_ONLY[n - 1], rel=1e-11)

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_closed_cap_floor(self, n):
        got = capped_floored_moment_closed(n, MARKET, CAP_FLOOR)
        assert got == pytest.approx(GOLDEN_CAP_FLOOR[n - 1], rel=1e-11)

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_quadrature_cap_only(self, n):
        got = moment_quadrature(n, MARKET, CAP_ONLY)
        assert got == pytest.approx(GOLDEN_CAP_ONLY[n - 1], rel=1e-11)

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_quadrature_cap_floor(self, n):
        got = moment_quadrature(n, MARKET, CAP_FLOOR)
        assert got == pytest.approx(GOLDEN_CAP_FLOOR[n - 1], rel=1e-11)


class TestLimits:
    def test_huge_cap_recovers_gaussian_moments(self):
        wide = ContractSpec(cap=10.0)
        m = MARKET.mu * MARKET.dt
        s2 = MARKET.sigma**2 * MARKET.dt
        assert capped_moment_closed(1, MARKET, wide) == pytest.approx(m, rel=1e-12)
        assert capped_moment_closed(2, MARKET, wide) == pytest.approx(m * m + s2, rel=1e-12)
        assert capped_moment_closed(3, MARKET, wide) == pytest.approx(
            m**3 + 3 * m * s2, rel=1e-12
        )

    def test_remote_floor_matches_cap_only(self):
        remote = ContractSpec(cap=0.025, floor=-0.9999)
        for n in (1, 2, 3):
            assert capped_floored_moment_closed(n, MARKET, remote) == pytest.approx(
                capped_moment_closed(n, MARKET, CAP_ONLY), rel=1e-9
            )

    @settings(max_examples=200, deadline=None)
    @given(
        sigma=st.floats(0.01, 0.40),
        cap=st.floats(0.001, 0.20),
        floor=st.floats(-0.95, -0.90),
        rate=st.floats(0.0, 0.08),
        div=st.floats(0.0, 0.05),
        periods=st.sampled_from((4, 12, 52)),
    )
    def test_far_floor_reduces_to_cap_only(self, sigma, cap, floor, rate, div, periods):
        # with the floor beyond 12 standard deviations, P_n(f~) and the floor
        # atom are below 1e-30, so the floored kernel must give the cap-only
        # moments; I3 can sit near zero, hence the absolute floor
        market = MarketParams(rate=rate, dividend_yield=div, sigma=sigma, term=1.0, periods=periods)
        floored = ContractSpec(cap=cap, floor=floor)
        assume(_truncation_geometry(market, floored).f_tilde < -12.0)
        for n in (1, 2, 3):
            got = capped_floored_moment_closed(n, market, floored)
            want = capped_moment_closed(n, market, ContractSpec(cap=cap))
            assert abs(got - want) <= max(1e-12 * abs(want), 1e-18)

    def test_tight_bounds_concentrate_on_the_atoms(self):
        # a razor-thin corridor leaves almost all mass on the two atoms
        tight = ContractSpec(cap=0.01001, floor=0.00999)
        geo = _truncation_geometry(MARKET, tight)
        i1 = capped_floored_moment_closed(1, MARKET, tight)
        atoms = tight.log_cap * geo.cap_mass + tight.log_floor * geo.floor_mass
        assert i1 == pytest.approx(atoms, rel=1e-3)


class TestClosedVersusQuadrature:
    @settings(max_examples=25, deadline=None)
    @given(
        sigma=st.floats(0.02, 0.60),
        cap=st.floats(0.002, 0.15),
        rate=st.floats(0.0, 0.08),
        div_yield=st.floats(0.0, 0.04),
        n=st.sampled_from((1, 2, 3)),
    )
    def test_cap_only_agrees(self, sigma, cap, rate, div_yield, n):
        market = MarketParams(
            rate=rate, dividend_yield=div_yield, sigma=sigma, term=1.0, periods=12
        )
        contract = ContractSpec(cap=cap)
        closed = capped_moment_closed(n, market, contract)
        quad = moment_quadrature(n, market, contract)
        assert closed == pytest.approx(quad, rel=1e-9, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        sigma=st.floats(0.02, 0.60),
        cap=st.floats(0.002, 0.15),
        floor_gap=st.floats(0.01, 0.25),
        n=st.sampled_from((1, 2, 3)),
    )
    def test_cap_floor_agrees(self, sigma, cap, floor_gap, n):
        market = MarketParams(
            rate=0.03, dividend_yield=0.02, sigma=sigma, term=1.0, periods=12
        )
        contract = ContractSpec(cap=cap, floor=cap - floor_gap)
        closed = capped_floored_moment_closed(n, market, contract)
        quad = moment_quadrature(n, market, contract)
        assert closed == pytest.approx(quad, rel=1e-9, abs=1e-12)


class TestMomentIntegrands:
    # the integrands write the density inline instead of calling
    # standard_normal_pdf (a call would cost a quarter of each evaluation);
    # each must still be its formula bit for bit, at both ends of its range
    # and between them
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(contract=CONTRACTS, market=markets(term=st.just(1.0)), where=st.floats(0.0, 1.0))
    def test_match_their_formula_bit_for_bit(self, contract, market, where):
        captured = []

        def capture(fn, lo, hi, interior):
            captured.append((fn, lo, hi))
            return 0.0

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_reference, "_quad_split", capture)
            quadrature_moments(market, contract)
        geo = _truncation_geometry(market, contract)
        assert len(captured) == 3
        for n, (integrand, lo, hi) in enumerate(captured, start=1):
            for z in (lo, lo + where * (hi - lo), hi):
                got = integrand(z)
                want = (geo.m + geo.s * z) ** n * standard_normal_pdf(z)
                assert type(got) is float
                assert got.hex() == want.hex(), (n, z)


class TestOnePass:
    @settings(max_examples=200, deadline=None)
    @given(contract=CONTRACTS, market=markets(), variant=st.sampled_from(("corrected", PRINTED)))
    def test_bundle_equals_each_order_exactly(self, contract, market, variant):
        fn = capped_moment_closed if contract.floor is None else capped_floored_moment_closed
        orders = tuple(fn(n, market, contract, variant) for n in (1, 2, 3))
        if variant == PRINTED:
            # the printed forms can imply a nonpositive variance, so no MomentSet
            assert _variant_moments(market, contract, PRINTED) == orders
        else:
            mset = closed_form_moments(market, contract)
            assert (mset.i1, mset.i2, mset.i3) == orders

    @pytest.mark.parametrize("contract, calls", ((CAP_ONLY, 3), (CAP_FLOOR, 5)))
    def test_normal_evaluations_per_bundle(self, monkeypatch, contract, calls):
        # Phi(c~), phi(c~) and the cap mass; with a floor also phi(f~) and
        # the floor mass, which doubles as Phi(f~)
        from monthlysum import moments

        count = 0

        def counted(fn):
            def wrapper(z):
                nonlocal count
                count += 1
                return fn(z)

            return wrapper

        for name in ("standard_normal_cdf", "standard_normal_pdf"):
            monkeypatch.setattr(moments, name, counted(getattr(moments, name)))
        closed_form_moments(MARKET, contract)
        assert count == calls

    @pytest.mark.parametrize(
        "call, builds",
        (
            (lambda: quadrature_moments(MARKET, CAP_FLOOR), 1),
            (lambda: price_ms(CAP_FLOOR, MARKET), 1),
            # the quadrature set, and the corrected set that also gives the law
            (lambda: validate_point(GRID_POINT), 2),
            # and the printed set, which standardizes its own cap
            (lambda: validate_point(GRID_POINT, PRINTED, collect_discrepancies=True), 3),
        ),
        ids=("quadrature_moments", "price_ms", "validate_point", "validate_point-printed"),
    )
    def test_geometry_builds(self, monkeypatch, call, builds):
        # each moment set standardizes its contract once, for all three orders
        from monthlysum import _reference, moments

        count = 0
        build = moments._truncation_geometry

        def counted(market, contract):
            nonlocal count
            count += 1
            return build(market, contract)

        for module in (moments, _reference):
            monkeypatch.setattr(module, "_truncation_geometry", counted)
        call()
        assert count == builds


class TestPrintedVariants:
    def test_printed_i1_i3_cap_match_corrected(self):
        for n in (1, 3):
            printed = capped_moment_closed(n, MARKET, CAP_ONLY, variant=PRINTED)
            corrected = capped_moment_closed(n, MARKET, CAP_ONLY)
            assert printed == pytest.approx(corrected, rel=1e-12)

    def test_printed_i2_cap_is_defective(self):
        printed = capped_moment_closed(2, MARKET, CAP_ONLY, variant=PRINTED)
        quad = moment_quadrature(2, MARKET, CAP_ONLY)
        assert abs(printed - quad) / abs(quad) > 1e-6

    def test_printed_floored_forms_are_defective(self):
        for n in (1, 2, 3):
            printed = capped_floored_moment_closed(n, MARKET, CAP_FLOOR, variant=PRINTED)
            quad = moment_quadrature(n, MARKET, CAP_FLOOR)
            assert abs(printed - quad) / abs(quad) > 1e-6

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            capped_moment_closed(1, MARKET, CAP_ONLY, variant="fixed")


class TestApiGuards:
    def test_moment_order_checked(self):
        calls = (
            (capped_moment_closed, CAP_ONLY),
            (moment_quadrature, CAP_ONLY),
            (capped_floored_moment_closed, CAP_FLOOR),
        )
        for fn, contract in calls:
            # a bool or a float equal to an order is not one
            for n in (True, 1.0, 0, 4):
                with pytest.raises(ValueError, match="order"):
                    fn(n, MARKET, contract)
            assert fn(np.int64(2), MARKET, contract) == fn(2, MARKET, contract)

    def test_contract_kind_dispatch_guarded(self):
        with pytest.raises(ValueError):
            capped_moment_closed(1, MARKET, CAP_FLOOR)
        with pytest.raises(ValueError):
            capped_floored_moment_closed(1, MARKET, CAP_ONLY)

    def test_unconverged_quadrature_names_its_interval(self):
        # sin(1/z) oscillates without bound near 0, so the subdivision budget
        # runs out (QUADPACK's ier 1), and the error keeps QUADPACK's reason
        reason = r"maximum number of subdivisions \(200\) reached \(QUADPACK ier=1\)"
        with pytest.raises(
            QuadratureConvergenceError,
            match=rf"^quadrature on \[0\.0001, 1\] did not converge: {reason}$",
        ):
            _quad_split(lambda z: math.sin(1.0 / z), 1e-4, 1.0, ())

    def test_each_quadpack_failure_has_its_own_reason(self, monkeypatch):
        # ier 1-7 each name their QUADPACK reason; any other code is unknown
        reasons = []
        for ier in range(1, 9):
            monkeypatch.setattr(_reference, "_qagse", lambda fn, a, b, ier=ier: (0.0, 0.0, ier))
            with pytest.raises(QuadratureConvergenceError) as failure:
                _quad_split(math.exp, 0.0, 1.0, ())
            message = str(failure.value)
            assert message.endswith(f" (QUADPACK ier={ier})")
            reasons.append(message.split("did not converge: ")[1])
        assert len(set(reasons)) == 8
        assert reasons[-1] == "unknown error (QUADPACK ier=8)"

    def test_moment_set_rejects_nonpositive_variance(self):
        with pytest.raises(NonpositiveVarianceError, match="variance"):
            MomentSet(i1=0.1, i2=0.01, i3=0.0, provenance="closed_form")

    def test_moment_set_rejects_nan_variance(self):
        # inf - inf is NaN, which a "<= 0" test lets through
        with pytest.raises(NonpositiveVarianceError, match="i2=nan"):
            MomentSet(i1=-math.inf, i2=math.nan, i3=math.nan, provenance="closed_form")
        with pytest.raises(NonpositiveVarianceError, match="i1=-inf, i2=inf"):
            MomentSet(i1=-math.inf, i2=math.inf, i3=-math.inf, provenance="quadrature")

    @pytest.mark.parametrize("route", (closed_form_moments, quadrature_moments))
    @pytest.mark.parametrize("contract", (CAP_ONLY, CAP_FLOOR))
    def test_overflowing_inputs_fail_at_the_moment_set(self, route, contract):
        # the constructors accept sigma = 1e200, whose sigma^2 overflows: the
        # moments come out as infinities and NaNs, and the set must refuse them
        market = MarketParams(rate=1e300, dividend_yield=0.02, sigma=1e200, term=1.0, periods=12)
        with pytest.raises(NonpositiveVarianceError, match="moment set implies"):
            route(market, contract)

    def test_helper_bundles_report_provenance(self):
        assert closed_form_moments(MARKET, CAP_ONLY).provenance == "closed_form"
        assert quadrature_moments(MARKET, CAP_ONLY).provenance == "quadrature"
