"""Cumulant conversion and aggregation to the skew-corrected Gaussian law."""

from __future__ import annotations

import math

import pytest

from monthlysum import (
    CumulantSet,
    MarketParams,
    MomentSet,
    NonpositiveVarianceError,
    aggregate,
    closed_form_moments,
    cumulants_from_moments,
)

from checkout import CAP_ONLY, MARKET


def default_params():
    return aggregate(cumulants_from_moments(closed_form_moments(MARKET, CAP_ONLY)), MARKET)


class TestCumulantConversion:
    def test_identities(self):
        m = MomentSet(i1=0.01, i2=0.0102, i3=0.000309, provenance="closed_form")
        k = cumulants_from_moments(m)
        assert k.iota1 == pytest.approx(0.01, rel=1e-15)
        assert k.iota2 == pytest.approx(0.0102 - 1e-4, rel=1e-14)
        assert k.iota3 == pytest.approx(0.000309 - 3 * 0.01 * 0.0102 + 2e-6, rel=1e-12)

    def test_frozen_reference_point(self):
        k = cumulants_from_moments(closed_form_moments(MARKET, CAP_ONLY))
        assert k.iota1 == pytest.approx(-0.013318488134304939, rel=1e-12)
        assert k.iota2 == pytest.approx(0.0017614244062605995, rel=1e-12)
        assert k.iota3 == pytest.approx(-7.946922249627006e-05, rel=1e-12)


class TestAggregate:
    def test_frozen_reference_point(self):
        ep = default_params()
        assert ep.nu == pytest.approx(-0.15982185761165926, rel=1e-12)
        assert ep.v == pytest.approx(0.14538601334078596, rel=1e-12)
        assert ep.epsilon1 == pytest.approx(-0.05172030486750723, rel=1e-12)
        assert ep.y_eff == pytest.approx(0.17925331117409565, rel=1e-12)
        assert ep.term == 1.0

    def test_carry_rate_identity(self):
        ep = default_params()
        assert ep.y_eff == pytest.approx(MARKET.rate - ep.nu - 0.5 * ep.v**2, rel=1e-14)

    def test_linear_scaling_in_periods(self):
        # kappa_n = N * iota_n: doubling N doubles nu and v^2 at fixed T
        iotas = CumulantSet(iota1=-0.001, iota2=0.0017, iota3=-8e-05)
        twelve = aggregate(iotas, MARKET)
        twenty_four = aggregate(
            iotas,
            MarketParams(rate=0.03, dividend_yield=0.02, sigma=0.20, term=1.0, periods=24),
        )
        assert twenty_four.nu == pytest.approx(2.0 * twelve.nu, rel=1e-14)
        assert twenty_four.v**2 == pytest.approx(2.0 * twelve.v**2, rel=1e-14)

    def test_skew_coefficient_decays_like_inverse_sqrt_periods(self):
        iotas = CumulantSet(iota1=-0.001, iota2=0.0017, iota3=-8e-05)
        eps = {}
        for n in (12, 48):
            market = MarketParams(
                rate=0.03, dividend_yield=0.02, sigma=0.20, term=1.0, periods=n
            )
            eps[n] = aggregate(iotas, market).epsilon1
        assert eps[48] == pytest.approx(eps[12] / 2.0, rel=1e-14)

    def test_skew_coefficient_is_per_month_skewness_over_sqrt_periods(self):
        iotas = CumulantSet(iota1=-0.001, iota2=0.0017, iota3=-8e-05)
        ep = aggregate(iotas, MARKET)
        skew = iotas.iota3 / iotas.iota2**1.5
        assert ep.epsilon1 == pytest.approx(skew / (6.0 * math.sqrt(12.0)), rel=1e-14)

    def test_nonpositive_variance_rejected(self):
        bad = CumulantSet(iota1=0.0, iota2=0.0, iota3=0.0)
        with pytest.raises(NonpositiveVarianceError):
            aggregate(bad, MARKET)

    def test_params_guard_their_own_fields(self):
        from monthlysum.edgeworth import EdgeworthParams

        with pytest.raises(NonpositiveVarianceError):
            EdgeworthParams(nu=0.0, v=0.0, epsilon1=0.0, y_eff=0.0, term=1.0)
        with pytest.raises(ValueError, match="term"):
            EdgeworthParams(nu=0.0, v=0.1, epsilon1=0.0, y_eff=0.0, term=0.0)
