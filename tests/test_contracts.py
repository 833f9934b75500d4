"""Input validation and derived quantities of the parameter containers."""

from __future__ import annotations

import enum
import math

import numpy as np
import pytest

from monthlysum import ContractSpec, MarketParams
from monthlysum.contracts import _require_integer


def make_market(**overrides) -> MarketParams:
    params = dict(rate=0.03, dividend_yield=0.02, sigma=0.20, term=1.0, periods=12)
    params.update(overrides)
    return MarketParams(**params)


class TestMarketParams:
    def test_derived_quantities(self):
        market = make_market()
        assert market.dt == pytest.approx(1.0 / 12.0, rel=1e-15)
        assert market.mu == pytest.approx(0.03 - 0.02 - 0.5 * 0.04, rel=1e-15)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            make_market(sigma=0.0)
        with pytest.raises(ValueError, match="sigma"):
            make_market(sigma=-0.2)

    def test_rejects_nonpositive_term(self):
        with pytest.raises(ValueError, match="term"):
            make_market(term=0.0)

    def test_rejects_bad_periods(self):
        with pytest.raises(ValueError, match="periods"):
            make_market(periods=0)
        with pytest.raises(ValueError, match="periods"):
            make_market(periods=2.5)
        with pytest.raises(ValueError, match="periods"):
            make_market(periods=True)  # a bool is not a period count

    def test_rejects_nonfinite_fields(self):
        with pytest.raises(ValueError):
            make_market(rate=float("nan"))
        with pytest.raises(ValueError):
            make_market(sigma=float("inf"))

    def test_frozen(self):
        market = make_market()
        with pytest.raises(AttributeError):
            market.rate = 0.05


class TestContractSpec:
    def test_log_bounds(self):
        contract = ContractSpec(cap=0.025, floor=-0.05)
        assert contract.log_cap == pytest.approx(math.log1p(0.025), rel=1e-15)
        assert contract.log_floor == pytest.approx(math.log1p(-0.05), rel=1e-15)

    def test_floorless(self):
        contract = ContractSpec(cap=0.025)
        assert contract.floor is None
        assert contract.log_floor is None

    def test_zero_cap_is_legal(self):
        assert ContractSpec(cap=0.0).cap == 0.0

    def test_rejects_cap_at_or_below_minus_one(self):
        with pytest.raises(ValueError, match="cap"):
            ContractSpec(cap=-1.0)

    def test_rejects_floor_at_or_below_minus_one(self):
        for floor in (-1.0, -1.5):
            with pytest.raises(ValueError, match="floor must exceed -1"):
                ContractSpec(cap=0.025, floor=floor)

    def test_rejects_floor_not_below_cap(self):
        with pytest.raises(ValueError, match="floor"):
            ContractSpec(cap=0.025, floor=0.025)
        with pytest.raises(ValueError, match="floor"):
            ContractSpec(cap=0.025, floor=0.05)

    def test_floor_message_names_both_bounds(self):
        with pytest.raises(ValueError, match=r"floor=0\.05.*cap=0\.025"):
            ContractSpec(cap=0.025, floor=0.05)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ContractSpec(cap=float("nan"))
        with pytest.raises(ValueError):
            ContractSpec(cap=0.025, floor=float("-inf"))


class TestBoolFloats:
    # a bool is an int to Python, but True is not a 100% cap or a 1-year term
    @pytest.mark.parametrize("value", (True, False))
    @pytest.mark.parametrize("field", ("rate", "dividend_yield", "sigma", "term"))
    def test_market_field_rejects_a_bool(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_market(**{field: value})

    def test_contract_bounds_reject_a_bool(self):
        with pytest.raises(ValueError, match="cap"):
            ContractSpec(cap=True)
        with pytest.raises(ValueError, match="floor"):
            ContractSpec(cap=0.05, floor=False)

    def test_plain_ints_stay_accepted(self):
        assert make_market(rate=0, dividend_yield=0, sigma=1, term=1).term == 1
        assert ContractSpec(cap=1, floor=0).floor == 0

    def test_call_and_tolerance_reject_a_bool(self):
        from monthlysum import bs_call, run_validation

        with pytest.raises(ValueError, match="spot"):
            bs_call(True, 1.0, 0.2, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="tol"):
            run_validation(tol=True)


class TestRequireInteger:
    # a plain int takes a fast path; every other integer type still goes
    # through the numbers.Integral check and comes back as a plain int
    def test_integer_types_come_back_as_plain_ints(self):
        class Months(enum.IntEnum):
            YEAR = 12

        for value in (12, np.int64(12), np.uint8(12), Months.YEAR):
            got = _require_integer("periods", value, 1, 12)
            assert type(got) is int and got == 12

    @pytest.mark.parametrize("value", (0, 13, True, 12.0, "12", None, 2**64))
    def test_non_integers_and_out_of_range_are_refused(self, value):
        with pytest.raises(ValueError, match=r"periods must be an integer in \[1, 12\]"):
            _require_integer("periods", value, 1, 12)
