"""Grid validation: the corrected forms pass, the defective ones are caught."""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from monthlysum import _reference
from monthlysum._reference import ms_correction_quadrature, quadrature_moments
from monthlysum.moments import CORRECTED, PRINTED
from monthlysum.pricer import edgeworth_params
from monthlysum.validation import (
    CORRECTION_REL_TOL,
    FORMULA_IDS,
    MOMENT_REL_TOL,
    GridPoint,
    default_grid,
    run_validation,
    validate_point,
    write_discrepancy_log,
)

CAP_POINT = GridPoint(sigma=0.20, cap=0.025, floor=None, rate=0.03, div_yield=0.02)
FLOOR_POINT = GridPoint(sigma=0.20, cap=0.025, floor=-0.05, rate=0.03, div_yield=0.02)

# a small but representative slice of the full grid: both contract kinds,
# low and high volatility, zero and nonzero carry
SUBGRID = (
    GridPoint(sigma=0.05, cap=0.005, floor=None, rate=0.0, div_yield=0.0),
    GridPoint(sigma=0.05, cap=0.005, floor=-0.10, rate=0.0, div_yield=0.0),
    CAP_POINT,
    FLOOR_POINT,
    GridPoint(sigma=0.40, cap=0.10, floor=0.0, rate=0.06, div_yield=0.02),
    GridPoint(sigma=0.40, cap=0.10, floor=None, rate=0.06, div_yield=0.02),
)


class TestGrid:
    def test_dimensions(self):
        grid = default_grid()
        assert len(grid) == 1200
        assert len(set(grid)) == 1200

    def test_point_helpers_round_trip(self):
        market = FLOOR_POINT.market()
        contract = FLOOR_POINT.contract()
        assert market.sigma == 0.20
        assert market.periods == 12
        assert contract.floor == -0.05
        d = FLOOR_POINT.as_dict()
        assert d["cap"] == 0.025 and d["floor"] == -0.05 and d["term"] == 1.0


class TestCorrectedVariant:
    def test_subgrid_passes_at_default_tolerances(self):
        report = run_validation(SUBGRID)
        assert report.passed
        assert report.points == len(SUBGRID)
        assert report.variant == CORRECTED
        assert report.moment_tol == MOMENT_REL_TOL
        assert report.correction_tol == CORRECTION_REL_TOL
        assert not report.discrepancies
        for formula, err in report.max_rel_err.items():
            assert formula in FORMULA_IDS
            assert err < 1e-10, formula

    def test_single_point_has_no_failures(self):
        failures, discrepancies, errs = validate_point(CAP_POINT)
        assert not failures
        assert not discrepancies
        assert set(errs) == {"I1_cap", "I2_cap", "I3_cap", "ms1_closed"}

    def test_floored_point_reports_floored_formulas(self):
        _, _, errs = validate_point(FLOOR_POINT)
        assert set(errs) == {"I1_capfloor", "I2_capfloor", "I3_capfloor", "ms1_closed"}

    def test_full_grid_errors_are_bit_exact(self):
        # compared with ==: every bit of the quadrature oracle and the
        # closed forms feeds these worst errors
        report = run_validation()
        assert report.passed
        assert report.max_rel_err == {
            "I1_cap": 2.484991378380443e-14,
            "I2_cap": 4.590764374967599e-16,
            "I3_cap": 2.981832724328305e-14,
            "ms1_closed": 4.3834352950557364e-11,
            "I1_capfloor": 9.233628533428457e-14,
            "I2_capfloor": 1.198047235125189e-13,
            "I3_capfloor": 6.4163422721236125e-12,
        }


class TestOracle:
    # the quadrature references at every point of the grid, not only the
    # worst errors they produce: a sha256 over float.hex() of (I1, I2, I3,
    # ms1) per point, in grid order; and, host-independent, the QUADPACK
    # pieces (qagse calls) and integrand evaluations they cost (7.0 and
    # 368.7 per point, the oracle work of one corrected sweep)
    def test_every_reference_value_is_bit_exact(self, monkeypatch):
        counts = {"pieces": 0, "evaluations": 0}
        qagse = _reference._qagse

        def counting_qagse(fn, a, b):
            def counted(z):
                counts["evaluations"] += 1
                return fn(z)

            counts["pieces"] += 1
            return qagse(counted, a, b)

        monkeypatch.setattr(_reference, "_qagse", counting_qagse)
        digest = hashlib.sha256()
        for point in default_grid():
            market, contract = point.market(), point.contract()
            quad_moments = quadrature_moments(market, contract)
            ms1 = ms_correction_quadrature(edgeworth_params(contract, market), market)
            for value in (quad_moments.i1, quad_moments.i2, quad_moments.i3, ms1):
                digest.update(value.hex().encode())
        assert digest.hexdigest() == (
            "951377059d5b902785cd43b17f5a00253ddefb697c2e568429e51d12d0e7e657"
        )
        assert counts == {"pieces": 8404, "evaluations": 442470}


class TestSecondaryGrid:
    def test_terms_and_period_counts_pass_at_default_tolerances(self):
        # every cap and floor of the main grid at three volatilities, with
        # terms to 10 years and 4 to 252 periods; the 1200-point grid stays
        # the gate, this one checks the closed forms off its one-year,
        # monthly plane
        main = default_grid()
        caps = tuple(dict.fromkeys(p.cap for p in main))
        floors = tuple(dict.fromkeys(p.floor for p in main))
        grid = tuple(
            GridPoint(sigma=s, cap=c, floor=f, rate=0.03, div_yield=0.02, term=t, periods=n)
            for s in (0.05, 0.2, 0.4)
            for c in caps
            for f in floors
            for t in (0.25, 1.0, 10.0)
            for n in (4, 12, 52, 252)
        )
        assert len(set(grid)) == 900
        report = run_validation(grid)
        assert report.points == 900
        assert report.moment_tol == MOMENT_REL_TOL
        assert report.correction_tol == CORRECTION_REL_TOL
        assert report.passed, report.failures[:3]


class TestPrintedVariant:
    def test_defective_formulas_fail_and_sound_ones_pass(self):
        report = run_validation(SUBGRID, variant=PRINTED)
        assert not report.passed
        failing = {f.check for f in report.failures}
        # I1_cap and I3_cap are sound as printed and must never fail
        assert "I1_cap" not in failing
        assert "I3_cap" not in failing
        assert {"I2_cap", "ms1_closed"} <= failing
        assert {"I1_capfloor", "I2_capfloor", "I3_capfloor"} <= failing

    def test_full_grid_outcome_is_pinned(self):
        # the corrected variant fails nowhere on the full grid
        # (test_full_grid_errors_are_bit_exact); these are the printed counts
        report = run_validation(variant=PRINTED)
        assert Counter(f.check for f in report.failures) == {
            "ms1_closed": 1200,
            "I1_capfloor": 960,
            "I2_capfloor": 960,
            "I3_capfloor": 934,
            "I2_cap": 238,
        }
        assert len(report.discrepancies) == 4292

    def test_discrepancies_collected_by_default(self):
        report = run_validation((CAP_POINT,), variant=PRINTED)
        formulas = {d.formula for d in report.discrepancies}
        assert formulas == {"I2_cap", "ms1_closed"}
        for d in report.discrepancies:
            assert d.printed != d.corrected
            assert d.rel_gap > MOMENT_REL_TOL

    def test_discrepancy_records_carry_all_three_values(self):
        report = run_validation((FLOOR_POINT,), variant=PRINTED)
        by_formula = {d.formula: d for d in report.discrepancies}
        assert set(by_formula) == {"I1_capfloor", "I2_capfloor", "I3_capfloor", "ms1_closed"}
        d = by_formula["I1_capfloor"]
        # the corrected value is the one quadrature confirms
        assert d.corrected == pytest.approx(d.quadrature, rel=1e-9)
        assert abs(d.printed - d.quadrature) > 1e-6

    def test_loose_tolerance_hides_small_defects(self):
        # at this point every printed defect sits below 60 percent relative,
        # so a huge tolerance turns the report green without touching code
        report = run_validation((CAP_POINT,), variant=PRINTED, tol=1e2)
        assert report.passed
        assert report.moment_tol == 1e2


class TestDiscrepancyLog:
    def test_jsonl_round_trip(self, tmp_path):
        report = run_validation((CAP_POINT, FLOOR_POINT), variant=PRINTED)
        path = tmp_path / "discrepancies.jsonl"
        count = write_discrepancy_log(report.discrepancies, str(path))
        assert count == len(report.discrepancies) == 6
        lines = path.read_text().splitlines()
        assert len(lines) == count
        records = [json.loads(line) for line in lines]
        for rec in records:
            assert {"formula", "sigma", "cap", "floor", "printed", "corrected", "quadrature"} <= set(
                rec
            )
        cap_only = [r for r in records if r["floor"] is None]
        assert {r["formula"] for r in cap_only} == {"I2_cap", "ms1_closed"}

    def test_empty_log(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert write_discrepancy_log((), str(path)) == 0
        assert path.read_text() == ""


class TestArguments:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            run_validation(SUBGRID, variant="latest")

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # a NaN tolerance would pass every check (err > nan is never true)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            run_validation((CAP_POINT,), variant=PRINTED, tol=tol)
        for name in ("moment_tol", "correction_tol"):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                validate_point(FLOOR_POINT, PRINTED, **{name: tol})
