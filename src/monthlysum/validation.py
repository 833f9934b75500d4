"""Grid validation of the closed forms against quadrature ground truth.

Sweeps a 1200-point parameter grid (volatility x cap x floor x rate x
dividend yield, one-year monthly contracts) and checks, at every point,

* each closed-form moment against adaptive quadrature (1e-9 relative by
  default);
* the closed-form first-order correction against its quadrature route
  (1e-8 relative by default).

The variant under test is ``"corrected"`` by default; selecting
``"printed"`` points the same checks at the uncorrected transcriptions,
which is how their defects are demonstrated: each printed formula that
genuinely differs fails against quadrature, and a discrepancy record
(printed value, corrected value, quadrature value) is collected per
offending grid point. ``write_discrepancy_log`` serializes those records
as JSON lines.

The quadrature oracle and the printed transcriptions come from
:mod:`monthlysum._reference`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from ._reference import _is_printed, _variant_moments, ms_correction_quadrature, quadrature_moments
from .contracts import ContractSpec, MarketParams, _require_positive
from .edgeworth import aggregate, cumulants_from_moments
from .moments import CORRECTED, PRINTED, closed_form_moments
from .pricer import ms_correction_closed

__all__ = [
    "CORRECTION_REL_TOL",
    "MOMENT_REL_TOL",
    "CheckFailure",
    "Discrepancy",
    "GridPoint",
    "ValidationReport",
    "default_grid",
    "run_validation",
    "validate_point",
    "write_discrepancy_log",
]

MOMENT_REL_TOL = 1e-9
CORRECTION_REL_TOL = 1e-8

#: Relative errors are measured against max(|reference|, this floor) so
#: near-zero references do not blow up the ratio.
REL_DENOM_FLOOR = 1e-12

#: Formula ids, in report order.
FORMULA_IDS = (
    "I1_cap",
    "I2_cap",
    "I3_cap",
    "I1_capfloor",
    "I2_capfloor",
    "I3_capfloor",
    "ms1_closed",
)

_SIGMAS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40)
_CAPS = (0.005, 0.01, 0.025, 0.05, 0.10)
_FLOORS = (None, -0.10, -0.05, -0.025, 0.0)
_RATES = (0.0, 0.03, 0.06)
_DIV_YIELDS = (0.0, 0.02)


@dataclass(frozen=True)
class GridPoint:
    """One parameter tuple of the validation sweep."""

    sigma: float
    cap: float
    floor: float | None
    rate: float
    div_yield: float
    term: float = 1.0
    periods: int = 12

    def market(self) -> MarketParams:
        return MarketParams(
            rate=self.rate,
            dividend_yield=self.div_yield,
            sigma=self.sigma,
            term=self.term,
            periods=self.periods,
        )

    def contract(self) -> ContractSpec:
        return ContractSpec(cap=self.cap, floor=self.floor)

    def as_dict(self) -> dict:
        return asdict(self)


def default_grid() -> tuple[GridPoint, ...]:
    """The full 8 x 5 x 5 x 3 x 2 = 1200 point grid."""
    return tuple(
        GridPoint(sigma=s, cap=c, floor=f, rate=r, div_yield=q)
        for s in _SIGMAS
        for c in _CAPS
        for f in _FLOORS
        for r in _RATES
        for q in _DIV_YIELDS
    )


@dataclass(frozen=True)
class CheckFailure:
    """A closed-form value that missed its quadrature reference."""

    point: GridPoint
    check: str
    got: float
    want: float
    rel_err: float


@dataclass(frozen=True)
class Discrepancy:
    """A printed formula value that disagrees with its corrected form."""

    formula: str
    point: GridPoint
    printed: float
    corrected: float
    quadrature: float

    @property
    def rel_gap(self) -> float:
        return _rel(self.printed, self.corrected)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a grid sweep."""

    points: int
    variant: str
    moment_tol: float
    correction_tol: float
    failures: tuple[CheckFailure, ...]
    max_rel_err: dict
    discrepancies: tuple[Discrepancy, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), REL_DENOM_FLOOR)


def validate_point(
    point: GridPoint,
    variant: str = CORRECTED,
    moment_tol: float = MOMENT_REL_TOL,
    correction_tol: float = CORRECTION_REL_TOL,
    collect_discrepancies: bool = False,
) -> tuple[list[CheckFailure], list[Discrepancy], dict]:
    """Run every check at one grid point.

    Returns (failures, discrepancies, max relative error per formula id).
    The checked value is the ``variant`` closed form against quadrature;
    discrepancy records always compare printed against corrected. Both
    tolerances must be positive and finite.
    """
    _require_positive("moment_tol", moment_tol)
    _require_positive("correction_tol", correction_tol)
    market = point.market()
    contract = point.contract()
    suffix = "cap" if contract.floor is None else "capfloor"
    formulas = (f"I1_{suffix}", f"I2_{suffix}", f"I3_{suffix}", "ms1_closed")
    tols = (moment_tol, moment_tol, moment_tol, correction_tol)
    quad = quadrature_moments(market, contract)
    mset = closed_form_moments(market, contract)
    ep = aggregate(cumulants_from_moments(mset), market)
    references = (quad.i1, quad.i2, quad.i3, ms_correction_quadrature(ep, market))

    # the four closed forms under test, in ``formulas`` order
    corrected = (mset.i1, mset.i2, mset.i3, ms_correction_closed(ep, market))

    def closed(which: str) -> tuple[float, ...]:
        return (*_variant_moments(market, contract, which), ms_correction_closed(ep, market, which))

    tested = corrected if variant == CORRECTED else closed(variant)
    printed = None
    if collect_discrepancies:
        printed = tested if variant == PRINTED else closed(PRINTED)

    failures: list[CheckFailure] = []
    discrepancies: list[Discrepancy] = []
    errs: dict = {}
    for k, formula in enumerate(formulas):
        err = _rel(tested[k], references[k])
        errs[formula] = err
        if err > tols[k]:
            failures.append(
                CheckFailure(
                    point=point, check=formula, got=tested[k], want=references[k], rel_err=err
                )
            )
        if printed is not None and _rel(printed[k], corrected[k]) > tols[k]:
            discrepancies.append(
                Discrepancy(
                    formula=formula,
                    point=point,
                    printed=printed[k],
                    corrected=corrected[k],
                    quadrature=references[k],
                )
            )
    return failures, discrepancies, errs


def run_validation(
    grid: Sequence[GridPoint] | None = None,
    variant: str = CORRECTED,
    tol: float | None = None,
) -> ValidationReport:
    """Sweep the grid and aggregate the results.

    ``tol`` overrides both per-check tolerances at once (the CLI's
    ``--tol``) and must be positive and finite: a NaN would pass every
    check. Discrepancy records are collected exactly when the printed
    variant is under test.
    """
    printed = _is_printed(variant)
    if tol is not None:
        _require_positive("tol", tol)
    if grid is None:
        grid = default_grid()
    moment_tol = MOMENT_REL_TOL if tol is None else tol
    correction_tol = CORRECTION_REL_TOL if tol is None else tol

    all_failures: list[CheckFailure] = []
    all_discrepancies: list[Discrepancy] = []
    max_err: dict = {}
    for point in grid:
        failures, discrepancies, errs = validate_point(
            point, variant, moment_tol, correction_tol, printed
        )
        all_failures.extend(failures)
        all_discrepancies.extend(discrepancies)
        for formula, err in errs.items():
            max_err[formula] = max(max_err.get(formula, 0.0), err)
    return ValidationReport(
        points=len(grid),
        variant=variant,
        moment_tol=moment_tol,
        correction_tol=correction_tol,
        failures=tuple(all_failures),
        max_rel_err=max_err,
        discrepancies=tuple(all_discrepancies),
    )


def write_discrepancy_log(discrepancies: Iterable[Discrepancy], path: str) -> int:
    """Write discrepancy records as JSON lines; returns the record count."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for d in discrepancies:
            record = {"formula": d.formula}
            record.update(d.point.as_dict())
            record.update(printed=d.printed, corrected=d.corrected, quadrature=d.quadrature)
            fh.write(json.dumps(record) + "\n")
            count += 1
    return count
