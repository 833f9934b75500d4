"""Valuation of capped monthly-return (monthly sum) contracts.

The contract credits max(sum of N capped, optionally floored, monthly
returns, 0) at expiry. Under constant volatility the package prices it

* in closed form, by matching the first three cumulants of the capped
  monthly log-return law and expanding the aggregate density around a
  Gaussian (a leading at-the-money call term plus a third-cumulant
  skewness correction), and
* by Monte Carlo, simulating either the exact payoff or its lognormal
  proxy on a counter-based generator whose output is independent of
  threading.

Every closed form is validated against an adaptive-quadrature oracle over
a 1200-point parameter grid; see :mod:`monthlysum.validation`.
"""

from ._reference import (
    capped_floored_moment_closed,
    capped_moment_closed,
    moment_quadrature,
    ms_correction_quadrature,
    quadrature_moments,
)
from .contracts import ContractSpec, MarketParams
from .edgeworth import (
    CumulantSet,
    EdgeworthParams,
    aggregate,
    cumulants_from_moments,
)
from .errors import (
    DegenerateVolatilityError,
    NonpositiveVarianceError,
    QuadratureConvergenceError,
)
from .moments import MomentSet, closed_form_moments
from .montecarlo import McConfig, McResult, empirical_cumulants, simulate_ms, simulate_msln
from .pricer import (
    PriceBreakdown,
    bs_call,
    edgeworth_params,
    ms_correction_closed,
    ms_leading,
    price_ms,
)
from .validation import (
    GridPoint,
    ValidationReport,
    default_grid,
    run_validation,
    write_discrepancy_log,
)

__version__ = "0.1.0"

__all__ = [
    "ContractSpec",
    "CumulantSet",
    "DegenerateVolatilityError",
    "EdgeworthParams",
    "GridPoint",
    "MarketParams",
    "McConfig",
    "McResult",
    "MomentSet",
    "NonpositiveVarianceError",
    "PriceBreakdown",
    "QuadratureConvergenceError",
    "ValidationReport",
    "aggregate",
    "bs_call",
    "capped_floored_moment_closed",
    "capped_moment_closed",
    "closed_form_moments",
    "cumulants_from_moments",
    "default_grid",
    "edgeworth_params",
    "empirical_cumulants",
    "moment_quadrature",
    "ms_correction_closed",
    "ms_correction_quadrature",
    "ms_leading",
    "price_ms",
    "quadrature_moments",
    "run_validation",
    "simulate_ms",
    "simulate_msln",
    "write_discrepancy_log",
]
