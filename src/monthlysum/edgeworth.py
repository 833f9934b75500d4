"""Cumulants of the summed capped return and its Edgeworth parameters.

Monthly capped log returns are independent and identically distributed, so
the cumulants of their sum over the contract's life are the per-month
cumulants scaled by the number of months. The sum's law is then summarized
by a Gaussian with a third-cumulant (skewness) correction:

    density(x) = phi(z)/b * (1 + epsilon1 * H3(z)),   z = (x - a)/b

with a = nu*T, b = v*sqrt(T), H3 the third (probabilists') Hermite
polynomial, and epsilon1 = kappa3 / (6 * kappa2^(3/2)). Because kappa2 and
kappa3 are both linear in the number of months N, epsilon1 decays like
1/sqrt(N); the correction is a genuine perturbation for monthly sampling.

The expansion is asymptotic in N at fixed standardised moneyness z0 = -a/b, not at
a fixed contract: at z0 = 0 order 1's relative error halves per doubling of N (ratios
2.07-2.11, ``tests/test_pricer.py::TestRateInN``), but at sigma 0.2, cap 0.025, where
z0 grows like sqrt(N) into the law's tail, it is -0.31 at N = 96 and -2.4 at N = 192.

``y_eff`` is the carry rate that makes the Gaussian part's forward
consistent: under the approximating law E[exp(sum)] = exp((nu + v^2/2)T),
and writing that as exp((r - y_eff)T) gives y_eff = r - nu - v^2/2. The
option on the capped aggregate then prices as an at-the-money call on a
unit-spot asset paying dividend yield y_eff.
"""

from __future__ import annotations

from dataclasses import dataclass

from .contracts import MarketParams, _require_positive
from .errors import NonpositiveVarianceError
from .moments import MomentSet

__all__ = [
    "CumulantSet",
    "EdgeworthParams",
    "aggregate",
    "cumulants_from_moments",
]


@dataclass(frozen=True)
class CumulantSet:
    """First three cumulants of a single month's capped log return."""

    iota1: float
    iota2: float
    iota3: float


def cumulants_from_moments(m: MomentSet) -> CumulantSet:
    """Convert raw moments to cumulants.

    iota1 = I1, iota2 = I2 - I1^2, iota3 = I3 - 3 I1 I2 + 2 I1^3.
    """
    i1, i2, i3 = m.i1, m.i2, m.i3
    return CumulantSet(
        iota1=i1,
        iota2=i2 - i1 * i1,
        iota3=i3 - 3.0 * i1 * i2 + 2.0 * i1 * i1 * i1,
    )


@dataclass(frozen=True)
class EdgeworthParams:
    """Parameters of the skew-corrected Gaussian law of the aggregate return.

    ``nu`` and ``v`` are the annualized drift and volatility of the Gaussian
    part, ``epsilon1`` the dimensionless skewness coefficient multiplying the
    H3 correction, ``y_eff`` the consistency carry rate, ``term`` the horizon
    in years.
    """

    nu: float
    v: float
    epsilon1: float
    y_eff: float
    term: float

    def __post_init__(self) -> None:
        if not self.v > 0.0:
            raise NonpositiveVarianceError(
                f"aggregate volatility must be positive, got v={self.v!r}"
            )
        _require_positive("term", self.term)


def aggregate(iotas: CumulantSet, market: MarketParams) -> EdgeworthParams:
    """Scale per-month cumulants to the contract horizon and parameterize.

    kappa_n = N * iota_n by independence across months; then

        nu = kappa1 / T,  v = sqrt(kappa2 / T),
        epsilon1 = kappa3 / (6 * kappa2^(3/2)),
        y_eff = r - nu - v^2 / 2.

    Raises:
        NonpositiveVarianceError: iota2 <= 0, e.g. from a noisy empirical
            estimate; no meaningful volatility exists then.
    """
    if not iotas.iota2 > 0.0:
        raise NonpositiveVarianceError(
            f"per-month variance must be positive, got iota2={iotas.iota2!r}"
        )
    n = market.periods
    t = market.term
    kappa1 = n * iotas.iota1
    kappa2 = n * iotas.iota2
    kappa3 = n * iotas.iota3
    nu = kappa1 / t
    v = (kappa2 / t) ** 0.5
    epsilon1 = kappa3 / (6.0 * kappa2**1.5)
    return EdgeworthParams(
        nu=nu,
        v=v,
        epsilon1=epsilon1,
        y_eff=market.rate - nu - 0.5 * v * v,
        term=t,
    )
