"""Closed-form valuation of the monthly-sum contract.

The aggregate capped log return is approximated by the skew-corrected
Gaussian law of :mod:`monthlysum.edgeworth`. The payoff max(exp(X) - 1, 0)
then splits into two discounted pieces:

* the leading term, an at-the-money Black-Scholes call on a unit-spot asset
  with volatility v, rate r and dividend yield y_eff;
* a first-order skewness correction, epsilon1 times the payoff integrated
  against the H3 perturbation of the Gaussian density.

The correction integral has a closed form (``ms_correction_closed``),
which ``price_ms`` uses by default. Its oracle, a direct quadrature, and
its ``"printed"`` variant's exponent (missing its 1/2) live in
:mod:`monthlysum._reference`; the closed form and the quadrature must agree
to 1e-8 relative, and the validation suite enforces that across the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._reference import _is_printed, correction_exponent, ms_correction_quadrature
from .contracts import ContractSpec, MarketParams
from .contracts import _require_finite, _require_integer, _require_positive
from .edgeworth import EdgeworthParams, aggregate, cumulants_from_moments
from .moments import CORRECTED, closed_form_moments, standard_normal_cdf

__all__ = [
    "PriceBreakdown",
    "bs_call",
    "edgeworth_params",
    "ms_correction_closed",
    "ms_leading",
    "price_ms",
]


def bs_call(
    spot: float, strike: float, vol: float, rate: float, div_yield: float, term: float
) -> float:
    """Black-Scholes price of a European call on a dividend-paying asset."""
    for name, value in (("spot", spot), ("strike", strike), ("vol", vol), ("term", term)):
        _require_positive(name, value)
    _require_finite("rate", rate)
    _require_finite("div_yield", div_yield)
    sq = vol * math.sqrt(term)
    d1 = (math.log(spot / strike) + (rate - div_yield + 0.5 * vol * vol) * term) / sq
    d2 = d1 - sq
    try:
        carry = math.exp(-div_yield * term)
    except OverflowError:
        raise OverflowError(
            f"exp(-div_yield * term) overflows at exponent {-div_yield * term!r}: "
            "the closed form cannot evaluate this price in double precision"
        ) from None
    return spot * carry * standard_normal_cdf(d1) - strike * math.exp(
        -rate * term
    ) * standard_normal_cdf(d2)


def ms_leading(ep: EdgeworthParams, market: MarketParams) -> float:
    """Leading (Gaussian) term of the contract value.

    An at-the-money call on a unit-spot asset paying y_eff, which reduces to

        exp(-y_eff T) Phi((nu/v + v) sqrt(T)) - exp(-r T) Phi((nu/v) sqrt(T)).
    """
    return bs_call(1.0, 1.0, ep.v, market.rate, ep.y_eff, ep.term)


def ms_correction_closed(
    ep: EdgeworthParams, market: MarketParams, variant: str = CORRECTED
) -> float:
    """First-order correction term in closed form.

    With a = nu*T, b = v*sqrt(T) and z0 = -a/b the payoff integral against
    the H3 perturbation collapses to

        J = b (b + z0) phi(z0) + b^3 exp(a + b^2/2) Phi(b - z0)
          = T (v^2 - nu) phi(nu sqrt(T) / v)
            + (v^2 T)^(3/2) exp((nu + v^2/2) T) Phi((nu/v + v) sqrt(T))

    and the correction is exp(-r T) * epsilon1 * J. The printed variant
    writes the first term's Gaussian factor as exp(-nu^2 T / v^2), dropping
    the 1/2 the density requires.
    """
    printed = _is_printed(variant)
    t = ep.term
    nu, v = ep.nu, ep.v
    exponent = correction_exponent(nu, v, t) if printed else -0.5 * (nu * nu * t / (v * v))
    try:
        tilt = math.exp((nu + 0.5 * v * v) * t)
    except OverflowError:
        raise OverflowError(
            f"exp((nu + v^2/2) T) overflows at exponent {(nu + 0.5 * v * v) * t!r}: "
            "the closed form cannot evaluate this price in double precision"
        ) from None
    j = (
        t * (v * v - nu) * math.exp(exponent) / math.sqrt(2.0 * math.pi)
        + (v * v * t) ** 1.5
        * tilt
        * standard_normal_cdf((nu / v + v) * math.sqrt(t))
    )
    return math.exp(-market.rate * t) * ep.epsilon1 * j


def edgeworth_params(contract: ContractSpec, market: MarketParams) -> EdgeworthParams:
    """Edgeworth parameters of the aggregate law, from the closed-form moments.

    The quadrature moments of :mod:`monthlysum._reference` give the same law through
    ``aggregate(cumulants_from_moments(quadrature_moments(market, contract)), market)``.
    """
    return aggregate(cumulants_from_moments(closed_form_moments(market, contract)), market)


@dataclass(frozen=True)
class PriceBreakdown:
    """Value of the contract split into its expansion terms.

    ``ms0`` is the leading Gaussian term, ``ms1`` the first-order skewness
    correction (zero when ``order`` is 0), ``total`` their sum. ``params``
    carries the aggregate-law parameters the terms were computed from, and
    is None for a nonpositive cap, which is priced without them.
    """

    ms0: float
    ms1: float
    total: float
    order: int
    params: EdgeworthParams | None


def price_ms(
    contract: ContractSpec,
    market: MarketParams,
    order: int = 1,
    correction: str = "closed",
) -> PriceBreakdown:
    """Value the monthly-sum contract by cumulant expansion.

    Args:
        contract: cap and optional floor on the monthly return.
        market: rate, dividend yield, volatility, term and periods.
        order: the integer 0 for the Gaussian term alone, 1 to add the
            skewness correction; a bool or a float is rejected.
        correction: route for the order-1 term, ``"closed"`` (default) or
            ``"quadrature"``, the oracle in :mod:`monthlysum._reference`
            that the closed form is validated against, which the CLI still
            names to keep its pinned stdout.

    Returns:
        The price breakdown. When the cap is nonpositive every capped
        monthly return is nonpositive, the payoff is identically zero, and
        the exact price 0.0 is returned, with ``params`` None, before any
        moment is computed; the expansion would misprice this degenerate
        contract (its aggregate law places Gaussian mass above the
        all-months-capped maximum) and, where the capped law is a point
        mass to double precision, fail on a nonpositive variance.
    """
    order = _require_integer("order", order, 0, 1)
    if correction not in ("quadrature", "closed"):
        raise ValueError(f"correction must be 'quadrature' or 'closed', got {correction!r}")
    if contract.cap <= 0.0:
        return PriceBreakdown(ms0=0.0, ms1=0.0, total=0.0, order=order, params=None)
    ep = edgeworth_params(contract, market)
    ms0 = ms_leading(ep, market)
    if order == 0:
        return PriceBreakdown(ms0=ms0, ms1=0.0, total=ms0, order=0, params=ep)
    if correction == "quadrature":
        ms1 = ms_correction_quadrature(ep, market)
    else:
        ms1 = ms_correction_closed(ep, market)
    return PriceBreakdown(ms0=ms0, ms1=ms1, total=ms0 + ms1, order=1, params=ep)
