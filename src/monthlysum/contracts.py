"""Market parameters and contract terms for Monthly Sum options.

A Monthly Sum option pays max(sum of N capped (optionally floored) monthly
returns, 0) at expiry. ``MarketParams`` carries the constant-volatility
risk-neutral dynamics, ``ContractSpec`` the per-month cap and floor applied
to each return before summation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


def _require_finite(name: str, value: float) -> None:
    # a bool is an int, but True is not a rate or a cap
    if isinstance(value, bool) or not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _require_positive(name: str, value: float) -> None:
    # written as a range so that a NaN, which compares false, fails too
    if isinstance(value, bool) or not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _require_integer(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as a plain int if it is an integer in [lo, hi] (no ``hi``: no upper bound).

    A bool or a float is refused even when it equals one. A numpy integer is
    converted: the generator's uint64 arithmetic breaks on one.
    """
    # a plain int, the common case, skips the ABC check, which costs about half a microsecond
    if type(value) is not int and not isinstance(value, bool) and isinstance(value, numbers.Integral):
        value = int(value)
    if type(value) is int and lo <= value and (hi is None or value <= hi):
        return value
    bounds = f"of at least {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


@dataclass(frozen=True)
class MarketParams:
    """Constant-volatility market under the risk-neutral measure.

    Parameters
    ----------
    rate : float
        Annualized risk-free rate, continuous compounding.
    dividend_yield : float
        Annualized continuous dividend yield.
    sigma : float
        Annualized volatility, strictly positive.
    term : float
        Time to expiry in years, strictly positive.
    periods : int
        Number of return periods (months) in the term, at least 1.
    """

    rate: float
    dividend_yield: float
    sigma: float
    term: float
    periods: int

    def __post_init__(self) -> None:
        _require_finite("rate", self.rate)
        _require_finite("dividend_yield", self.dividend_yield)
        _require_positive("sigma", self.sigma)
        _require_positive("term", self.term)
        object.__setattr__(self, "periods", _require_integer("periods", self.periods, 1))

    @property
    def dt(self) -> float:
        """Length of one return period in years (term / periods)."""
        return self.term / self.periods

    @property
    def mu(self) -> float:
        """Risk-neutral drift of the monthly log return: rate - dividend_yield - sigma^2/2."""
        return self.rate - self.dividend_yield - 0.5 * self.sigma * self.sigma


@dataclass(frozen=True)
class ContractSpec:
    """Per-month cap and optional floor on the simple return.

    Both bounds act on the simple return S(t_m)/S(t_{m-1}) - 1; the derived
    ``log_cap`` and ``log_floor`` are the equivalent bounds on the log
    return, ln(1 + bound). A floor, when present, must sit strictly below
    the cap, and both must exceed -1 (a return of -100% is not boundable).
    """

    cap: float
    floor: float | None = None

    def __post_init__(self) -> None:
        _require_finite("cap", self.cap)
        if self.cap <= -1.0:
            raise ValueError(f"cap must exceed -1, got {self.cap}")
        if self.floor is not None:
            _require_finite("floor", self.floor)
            if self.floor <= -1.0:
                raise ValueError(f"floor must exceed -1, got {self.floor}")
            if self.floor >= self.cap:
                raise ValueError(
                    f"floor must be strictly below cap, got floor={self.floor}, cap={self.cap}"
                )

    @property
    def log_cap(self) -> float:
        """Cap on the monthly log return, ln(1 + cap)."""
        return math.log1p(self.cap)

    @property
    def log_floor(self) -> float | None:
        """Floor on the monthly log return, ln(1 + floor), or None."""
        if self.floor is None:
            return None
        return math.log1p(self.floor)
