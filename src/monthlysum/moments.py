"""Raw moments of the capped (and optionally floored) monthly log return.

Under constant volatility one month's log return is Gaussian with mean
m = mu*dt and standard deviation s = sigma*sqrt(dt). Capping (and flooring)
the return produces a mixed law: the Gaussian body restricted to
(log_floor, log_cap) plus point masses at the bounds. This module computes
its first three raw moments

    I_n = floor_mass * log_floor^n
          + integral of x^n over the Gaussian body
          + cap_mass * log_cap^n

in closed form. Both contract kinds, cap-only and cap-and-floor, come from
one partial-moment kernel P_n(u) = int_{-inf}^{u} (m + s*z)^n phi(z) dz,
which gives all three orders from one evaluation of Phi and phi per bound.

These are the corrected forms, which agree with quadrature to 1e-9
relative across the validation grid. The quadrature oracle they are
checked against, and the printed transcriptions they replace, live in
:mod:`monthlysum._reference` (see :mod:`monthlysum.validation` and the
``--printed-formulas`` CLI flag).

Phi is a transcription of the Cephes erfc (S. L. Moshier, *Methods and
Programs for Mathematical Functions*, 1989) that ``scipy.special.erfc``
runs, so the module imports no scipy and yet returns scipy's bits;
``math.erfc`` is another algorithm and would move pinned prices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .contracts import ContractSpec, MarketParams
from .errors import DegenerateVolatilityError, NonpositiveVarianceError

__all__ = [
    "CORRECTED",
    "PRINTED",
    "MomentSet",
    "closed_form_moments",
    "standard_normal_cdf",
    "standard_normal_pdf",
]

#: Formula variants: the corrected closed forms of this module, and the
#: printed transcriptions in :mod:`monthlysum._reference`.
CORRECTED = "corrected"
PRINTED = "printed"

#: Reject closed-form evaluation below this monthly volatility scale.
MIN_MONTHLY_VOL = 1e-12

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
#: Cephes' MAXLOG, log(DBL_MAX): past it erfc's exp(-a^2) underflows.
_MAXLOG = 7.09782712893383996843e2


def standard_normal_cdf(z: float) -> float:
    """Standard normal CDF of a scalar, accurate to about 1e-15 absolute everywhere.

    Evaluated as 0.5*erfc(-z/sqrt(2)) so the far tails do not suffer the
    cancellation a 0.5*(1 + erf(...)) form would. +inf and -inf map to 1.0
    and 0.0, and NaN to NaN. erfc(a) is Cephes' ``ndtr.c`` step for step:
    1 - a*T(a^2)/U(a^2) for |a| < 1, exp(-a^2)*P(|a|)/Q(|a|) below 8 and
    R/S from 8 on, 0 once -a^2 < -MAXLOG, and 2 - erfc(|a|) for a < 0, each
    rational in Horner form as ``polevl``/``p1evl`` evaluate it. Every step
    is one IEEE operation on ``math.exp``, so the bits are scipy's wherever
    its build calls the same C library ``exp`` and fuses no multiply-add
    (x86-64); ``tests/test_moments.py`` checks them against scipy.
    """
    a = -float(z) / _SQRT2
    x = abs(a)
    if x < 1.0:
        t = a * a
        erf = a * ((((9.60497373987051638749e0 * t + 9.00260197203842689217e1) * t
            + 2.23200534594684319226e3) * t + 7.00332514112805075473e3) * t
            + 5.55923013010394962768e4) / (((((t + 3.35617141647503099647e1) * t
            + 5.21357949780152679795e2) * t + 4.59432382970980127987e3) * t
            + 2.26290000613890934246e4) * t + 4.92673942608635921086e4)
        return 0.5 * (1.0 - erf)
    t = -a * a
    if t < -_MAXLOG:
        return 1.0 if a < 0.0 else 0.0
    if x < 8.0:
        p = (((((((2.46196981473530512524e-10 * x + 5.64189564831068821977e-1) * x
            + 7.46321056442269912687e0) * x + 4.86371970985681366614e1) * x
            + 1.96520832956077098242e2) * x + 5.26445194995477358631e2) * x
            + 9.34528527171957607540e2) * x + 1.02755188689515710272e3) * x + 5.57535335369399327526e2
        q = (((((((x + 1.32281951154744992508e1) * x + 8.67072140885989742329e1) * x
            + 3.54937778887819891062e2) * x + 9.75708501743205489753e2) * x
            + 1.82390916687909736289e3) * x + 2.24633760818710981792e3) * x
            + 1.65666309194161350182e3) * x + 5.57535340817727675546e2
    else:
        p = ((((5.64189583547755073984e-1 * x + 1.27536670759978104416e0) * x
            + 5.01905042251180477414e0) * x + 6.16021097993053585195e0) * x
            + 7.40974269950448939160e0) * x + 2.97886665372100240670e0
        q = (((((x + 2.26052863220117276590e0) * x + 9.39603524938001434673e0) * x
            + 1.20489539808096656605e1) * x + 1.70814450747565897222e1) * x
            + 9.60896809063285878198e0) * x + 3.36907645100081516050e0
    y = math.exp(t) * p / q
    return 0.5 * (2.0 - y if a < 0.0 else y)


def standard_normal_pdf(z: float) -> float:
    """Standard normal density of a scalar, on math.exp, whose bits no numpy CPU dispatch moves.

    The quadrature integrands in :mod:`monthlysum._reference` inline this expression:
    a call would cost a quarter of each evaluation.
    """
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


class _TruncationGeometry(NamedTuple):
    """The contract standardized against the monthly Gaussian.

    ``m`` and ``s`` are the mean mu*dt and standard deviation sigma*sqrt(dt)
    of the uncapped monthly log return. ``c_tilde`` and ``f_tilde`` are
    (log bound - m)/s; ``cap_mass`` is the probability of the uncapped
    return exceeding the cap (all of it collapses onto the cap),
    ``floor_mass`` likewise below the floor.
    """

    m: float
    s: float
    c_tilde: float
    cap_mass: float
    f_tilde: float | None = None
    floor_mass: float | None = None


def _truncation_geometry(market: MarketParams, contract: ContractSpec) -> _TruncationGeometry:
    """Standardize the contract bounds against the monthly Gaussian, once per contract."""
    s = market.sigma * math.sqrt(market.dt)
    if s < MIN_MONTHLY_VOL:
        raise DegenerateVolatilityError(
            f"sigma*sqrt(dt) = {s:.3e} is below {MIN_MONTHLY_VOL:.0e}; "
            "closed forms are ill-conditioned, use the Monte Carlo engine"
        )
    m = market.mu * market.dt
    c_tilde = (contract.log_cap - m) / s
    cap_mass = standard_normal_cdf(-c_tilde)
    if contract.floor is None:
        return _TruncationGeometry(m, s, c_tilde, cap_mass)
    f_tilde = (contract.log_floor - m) / s
    return _TruncationGeometry(m, s, c_tilde, cap_mass, f_tilde, standard_normal_cdf(f_tilde))


@dataclass(frozen=True)
class MomentSet:
    """First three raw moments of the capped monthly log return.

    ``provenance`` records which route produced the values, ``"closed_form"``
    or ``"quadrature"``. The implied variance i2 - i1^2 must be positive.
    """

    i1: float
    i2: float
    i3: float
    provenance: str

    def __post_init__(self) -> None:
        if not (self.i2 - self.i1 * self.i1 > 0.0):  # so that a NaN, which compares false, fails
            raise NonpositiveVarianceError(
                f"moment set implies nonpositive variance: i1={self.i1!r}, i2={self.i2!r}"
            )


def _partial_moments(m: float, s: float, u: float, cdf: float) -> tuple[float, float, float]:
    """P_n(u) = integral over z < u of (m + s*z)^n phi(z) dz, for n = 1, 2, 3.

    Expands (m + s*z)^n and uses the partial Gaussian moments
    int_{-inf}^{u} z^k phi(z) dz for k = 0..3; ``cdf`` is Phi(u).
    """
    pdf = standard_normal_pdf(u)
    return (
        m * cdf - s * pdf,
        (m * m + s * s) * cdf - (s * s * u + 2.0 * m * s) * pdf,
        (m * m * m + 3.0 * m * s * s) * cdf
        - (3.0 * m * m * s + 3.0 * m * s * s * u + s * s * s * (u * u + 2.0)) * pdf,
    )


def _closed_moments(market: MarketParams, contract: ContractSpec) -> tuple[float, float, float]:
    """Closed-form (I_1, I_2, I_3): the Gaussian body between the bounds plus their atoms.

    Cap-only: I_n = P_n(c~) + c^n cap_mass. With a floor:
    I_n = P_n(c~) - P_n(f~) + f^n floor_mass + c^n cap_mass. All three
    orders share one geometry, so Phi and phi are evaluated once per bound
    (floor_mass is Phi(f~)). Atom powers are repeated products: pow can
    round differently.
    """
    geo = _truncation_geometry(market, contract)
    c, cm = contract.log_cap, geo.cap_mass
    body = _partial_moments(geo.m, geo.s, geo.c_tilde, standard_normal_cdf(geo.c_tilde))
    caps = (c * cm, c * c * cm, c * c * c * cm)
    if contract.floor is None:
        return tuple(p + a for p, a in zip(body, caps))
    f, fm = contract.log_floor, geo.floor_mass
    below = _partial_moments(geo.m, geo.s, geo.f_tilde, fm)
    floors = (f * fm, f * f * fm, f * f * f * fm)
    return tuple(p - q + b + a for p, q, b, a in zip(body, below, floors, caps))


def closed_form_moments(market: MarketParams, contract: ContractSpec) -> MomentSet:
    """All three corrected closed-form moments from one pass over the truncation geometry."""
    i1, i2, i3 = _closed_moments(market, contract)
    return MomentSet(i1=i1, i2=i2, i3=i3, provenance="closed_form")
