"""Raw moments of the capped (and optionally floored) monthly log return.

Under constant volatility one month's log return is Gaussian with mean
m = mu*dt and standard deviation s = sigma*sqrt(dt). Capping (and flooring)
the return produces a mixed law: the Gaussian body restricted to
(log_floor, log_cap) plus point masses at the bounds. This module computes
its first three raw moments

    I_n = floor_mass * log_floor^n
          + integral of x^n over the Gaussian body
          + cap_mass * log_cap^n

two ways: by closed form, and by adaptive quadrature on the standardized
variable. The quadrature is the module's ground truth. Both closed forms,
cap-only and cap-and-floor, come from one partial-moment kernel
P_n(u) = int_{-inf}^{u} (m + s*z)^n phi(z) dz, which gives all three orders
from one evaluation of Phi and phi per bound.

Each closed form exists in two variants. ``"corrected"`` (the default) is
the re-derived expression that agrees with quadrature to 1e-9 relative
across the validation grid. ``"printed"`` is the uncorrected transcription
the corrected forms replace; it is retained verbatim in
:mod:`monthlysum._printed` so the validation suite can demonstrate
numerically where it is defective (see :mod:`monthlysum.validation` and the
``--printed-formulas`` CLI flag).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import erfc

from .contracts import ContractSpec, MarketParams, _require_integer
from .errors import (
    DegenerateVolatilityError,
    NonpositiveVarianceError,
    QuadratureConvergenceError,
)

__all__ = [
    "CORRECTED",
    "PRINTED",
    "MomentSet",
    "capped_floored_moment_closed",
    "capped_moment_closed",
    "closed_form_moments",
    "moment_quadrature",
    "quadrature_moments",
    "standard_normal_cdf",
    "standard_normal_pdf",
]

CORRECTED = "corrected"
PRINTED = "printed"

#: Reject closed-form evaluation below this monthly volatility scale.
MIN_MONTHLY_VOL = 1e-12

#: Clip quadrature at +/- 12 standard deviations; the omitted tail mass is
#: below 1e-32, far under the 1e-12 relative tolerance.
TAIL_CLIP = 12.0

QUAD_REL_TOL = 1e-12
QUAD_SUBDIVISION_LIMIT = 200

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def standard_normal_cdf(z: float) -> float:
    """Standard normal CDF of a scalar, accurate to about 1e-15 absolute everywhere.

    Evaluated as 0.5*erfc(-z/sqrt(2)) so the far tails do not suffer the
    cancellation a 0.5*(1 + erf(...)) form would. +inf and -inf map to 1.0
    and 0.0. scipy's erfc is kept over math.erfc, which rounds some
    arguments differently and would move pinned output.
    """
    return 0.5 * float(erfc(-z / _SQRT2))


def standard_normal_pdf(z: float) -> float:
    """Standard normal density of a scalar, on math.exp, whose bits no numpy CPU dispatch moves."""
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


@dataclass(frozen=True)
class _TruncationGeometry:
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
        if self.i2 - self.i1 * self.i1 <= 0.0:
            raise NonpositiveVarianceError(
                f"moment set implies nonpositive variance: i1={self.i1!r}, i2={self.i2!r}"
            )


def _quad_split(fn, lo: float, hi: float, interior: tuple[float, ...]) -> float:
    """Adaptive Gauss-Kronrod integration, cut at interior sign changes of the integrand.

    Sign-definite pieces keep the adaptive scheme from chasing cancellation
    it cannot resolve at the requested tolerance. Each piece must converge.
    """
    from scipy import integrate  # deferred: 0.4 s of import only the quadrature oracle needs

    cuts = [lo] + [p for p in sorted(interior) if lo < p < hi] + [hi]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        result = integrate.quad(
            fn, a, b, epsabs=1e-16, epsrel=QUAD_REL_TOL, limit=QUAD_SUBDIVISION_LIMIT, full_output=1
        )
        if len(result) > 3:
            # quad appends a message (and possibly an explanation) on trouble
            raise QuadratureConvergenceError(
                f"quadrature on [{a:g}, {b:g}] did not converge: {result[3]}"
            )
        total += result[0]
    return total


def moment_quadrature(n: int, market: MarketParams, contract: ContractSpec) -> float:
    """n-th raw moment of the capped monthly log return by adaptive quadrature.

    Integrates (m + s*z)^n against the standard normal density between the
    standardized bounds (clipped at +/-12), then adds the bound atoms. This
    is the ground truth the closed forms are validated against.

    Args:
        n: moment order, 1, 2 or 3.
        market: market parameters.
        contract: cap and optional floor.

    Returns:
        I_n in units of log-return^n.

    Raises:
        QuadratureConvergenceError: tolerance not met within the budget.
        DegenerateVolatilityError: sigma*sqrt(dt) below the supported scale.
    """
    n = _require_integer("moment order", n, 1, 3)
    return _integrate_moment(n, contract, _truncation_geometry(market, contract))


def _integrate_moment(n: int, contract: ContractSpec, geo: _TruncationGeometry) -> float:
    """I_n by quadrature over the body between the standardized bounds, plus the atoms."""
    m, s = geo.m, geo.s
    z_hi = min(geo.c_tilde, TAIL_CLIP)
    z_lo = -TAIL_CLIP
    total = contract.log_cap**n * geo.cap_mass
    if contract.floor is not None:
        z_lo = max(geo.f_tilde, z_lo)
        total += contract.log_floor**n * geo.floor_mass

    if z_hi > z_lo:
        def integrand(z: float) -> float:
            x = m + s * z
            return x**n * standard_normal_pdf(z)

        # odd powers of x = m + s*z flip sign at z = -m/s
        interior = (-(m / s),) if n % 2 else ()
        total += _quad_split(integrand, z_lo, z_hi, interior)
    return total


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


def _closed_moments(
    market: MarketParams, contract: ContractSpec, variant: str
) -> tuple[float, float, float]:
    """Closed-form (I_1, I_2, I_3): the Gaussian body between the bounds plus their atoms.

    Cap-only: I_n = P_n(c~) + c^n cap_mass. With a floor:
    I_n = P_n(c~) - P_n(f~) + f^n floor_mass + c^n cap_mass. All three
    orders share one geometry, so Phi and phi are evaluated once per bound
    (floor_mass is Phi(f~)). Atom powers are repeated products: pow can
    round differently.
    """
    if _is_printed(variant):
        from . import _printed  # imported late: _printed itself imports this module

        printed = _printed.capped_moments if contract.floor is None else _printed.floored_moments
        return printed(market, contract)
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


def _closed_moment(n: int, market: MarketParams, contract: ContractSpec, variant: str) -> float:
    """Closed-form I_n: one order of the whole set."""
    n = _require_integer("moment order", n, 1, 3)
    return _closed_moments(market, contract, variant)[n - 1]


def capped_moment_closed(
    n: int, market: MarketParams, contract: ContractSpec, variant: str = CORRECTED
) -> float:
    """Closed-form I_n for a cap-only contract.

    The corrected form is P_n(c~) + c^n * cap_mass; the printed variant of
    I_2 carries exp(-c~^2) where the derivation requires exp(-c~^2/2).
    """
    if contract.floor is not None:
        raise ValueError("capped_moment_closed handles cap-only contracts; use capped_floored_moment_closed")
    return _closed_moment(n, market, contract, variant)


def capped_floored_moment_closed(
    n: int, market: MarketParams, contract: ContractSpec, variant: str = CORRECTED
) -> float:
    """Closed-form I_n for a contract carrying both a cap and a floor.

    The corrected form is P_n(c~) - P_n(f~) + f^n * floor_mass +
    c^n * cap_mass. The printed variant reproduces two defects verbatim: the
    floor abscissa written with a spurious sqrt(2*pi) in its denominator,
    and, in I_2, the cross term's exponents written without their 1/2.
    """
    if contract.floor is None:
        raise ValueError("capped_floored_moment_closed requires a floored contract")
    return _closed_moment(n, market, contract, variant)


def closed_form_moments(market: MarketParams, contract: ContractSpec) -> MomentSet:
    """All three corrected closed-form moments from one pass over the truncation geometry."""
    i1, i2, i3 = _closed_moments(market, contract, CORRECTED)
    return MomentSet(i1=i1, i2=i2, i3=i3, provenance="closed_form")


def quadrature_moments(market: MarketParams, contract: ContractSpec) -> MomentSet:
    """All three ground-truth moments by adaptive quadrature, on one geometry."""
    geo = _truncation_geometry(market, contract)
    i1, i2, i3 = (_integrate_moment(n, contract, geo) for n in (1, 2, 3))
    return MomentSet(i1=i1, i2=i2, i3=i3, provenance="quadrature")


def _is_printed(variant: str) -> bool:
    """Check a formula variant; True selects the printed transcription."""
    if variant not in (CORRECTED, PRINTED):
        raise ValueError(f"variant must be {CORRECTED!r} or {PRINTED!r}, got {variant!r}")
    return variant == PRINTED
