"""The references the closed form is checked against, kept off the price path.

* The adaptive-quadrature oracle: the moments (``moment_quadrature``,
  ``quadrature_moments``) and the first-order correction
  (``ms_correction_quadrature``), each cut at its integrand's sign changes
  by ``_quad_split``. Each piece is one QUADPACK ``qagse`` call (Piessens
  et al., 1983) on scipy's compiled ``_quadpack`` extension, loaded at first
  use by :mod:`monthlysum._compiled` without ``scipy.integrate``, whose 0.5 s
  of import only ``quad`` needs.
* The printed transcriptions the corrected forms in :mod:`monthlysum.moments`
  and :mod:`monthlysum.pricer` replace, kept verbatim so the validation
  suite can show which are defective. ``_variant_moments`` is the one place
  that chooses between printed and corrected moments.
"""

from __future__ import annotations

import functools
import math

from ._compiled import _load
from .contracts import ContractSpec, MarketParams, _require_integer
from .edgeworth import EdgeworthParams
from .errors import QuadratureConvergenceError
from .moments import CORRECTED, PRINTED, MomentSet, _closed_moments, _truncation_geometry
from .moments import _INV_SQRT_2PI, _TruncationGeometry, standard_normal_cdf

#: Clip quadrature at +/- 12 standard deviations; the omitted tail mass is
#: below 1e-32, far under the 1e-12 relative tolerance.
TAIL_CLIP = 12.0

QUAD_REL_TOL = 1e-12
QUAD_SUBDIVISION_LIMIT = 200


#: QUADPACK's documented reason for each nonzero ``ier`` of ``qagse``
_QAGSE_REASONS = {
    1: f"maximum number of subdivisions ({QUAD_SUBDIVISION_LIMIT}) reached",
    2: "roundoff error prevents the requested tolerance",
    3: "extremely bad integrand behaviour in the interval",
    4: "roundoff error in the extrapolation table, which does not converge",
    5: "the integral is probably divergent or slowly convergent",
    6: "the input is invalid",
    7: "abnormal termination of the routine",
}


@functools.cache
def _quadpack():
    """scipy's compiled QUADPACK module, loaded without running ``scipy.integrate``."""
    return _load("integrate", ("_quadpack",))


def _qagse(fn, a: float, b: float):
    """(integral, error estimate, ier) of QUADPACK's ``qagse`` on [a, b].

    Called as ``scipy.integrate.quad(..., full_output=0)`` calls it at the
    oracle's tolerances; ier 0 means converged.
    """
    return _quadpack()._qagse(fn, a, b, (), 0, 1e-16, QUAD_REL_TOL, QUAD_SUBDIVISION_LIMIT)


def _quad_split(fn, lo: float, hi: float, interior: tuple[float, ...]) -> float:
    """Adaptive Gauss-Kronrod integration, cut at interior sign changes of the integrand.

    Sign-definite pieces keep the adaptive scheme from chasing cancellation
    it cannot resolve at the requested tolerance. Each piece must converge.
    """
    cuts = [lo] + [p for p in sorted(interior) if lo < p < hi] + [hi]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        value, _, ier = _qagse(fn, a, b)
        if ier:
            reason = _QAGSE_REASONS.get(ier, "unknown error")
            raise QuadratureConvergenceError(
                f"quadrature on [{a:g}, {b:g}] did not converge: {reason} (QUADPACK ier={ier})"
            )
        total += value
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
            # phi is standard_normal_pdf's exact expression, inlined: a call would cost a
            # quarter of each evaluation
            return (m + s * z) ** n * (_INV_SQRT_2PI * math.exp(-0.5 * z * z))

        # odd powers of x = m + s*z flip sign at z = -m/s
        interior = (-(m / s),) if n % 2 else ()
        total += _quad_split(integrand, z_lo, z_hi, interior)
    return total


def quadrature_moments(market: MarketParams, contract: ContractSpec) -> MomentSet:
    """All three ground-truth moments by adaptive quadrature, on one geometry."""
    geo = _truncation_geometry(market, contract)
    i1, i2, i3 = (_integrate_moment(n, contract, geo) for n in (1, 2, 3))
    return MomentSet(i1=i1, i2=i2, i3=i3, provenance="quadrature")


def ms_correction_quadrature(ep: EdgeworthParams, market: MarketParams) -> float:
    """First-order correction term by direct quadrature.

    Integrates (exp(a + b z) - 1) H3(z) phi(z) over z >= -a/b (the region
    where the payoff is in the money), scales by epsilon1 and discounts.
    Serves as the ground truth for ``pricer.ms_correction_closed``.

    The upper limit is clipped where the exp-tilted Gaussian factor is
    below 1e-55 of its peak, and the interval is split at the sign changes
    of H3 so the adaptive scheme never averages across a zero crossing.
    """
    a = ep.nu * ep.term
    b = ep.v * math.sqrt(ep.term)
    z0 = -a / b
    hi = max(z0, b) + 16.0

    def integrand(z: float) -> float:
        # H3(z) = z(z^2 - 3); phi inline, as in _integrate_moment
        try:
            return (math.exp(a + b * z) - 1.0) * (z * (z * z - 3.0)) * (_INV_SQRT_2PI * math.exp(-0.5 * z * z))
        except OverflowError:  # the tilt alone overflows; one exponent keeps the tilted density
            g = -0.5 * z * z
            return (math.exp(a + b * z + g) - math.exp(g)) * (z * (z * z - 3.0)) * _INV_SQRT_2PI

    root3 = math.sqrt(3.0)
    j = _quad_split(integrand, z0, hi, (-root3, 0.0, root3))
    return math.exp(-market.rate * ep.term) * ep.epsilon1 * j


def _is_printed(variant: str) -> bool:
    """Check a formula variant; True selects the printed transcription."""
    if variant not in (CORRECTED, PRINTED):
        raise ValueError(f"variant must be {CORRECTED!r} or {PRINTED!r}, got {variant!r}")
    return variant == PRINTED


def _variant_moments(
    market: MarketParams, contract: ContractSpec, variant: str
) -> tuple[float, float, float]:
    """Closed-form (I_1, I_2, I_3) of the chosen variant, corrected or printed.

    A tuple, not a MomentSet: a printed set can imply a nonpositive variance.
    """
    if not _is_printed(variant):
        return _closed_moments(market, contract)
    return (capped_moments if contract.floor is None else floored_moments)(market, contract)


def capped_moment_closed(
    n: int, market: MarketParams, contract: ContractSpec, variant: str = CORRECTED
) -> float:
    """Closed-form I_n for a cap-only contract.

    The corrected form is P_n(c~) + c^n * cap_mass; the printed variant of
    I_2 carries exp(-c~^2) where the derivation requires exp(-c~^2/2).
    """
    if contract.floor is not None:
        raise ValueError("capped_moment_closed handles cap-only contracts; use capped_floored_moment_closed")
    n = _require_integer("moment order", n, 1, 3)
    return _variant_moments(market, contract, variant)[n - 1]


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
    n = _require_integer("moment order", n, 1, 3)
    return _variant_moments(market, contract, variant)[n - 1]


def capped_moments(market: MarketParams, contract: ContractSpec) -> tuple[float, float, float]:
    """Printed cap-only (I_1, I_2, I_3).

    I_1 and I_3 are sound (they agree with the corrected forms to rounding);
    I_2 carries the exp(-c~^2) defect.
    """
    sigma, dt, mu = market.sigma, market.dt, market.mu
    ct = _truncation_geometry(market, contract).c_tilde
    c = contract.log_cap
    cdf_c = standard_normal_cdf(ct)
    ec = math.exp(-0.5 * ct * ct)
    i1 = (
        -sigma * math.sqrt(dt / (2.0 * math.pi)) * ec
        + mu * dt * cdf_c
        + c * (1.0 - cdf_c)
    )
    i2 = (
        sigma * sigma * dt * cdf_c
        # defective term: the exponent is printed without its 1/2
        - ct * _INV_SQRT_2PI * sigma * sigma * dt * math.exp(-ct * ct)
        - 2.0 * mu * sigma * dt * math.sqrt(dt / (2.0 * math.pi)) * ec
        + (mu * dt) ** 2 * cdf_c
        + c * c * (1.0 - cdf_c)
    )
    i3 = (
        -(2.0 + ct * ct) * ec * math.sqrt((sigma * sigma * dt) ** 3 / (2.0 * math.pi))
        + 3.0 * mu * (sigma * dt) ** 2 * (cdf_c - ct * ec / math.sqrt(2.0 * math.pi))
        - 3.0 * (mu * dt) ** 2 * sigma * math.sqrt(dt / (2.0 * math.pi)) * ec
        + (mu * dt) ** 3 * cdf_c
        + c * c * c * (1.0 - cdf_c)
    )
    return i1, i2, i3


def floored_moments(market: MarketParams, contract: ContractSpec) -> tuple[float, float, float]:
    """Printed cap-and-floor (I_1, I_2, I_3): every order is defective."""
    sigma, dt, mu = market.sigma, market.dt, market.mu
    m = mu * dt
    ct = _truncation_geometry(market, contract).c_tilde
    c, f = contract.log_cap, contract.log_floor
    # defective floor abscissa: sqrt(2*pi) does not belong in the denominator
    ft = (f - m) / math.sqrt(2.0 * math.pi * sigma * sigma * dt)
    cdf_c, cdf_f = standard_normal_cdf(ct), standard_normal_cdf(ft)
    ec, ef = math.exp(-0.5 * ct * ct), math.exp(-0.5 * ft * ft)
    body = cdf_c - cdf_f
    i1 = (
        sigma * (ef - ec) * math.sqrt(dt / (2.0 * math.pi))
        + mu * dt * body
        + f * cdf_f
        + c * (1.0 - cdf_c)
    )
    i2 = (
        sigma * sigma * dt * body
        - sigma * sigma * dt / math.sqrt(2.0 * math.pi) * (ct * ec - ft * ef)
        # defective cross term: exponents printed without their 1/2
        + 2.0 * mu * sigma * dt
        * (math.exp(-ft * ft) - math.exp(-ct * ct))
        * math.sqrt(dt / (2.0 * math.pi))
        + (mu * dt) ** 2 * body
        + c * c * (1.0 - cdf_c)
        + f * f * cdf_f
    )
    i3 = (
        -((2.0 + ct * ct) * ec - (2.0 + ft * ft) * ef)
        * math.sqrt((sigma * sigma * dt) ** 3 / (2.0 * math.pi))
        + 3.0 * mu * (sigma * dt) ** 2
        * (body - (ct * ec - ft * ef) / math.sqrt(2.0 * math.pi))
        - 3.0 * (mu * dt) ** 2 * sigma * (ec - ef) * math.sqrt(dt / (2.0 * math.pi))
        + (mu * dt) ** 3 * body
        + c * c * c * (1.0 - cdf_c)
        + f * f * f * cdf_f
    )
    return i1, i2, i3


def correction_exponent(nu: float, v: float, t: float) -> float:
    """Printed Gaussian exponent of the closed correction: -nu^2 T / v^2, missing its 1/2."""
    return -(nu * nu * t / (v * v))
