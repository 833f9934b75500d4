"""Verbatim uncorrected transcriptions of the closed forms.

The corrected formulas in :mod:`monthlysum.moments` and
:mod:`monthlysum.pricer` replaced these. They are kept only so the
validation suite can show numerically which of them are defective and by
how much; the public functions reach them through ``variant="printed"``.
"""

from __future__ import annotations

import math

from .contracts import ContractSpec, MarketParams
from .moments import _INV_SQRT_2PI, _truncation_geometry, standard_normal_cdf


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
