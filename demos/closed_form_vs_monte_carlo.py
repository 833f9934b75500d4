"""Price one contract every way the package knows how.

Values a one-year contract crediting the capped sum of twelve monthly
returns (cap 2.5%, optionally floored at -5%) with:

* the closed-form expansion at order 0 and order 1,
* Monte Carlo on the exact payoff (capped simple returns),
* Monte Carlo on the log-return convention the closed form targets.

The order-1 closed form truncates the expansion after the skewness term,
so it carries a small analytic bias (of order epsilon1 squared, a couple
percent of value at 20% volatility). At half a million paths the
log-convention Monte Carlo is sharp enough to resolve that bias rather
than hide it; the print-out reports the residual both in standard errors
and as a fraction of value. The further gap to the simple-return Monte
Carlo is the payoff-convention difference, not an approximation error.
"""

from monthlysum import (
    ContractSpec,
    MarketParams,
    McConfig,
    price_ms,
    simulate_ms,
    simulate_msln,
)

market = MarketParams(rate=0.03, dividend_yield=0.02, sigma=0.20, term=1.0, periods=12)
cfg = McConfig(paths=500_000, seed=42)

for contract in (ContractSpec(cap=0.025), ContractSpec(cap=0.025, floor=-0.05)):
    label = f"cap {contract.cap:.1%}"
    if contract.floor is not None:
        label += f", floor {contract.floor:.1%}"
    print(f"--- {label} ---")

    leading = price_ms(contract, market, order=0)
    full = price_ms(contract, market, order=1)
    print(f"closed form, order 0          {leading.total:12.6f}")
    print(f"closed form, order 1          {full.total:12.6f}   (correction {full.ms1:+.6f})")

    params = full.params
    print(
        f"aggregate law: nu={params.nu:+.4f}  v={params.v:.4f}  "
        f"eps1={params.epsilon1:+.5f}  y_eff={params.y_eff:+.4f}"
    )

    mc_log = simulate_msln(contract, market, cfg, threads=2)
    mc_simple = simulate_ms(contract, market, cfg, threads=2)
    gap = abs(full.total - mc_log.mean)
    print(f"MC, log-return convention     {mc_log.mean:12.6f}   +- {mc_log.stderr:.6f}")
    print(f"MC, simple-return contract    {mc_simple.mean:12.6f}   +- {mc_simple.stderr:.6f}")
    print(
        f"order 1 vs log-convention MC: {gap / mc_log.stderr:.2f} standard errors "
        f"({gap / mc_log.mean:.2%} of value, the truncated second-order term)"
    )
    print()
