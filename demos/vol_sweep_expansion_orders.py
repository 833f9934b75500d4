"""Where the skewness correction starts to matter.

Sweeps volatility from 5% to 40% for the default contract (cap 2.5%, one
year, monthly) and compares both expansion orders against a Monte Carlo
reference on the log-return convention. At low volatility the Gaussian
term alone is adequate; past roughly 15% the capped distribution is
skewed enough that the order-0 error grows to several percent while the
order-1 error stays inside the Monte Carlo noise.
"""

from monthlysum import ContractSpec, MarketParams, McConfig, price_ms, simulate_msln

contract = ContractSpec(cap=0.025)
cfg = McConfig(paths=200_000, seed=42)

print(f"{'sigma':>6} {'order 0':>10} {'order 1':>10} {'MC':>10} "
      f"{'err order 0':>12} {'err order 1':>12}")
for pct in range(5, 41, 5):
    sigma = pct / 100.0
    market = MarketParams(rate=0.03, dividend_yield=0.02, sigma=sigma, term=1.0, periods=12)
    breakdown = price_ms(contract, market)
    mc = simulate_msln(contract, market, cfg, threads=2)
    err0 = abs(breakdown.ms0 - mc.mean) / mc.mean
    err1 = abs(breakdown.total - mc.mean) / mc.mean
    print(
        f"{sigma:6.2f} {breakdown.ms0:10.6f} {breakdown.total:10.6f} {mc.mean:10.6f} "
        f"{err0:11.2%} {err1:11.2%}"
    )
