"""How far apart the two payoff conventions really sit.

The closed form prices the log-return convention: each month's log return
is capped and the payoff is max(exp(sum) - 1, 0). The contract as written
caps each month's simple return and pays max(sum, 0). This script measures
the gap between the two with common random numbers (both payoffs evaluated
on identical Gaussian draws), which removes almost all sampling noise from
the difference.

The gap is a property of the cap level. Tiny caps bind almost always, so
both conventions credit nearly the same bounded sum; huge caps rarely bind
and the aggregate return is small enough that log and simple returns track
each other. In between, at caps of a few percent, the conventions genuinely
part ways: at a 20% volatility the gap peaks around 3% of contract value
near a 2.5% cap. Reading the log-convention price as the contract price is
a bias of that size, not a Monte Carlo artifact.
"""

from monthlysum import ContractSpec, MarketParams, McConfig, simulate_ms, simulate_msln

market = MarketParams(rate=0.03, dividend_yield=0.02, sigma=0.20, term=1.0, periods=12)
cfg = McConfig(paths=1_000_000, seed=42)

print(f"{'cap':>6} {'simple-return MC':>17} {'log-return MC':>14} {'rel gap':>9}")
for cap in (0.005, 0.01, 0.02, 0.025, 0.03, 0.05, 0.075, 0.10):
    contract = ContractSpec(cap=cap)
    ms = simulate_ms(contract, market, cfg, threads=2)
    msln = simulate_msln(contract, market, cfg, threads=2)
    gap = abs(ms.mean - msln.mean) / ms.mean
    print(f"{cap:6.3f} {ms.mean:17.6f} {msln.mean:14.6f} {gap:8.2%}")
