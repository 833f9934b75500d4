"""Command-line front end.

Four subcommands: ``price`` (closed-form valuation of one contract),
``mc`` (Monte Carlo valuation, both payoff conventions), ``sweep``
(closed-form plus optional MC along one parameter axis, CSV/JSON table)
and ``validate`` (the closed-form-versus-quadrature grid suite).

Conventions: rates, yields, vols, caps and floors are decimal fractions
(0.025, not 2.5%). Numbers in CSV output carry 12 significant digits with
'.' as the decimal separator and '\\n' line endings, so output bytes are
stable for fixed inputs and seed; JSON output carries full precision so a
parsed record re-prices to identical values. Flags override an optional
``key = value`` config file, which overrides built-in defaults.

Exit codes: 0 success, 1 validation-suite failure, 2 bad input,
3 numerical failure.

``--threads`` is accepted (it must be at least 1) and has no effect: Monte
Carlo blocks and sweep rows run serially, so output never depends on it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .contracts import ContractSpec, MarketParams
from .montecarlo import McConfig, simulate_ms, simulate_msln
from .pricer import price_ms
from .validation import (
    CORRECTED,
    CORRECTION_REL_TOL,
    MOMENT_REL_TOL,
    PRINTED,
    FORMULA_IDS,
    run_validation,
    write_discrepancy_log,
)

__all__ = ["main"]

DEFAULTS = {
    "cap": 0.025,
    "floor": None,
    "vol": 0.20,
    "rate": 0.03,
    "div": 0.02,
    "term": 1.0,
    "months": 12,
    "order": 1,
    "seed": 42,
    "threads": 1,
    "antithetic": False,
}

#: Sweep axis -> the ContractSpec or MarketParams field it sets.
_AXIS_FIELDS = {"vol": "sigma", "cap": "cap", "floor": "floor", "rate": "rate",
                "div": "dividend_yield", "months": "periods"}
_AXES = tuple(_AXIS_FIELDS)

_CONFIG_KEYS = {
    "cap", "floor", "vol", "rate", "div", "term", "months", "order", "format",
    "out", "seed", "mc-paths", "antithetic", "threads", "axis", "from", "to",
    "step", "tol", "discrepancy-log",
}

_FLOAT_KEYS = {"cap", "floor", "vol", "rate", "div", "term", "from", "to", "step", "tol"}
_INT_KEYS = {"months", "order", "seed", "mc-paths", "threads"}
_BOOL_KEYS = {"antithetic"}


def _diag(message: str) -> None:
    """One-line diagnostic on stderr; colored only on a tty without NO_COLOR."""
    text = f"error: {message}"
    if sys.stderr.isatty() and not os.environ.get("NO_COLOR"):
        text = f"\x1b[31m{text}\x1b[0m"
    print(text, file=sys.stderr)


def _g12(value) -> str:
    """CSV cell: 12 significant digits, empty for absent optionals."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return f"{value:.12g}"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    config: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config: line {lineno} is not 'key = value': {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"config: unknown key {key!r} on line {lineno}")
            config[key] = value.strip()
    return config


def _parse_config_value(key: str, raw: str):
    try:
        if key in _FLOAT_KEYS:
            return None if raw.lower() in ("", "none") else float(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _BOOL_KEYS:
            lowered = raw.lower()
            if lowered in ("true", "yes", "1"):
                return True
            if lowered in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ValueError(f"config: invalid value for {key}: {raw!r}") from None


def _opt(ns: argparse.Namespace, config: dict[str, str], key: str, default=None):
    """Resolve one option: flag beats config beats built-in default."""
    attr = key.replace("-", "_")
    if key == "from":
        attr = "from_"
    value = getattr(ns, attr, None)
    if value is not None:
        return value
    if key in config:
        parsed = _parse_config_value(key, config[key])
        if parsed is not None:
            return parsed
    return default


def _resolve_market(ns: argparse.Namespace, config: dict[str, str]) -> MarketParams:
    return MarketParams(
        rate=_opt(ns, config, "rate", DEFAULTS["rate"]),
        dividend_yield=_opt(ns, config, "div", DEFAULTS["div"]),
        sigma=_opt(ns, config, "vol", DEFAULTS["vol"]),
        term=_opt(ns, config, "term", DEFAULTS["term"]),
        periods=_opt(ns, config, "months", DEFAULTS["months"]),
    )


def _resolve_contract(ns: argparse.Namespace, config: dict[str, str]) -> ContractSpec:
    return ContractSpec(
        cap=_opt(ns, config, "cap", DEFAULTS["cap"]),
        floor=_opt(ns, config, "floor", DEFAULTS["floor"]),
    )


def _record_text(record: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record, indent=2) + "\n"
    header = ",".join(record)
    row = ",".join(_g12(v) for v in record.values())
    return header + "\n" + row + "\n"


def _market_fields(contract: ContractSpec, market: MarketParams) -> dict:
    return {
        "cap": contract.cap,
        "floor": contract.floor,
        "vol": market.sigma,
        "rate": market.rate,
        "div": market.dividend_yield,
        "term": market.term,
        "months": market.periods,
    }


def cmd_price(ns: argparse.Namespace, config: dict[str, str]) -> int:
    market = _resolve_market(ns, config)
    contract = _resolve_contract(ns, config)
    order = _opt(ns, config, "order", DEFAULTS["order"])
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order!r}")
    fmt = _opt(ns, config, "format", "json")
    breakdown = price_ms(contract, market, order=order)
    record = _market_fields(contract, market)
    record.update(
        order=order,
        ms0=breakdown.ms0,
        ms1=breakdown.ms1,
        total=breakdown.total,
        nu=breakdown.params.nu,
        v=breakdown.params.v,
        eps1=breakdown.params.epsilon1,
        y_eff=breakdown.params.y_eff,
    )
    _emit(_record_text(record, fmt), _opt(ns, config, "out"))
    return 0


def cmd_mc(ns: argparse.Namespace, config: dict[str, str]) -> int:
    market = _resolve_market(ns, config)
    contract = _resolve_contract(ns, config)
    fmt = _opt(ns, config, "format", "json")
    cfg = McConfig(
        paths=_opt(ns, config, "mc-paths", 100_000),
        seed=_opt(ns, config, "seed", DEFAULTS["seed"]),
        antithetic=_opt(ns, config, "antithetic", DEFAULTS["antithetic"]),
    )
    threads = _opt(ns, config, "threads", DEFAULTS["threads"])
    ms = simulate_ms(contract, market, cfg, threads=threads)
    msln = simulate_msln(contract, market, cfg, threads=threads)
    record = _market_fields(contract, market)
    record.update(
        paths=cfg.paths,
        seed=cfg.seed,
        antithetic=cfg.antithetic,
        mc_mean=ms.mean,
        mc_stderr=ms.stderr,
        msln_mc_mean=msln.mean,
        msln_mc_stderr=msln.stderr,
    )
    _emit(_record_text(record, fmt), _opt(ns, config, "out"))
    return 0


def _axis_values(start: float, stop: float, step: float) -> list[float]:
    if not start < stop:
        raise ValueError(f"sweep range must have from < to, got from={start!r}, to={stop!r}")
    if not step > 0.0:
        raise ValueError(f"sweep step must be positive, got {step!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    values = [start + k * step for k in range(count)]
    if len(values) < 2:
        raise ValueError(
            f"sweep grid is empty after stepping from={start!r} to={stop!r} step={step!r}"
        )
    return values


def _apply_axis(
    axis: str, value: float, contract: ContractSpec, market: MarketParams
) -> tuple[ContractSpec, MarketParams]:
    if axis == "months":
        if abs(value - round(value)) > 1e-9:
            raise ValueError(f"months axis requires integer values, got {value!r}")
        value = int(round(value))
    field = _AXIS_FIELDS[axis]
    if field in ("cap", "floor"):
        return dataclasses.replace(contract, **{field: value}), market
    return contract, dataclasses.replace(market, **{field: value})


def cmd_sweep(ns: argparse.Namespace, config: dict[str, str]) -> int:
    market = _resolve_market(ns, config)
    contract = _resolve_contract(ns, config)
    fmt = _opt(ns, config, "format", "csv")
    axis = _opt(ns, config, "axis")
    if axis is None:
        raise ValueError("sweep requires --axis")
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {', '.join(_AXES)}; got {axis!r}")
    start = _opt(ns, config, "from")
    stop = _opt(ns, config, "to")
    step = _opt(ns, config, "step")
    if start is None or stop is None or step is None:
        raise ValueError("sweep requires --from, --to and --step")
    values = _axis_values(start, stop, step)

    mc_paths = _opt(ns, config, "mc-paths")
    threads = _opt(ns, config, "threads", DEFAULTS["threads"])
    cfg = None
    if mc_paths is not None:
        cfg = McConfig(
            paths=mc_paths,
            seed=_opt(ns, config, "seed", DEFAULTS["seed"]),
            antithetic=_opt(ns, config, "antithetic", DEFAULTS["antithetic"]),
        )

    # constructing every row's parameters up front surfaces bad input
    # before any pricing work starts
    rows_in = [_apply_axis(axis, v, contract, market) for v in values]

    def price_row(pair: tuple[ContractSpec, MarketParams]) -> dict:
        row_contract, row_market = pair
        breakdown = price_ms(row_contract, row_market, order=1)
        row = {"ms0": breakdown.ms0, "ms0_plus_ms1": breakdown.total}
        if cfg is not None:
            ms = simulate_ms(row_contract, row_market, cfg)
            msln = simulate_msln(row_contract, row_market, cfg)
            row.update(mc_mean=ms.mean, mc_stderr=ms.stderr, msln_mc_mean=msln.mean)
        return row

    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads!r}")
    rows = [price_row(pair) for pair in rows_in]

    columns = ["axis", "axis_value", "ms0", "ms0_plus_ms1"]
    if cfg is not None:
        columns += ["mc_mean", "mc_stderr", "msln_mc_mean"]
    records = [
        {"axis": axis, "axis_value": value, **row} for value, row in zip(values, rows)
    ]
    if fmt == "json":
        text = json.dumps(records, indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(_g12(record[c]) for c in columns) for record in records]
        text = "\n".join(lines) + "\n"
    _emit(text, _opt(ns, config, "out"))
    return 0


def cmd_validate(ns: argparse.Namespace, config: dict[str, str]) -> int:
    variant = PRINTED if ns.printed_formulas else CORRECTED
    tol = _opt(ns, config, "tol")
    report = run_validation(variant=variant, tol=tol)

    lines = [f"validation: {report.points} points, variant={report.variant}"]
    fail_counts: dict[str, int] = {}
    for failure in report.failures:
        fail_counts[failure.check] = fail_counts.get(failure.check, 0) + 1
    for formula in FORMULA_IDS:
        if formula not in report.max_rel_err:
            continue
        tol_here = report.correction_tol if formula == "ms1_closed" else report.moment_tol
        status = "FAIL" if fail_counts.get(formula) else "pass"
        lines.append(
            f"{formula:<12} max rel err {report.max_rel_err[formula]:.3e}"
            f"  tol {tol_here:.0e}  {status}"
        )
    if report.discrepancies:
        per_formula = {}
        for d in report.discrepancies:
            per_formula[d.formula] = per_formula.get(d.formula, 0) + 1
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(per_formula.items()))
        lines.append(f"discrepancy records: {len(report.discrepancies)} ({summary})")
    log_path = _opt(ns, config, "discrepancy-log")
    if log_path is not None:
        count = write_discrepancy_log(report.discrepancies, log_path)
        lines.append(f"discrepancy log: {count} records -> {log_path}")
    if report.failures:
        lines.append(f"result: FAIL ({len(report.failures)} failing checks)")
        for failure in report.failures[:10]:
            p = failure.point
            lines.append(
                f"  {failure.check} sigma={p.sigma:g} cap={p.cap:g} "
                f"floor={'-' if p.floor is None else f'{p.floor:g}'} rate={p.rate:g} "
                f"div={p.div_yield:g}: rel err {failure.rel_err:.3e}"
            )
        if len(report.failures) > 10:
            lines.append(f"  ... and {len(report.failures) - 10} more")
    else:
        lines.append("result: PASS")
    _emit("\n".join(lines) + "\n", _opt(ns, config, "out"))
    return 1 if report.failures else 0


def _add_market_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cap", type=float, help="monthly return cap, decimal (default 0.025)")
    parser.add_argument("--floor", type=float, help="monthly return floor, decimal (default none)")
    parser.add_argument("--vol", type=float, help="volatility sigma, decimal (default 0.20)")
    parser.add_argument("--rate", type=float, help="risk-free rate (default 0.03)")
    parser.add_argument("--div", type=float, help="dividend yield (default 0.02)")
    parser.add_argument("--term", type=float, help="term in years (default 1)")
    parser.add_argument("--months", type=int, help="number of monthly periods (default 12)")
    parser.add_argument("--config", help="key = value config file; flags take precedence")
    parser.add_argument("--out", help="output path (default stdout)")


def _add_mc_flags(parser: argparse.ArgumentParser, paths_help: str) -> None:
    parser.add_argument("--mc-paths", type=int, help=paths_help)
    parser.add_argument("--seed", type=int, help="RNG seed, u64 (default 42)")
    parser.add_argument(
        "--antithetic", action="store_const", const=True, help="antithetic variate pairing"
    )
    parser.add_argument(
        "--threads", type=int, help="accepted for compatibility; has no effect (default 1)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monthlysum",
        description="Capped monthly-return contract valuation: closed form, Monte Carlo, "
        "parameter sweeps and formula validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="closed-form price of one contract")
    _add_market_flags(p)
    p.add_argument("--order", type=int, help="expansion order, 0 or 1 (default 1)")
    p.add_argument("--format", choices=("csv", "json"), help="output format (default json)")
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("mc", help="Monte Carlo price, both payoff conventions")
    _add_market_flags(p)
    _add_mc_flags(p, "simulation paths (default 100000)")
    p.add_argument("--format", choices=("csv", "json"), help="output format (default json)")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("sweep", help="closed form (and optional MC) along one axis")
    _add_market_flags(p)
    _add_mc_flags(p, "add MC columns using this many paths")
    p.add_argument("--axis", choices=_AXES, help="parameter to sweep")
    p.add_argument("--from", dest="from_", type=float, help="first axis value")
    p.add_argument("--to", type=float, help="last axis value (inclusive)")
    p.add_argument("--step", type=float, help="axis increment")
    p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="closed-form vs quadrature grid suite")
    p.add_argument("--config", help="key = value config file; flags take precedence")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument(
        "--printed-formulas",
        action="store_true",
        help="check the uncorrected formula transcriptions instead (debug)",
    )
    p.add_argument("--tol", type=float, help="override both check tolerances")
    p.add_argument("--discrepancy-log", help="write printed-vs-corrected records here (JSONL)")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage, 0 on --help
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        config = _load_config(getattr(ns, "config", None))
        return ns.func(ns, config)
    except ValueError as exc:
        _diag(str(exc))
        return 2
    except OSError as exc:
        _diag(str(exc))
        return 2
    except ArithmeticError as exc:
        _diag(f"numerical failure: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
