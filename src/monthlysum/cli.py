"""Command-line front end.

Four subcommands: ``price`` (closed-form valuation of one contract),
``mc`` (Monte Carlo valuation, both payoff conventions), ``sweep``
(closed-form plus optional MC along one parameter axis, CSV/JSON table)
and ``validate`` (the closed-form-versus-quadrature grid suite).

Conventions: rates, yields, vols, caps and floors are decimal fractions
(0.025, not 2.5%). Numbers in CSV output carry 12 significant digits with
'.' as the decimal separator and '\\n' line endings, so output bytes are
stable for fixed inputs and seed; JSON output carries full precision so a
parsed record re-prices to identical values on the correction route that
``price`` and ``sweep`` use (``_CORRECTION``).

An optional ``--config`` file of ``key = value`` lines is more flags: each
line is the flag ``--key=value``, placed before the command line's own
flags, so a flag beats the file and the file beats the built-in default.
The keys are the commands' long flags without ``--`` (less ``--config``,
``--printed-formulas`` and ``--help``). Keys the running command lacks are
ignored, so one file serves every command, and ``none`` or an empty value
keeps the default.

Exit codes: 0 success, 1 validation-suite failure, 2 bad input (an
input too large for memory included, such as ``--mc-paths 100000000000``;
a ``sweep`` of more than 10^6 rows is refused up front), 3 numerical
failure.

``--threads`` is accepted (it must be at least 1) and has no effect: Monte
Carlo blocks and sweep rows run serially, so output never depends on it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from .contracts import ContractSpec, MarketParams, _require_integer
from .montecarlo import _PAIR, McConfig, _run
from .pricer import price_ms
from .validation import (
    CORRECTED,
    PRINTED,
    FORMULA_IDS,
    run_validation,
    write_discrepancy_log,
)

__all__ = ["main"]

#: CLI name -> the ContractSpec or MarketParams field it sets, in record order.
_FIELDS = {"cap": "cap", "floor": "floor", "vol": "sigma", "rate": "rate",
           "div": "dividend_yield", "term": "term", "months": "periods"}

#: Record name -> the EdgeworthParams field it reports, in record order.
_PARAMS = {"nu": "nu", "v": "v", "eps1": "epsilon1", "y_eff": "y_eff"}

_MAX_SWEEP_ROWS = 10**6  # a longer sweep is refused before its axis values are built

#: The correction route of ``price`` and ``sweep``. Their stdout is pinned
#: byte for byte (tests/test_cli.py, perfbench/golden.json), and the closed
#: route, price_ms's default, moves the default JSON ``price`` by one ulp in
#: ms1 and total; the argument goes once the pins are regenerated.
_CORRECTION = "quadrature"


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


def _config_flags(path: str, command: str) -> list[str]:
    """The config file's lines as ``--key=value`` flags for this command.

    A later line for a key replaces an earlier one. Keys the command lacks
    are skipped whole (``--to`` would abbreviate validate's ``--tol``), and
    an empty or ``none`` value keeps the default. ``--key=value`` keeps a
    value that starts with '-' a value.
    """
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
    options = _COMMANDS[command]._option_string_actions
    return [
        f"--{key}={value}"
        for key, value in config.items()
        if f"--{key}" in options and value.lower() not in ("", "none")
    ]


def _boolean(text: str) -> bool:
    """An --antithetic value: true/yes/1 or false/no/0, in any case."""
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/yes/1 or false/no/0, got {text!r}")


def _inputs(values: dict) -> tuple[ContractSpec, MarketParams]:
    """ContractSpec and MarketParams from values keyed by CLI name."""
    fields = {field: values[name] for name, field in _FIELDS.items()}
    contract = ContractSpec(cap=fields.pop("cap"), floor=fields.pop("floor"))
    return contract, MarketParams(**fields)


def _write_records(records: dict | list[dict], ns: argparse.Namespace) -> None:
    """A record or a list of them: JSON as given, CSV as a header of the first record's keys."""
    if ns.format == "json":
        text = json.dumps(records, indent=2) + "\n"
    else:
        rows = [records] if isinstance(records, dict) else records
        lines = [",".join(rows[0])] + [",".join(_g12(v) for v in row.values()) for row in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, ns.out)


def cmd_price(ns: argparse.Namespace) -> int:
    contract, market = _inputs(vars(ns))
    breakdown = price_ms(contract, market, order=ns.order, correction=_CORRECTION)
    record = {name: getattr(ns, name) for name in _FIELDS}
    record.update(order=ns.order, ms0=breakdown.ms0, ms1=breakdown.ms1, total=breakdown.total)
    # a nonpositive cap is priced without params: null in JSON, empty in CSV
    params = breakdown.params
    record.update({name: getattr(params, field, None) for name, field in _PARAMS.items()})
    _write_records(record, ns)
    return 0


def cmd_mc(ns: argparse.Namespace) -> int:
    contract, market = _inputs(vars(ns))
    cfg = McConfig(paths=ns.mc_paths, seed=ns.seed, antithetic=ns.antithetic)
    ((ms, msln),) = _run(((contract, market),), cfg, _PAIR, ns.threads)
    record = {name: getattr(ns, name) for name in _FIELDS}
    record.update(
        paths=cfg.paths,
        seed=cfg.seed,
        antithetic=cfg.antithetic,
        mc_mean=ms.mean,
        mc_stderr=ms.stderr,
        msln_mc_mean=msln.mean,
        msln_mc_stderr=msln.stderr,
    )
    _write_records(record, ns)
    return 0


def _axis_values(start: float, stop: float, step: float) -> list[float]:
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError(
            f"sweep --from, --to and --step must be finite, got from={start!r}, to={stop!r}, "
            f"step={step!r}"
        )
    if not start < stop:
        raise ValueError(f"sweep range must have from < to, got from={start!r}, to={stop!r}")
    if not step > 0.0:
        raise ValueError(f"sweep step must be positive, got {step!r}")
    span = (stop - start) / step + 1e-9
    if not span < _MAX_SWEEP_ROWS:  # also an infinite span, which int() cannot take
        raise ValueError(f"sweep from={start!r} to={stop!r} step={step!r} gives more than "
                         f"{_MAX_SWEEP_ROWS} values")
    values = [start + k * step for k in range(int(span) + 1)]
    if len(values) < 2:
        raise ValueError(
            f"sweep needs at least two values, but from={start!r} to={stop!r} step={step!r} "
            f"gives {len(values)}"
        )
    return values


def _row_inputs(ns: argparse.Namespace, value: float) -> tuple[ContractSpec, MarketParams]:
    if ns.axis == "months":
        if abs(value - round(value)) > 1e-9:
            raise ValueError(f"months axis requires integer values, got {value!r}")
        value = int(round(value))
    return _inputs({**vars(ns), ns.axis: value})


def cmd_sweep(ns: argparse.Namespace) -> int:
    _inputs(vars(ns))  # bad base input fails even where the axis replaces it
    if ns.axis is None:
        raise ValueError("sweep requires --axis")
    start, stop, step = getattr(ns, "from"), ns.to, ns.step
    if start is None or stop is None or step is None:
        raise ValueError("sweep requires --from, --to and --step")
    values = _axis_values(start, stop, step)

    cfg = None
    if ns.mc_paths is not None:
        cfg = McConfig(paths=ns.mc_paths, seed=ns.seed, antithetic=ns.antithetic)

    # constructing every row's parameters up front surfaces bad input
    # before any pricing work starts
    rows_in = [_row_inputs(ns, v) for v in values]

    _require_integer("threads", ns.threads, 1)
    records = []
    for value, (row_contract, row_market) in zip(values, rows_in):
        breakdown = price_ms(row_contract, row_market, order=1, correction=_CORRECTION)
        records.append({"axis": ns.axis, "axis_value": value, "ms0": breakdown.ms0,
                        "ms0_plus_ms1": breakdown.total})
    if cfg is not None:
        # the rows share passes over the blocks, each block drawn once per pass
        for record, (ms, msln) in zip(records, _run(rows_in, cfg, _PAIR, ns.threads)):
            record.update(mc_mean=ms.mean, mc_stderr=ms.stderr, msln_mc_mean=msln.mean)
    _write_records(records, ns)
    return 0


def cmd_validate(ns: argparse.Namespace) -> int:
    variant = PRINTED if ns.printed_formulas else CORRECTED
    report = run_validation(variant=variant, tol=ns.tol)

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
    log_path = ns.discrepancy_log
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
    _emit("\n".join(lines) + "\n", ns.out)
    return 1 if report.failures else 0


def _add_market_flags(parser: argparse.ArgumentParser, fmt: str) -> None:
    add = parser.add_argument
    add("--cap", type=float, default=0.025,
        help="monthly return cap, decimal (default %(default)s)")
    add("--floor", type=float, help="monthly return floor, decimal (default none)")
    add("--vol", type=float, default=0.2, help="volatility sigma, decimal (default %(default)s)")
    add("--rate", type=float, default=0.03, help="risk-free rate (default %(default)s)")
    add("--div", type=float, default=0.02, help="dividend yield (default %(default)s)")
    add("--term", type=float, default=1.0, help="term in years (default %(default)s)")
    add("--months", type=int, default=12, help="number of monthly periods (default %(default)s)")
    add("--format", choices=("csv", "json"), default=fmt,
        help="output format (default %(default)s)")
    add("--config", help="key = value config file; flags take precedence")
    add("--out", help="output path (default stdout)")


def _add_mc_flags(parser: argparse.ArgumentParser, paths: int | None, paths_help: str) -> None:
    add = parser.add_argument
    add("--mc-paths", type=int, default=paths, help=paths_help)
    add("--seed", type=int, default=42, help="RNG seed, u64 (default %(default)s)")
    add("--antithetic", nargs="?", type=_boolean, const=True, default=False,
        help="antithetic variate pairing; bare flag means true (default %(default)s)")
    add("--threads", type=int, default=1,
        help="accepted for compatibility; has no effect (default %(default)s)")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads ``-1e-3``, like ``-0.001``, as a value.

    argparse takes only ``-<digits>[.<digits>]`` for a negative number and
    reads any other argument starting with '-' as a flag, so
    ``--floor -1e-3`` would lack its value. The subcommand parsers are of
    this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subcommand parsers by name."""
    parser = _Parser(
        prog="monthlysum",
        description="Capped monthly-return contract valuation: closed form, Monte Carlo, "
        "parameter sweeps and formula validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="closed-form price of one contract")
    _add_market_flags(p, "json")
    p.add_argument(
        "--order", type=int, default=1, help="expansion order, 0 or 1 (default %(default)s)"
    )
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("mc", help="Monte Carlo price, both payoff conventions")
    _add_market_flags(p, "json")
    _add_mc_flags(p, 100_000, "simulation paths (default %(default)s)")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("sweep", help="closed form (and optional MC) along one axis")
    _add_market_flags(p, "csv")
    _add_mc_flags(p, None, "add MC columns using this many paths")
    p.add_argument("--axis", choices=("vol", "cap", "floor", "rate", "div", "months"),
                   help="parameter to sweep")
    p.add_argument("--from", type=float, help="first axis value")
    p.add_argument("--to", type=float, help="last axis value (inclusive)")
    p.add_argument("--step", type=float, help="axis increment")
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
    return parser, sub.choices


#: Built once per process: nothing mutates it, so every main() call shares it.
_PARSER, _COMMANDS = build_parser()

#: Keys a config file may set: the commands' long flags, less the flag-only ones.
_CONFIG_KEYS = {
    opt[2:] for command in _COMMANDS.values() for opt in command._option_string_actions
    if opt.startswith("--")
} - {"config", "printed-formulas", "help"}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = _PARSER.parse_args(argv)
        if ns.config is not None:
            # the file's flags go first, so the command line's own win
            ns = _PARSER.parse_args([ns.command, *_config_flags(ns.config, ns.command), *argv[1:]])
        return ns.func(ns)
    except SystemExit as exc:  # argparse exits 2 on bad usage, 0 on --help
        code = exc.code
        return code if isinstance(code, int) else 2
    except (ValueError, OSError, MemoryError) as exc:  # an input too large to hold is bad input
        _diag(str(exc) or "out of memory")
        return 2
    except ArithmeticError as exc:
        _diag(f"numerical failure: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
