"""Command-line interface: schemas, precedence, exit codes, byte stability."""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys

import pytest

from monthlysum import ContractSpec, MarketParams, cli, price_ms
from monthlysum.cli import main
from monthlysum.errors import QuadratureConvergenceError

from checkout import GOLDEN, python, workloads


#: Exact stdout of `price` and `price --floor -0.05 --format csv`, as the
#: benchmark recorded them; a change to any closed-form bit shows here.
PRICE_STDOUT = GOLDEN["cli_stdout"]["price"]
PRICE_FLOOR_CSV_STDOUT = GOLDEN["cli_stdout"]["price_csv"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPrice:
    def test_json_record(self, capsys):
        code, out, _ = run_cli(capsys, "price")
        assert code == 0
        rec = json.loads(out)
        assert rec["cap"] == 0.025
        assert rec["floor"] is None
        assert rec["vol"] == 0.20
        assert rec["order"] == 1
        assert rec["total"] == rec["ms0"] + rec["ms1"]

    def test_json_round_trips_through_the_api(self, capsys):
        _, out, _ = run_cli(capsys, "price", "--vol", "0.3", "--cap", "0.05", "--floor", "-0.02")
        rec = json.loads(out)
        market = MarketParams(
            rate=rec["rate"],
            dividend_yield=rec["div"],
            sigma=rec["vol"],
            term=rec["term"],
            periods=rec["months"],
        )
        contract = ContractSpec(cap=rec["cap"], floor=rec["floor"])
        # price prints the quadrature correction route
        again = price_ms(contract, market, order=rec["order"], correction="quadrature")
        assert again.ms0 == rec["ms0"]
        assert again.ms1 == rec["ms1"]
        assert again.total == rec["total"]
        assert again.params.nu == rec["nu"]
        assert again.params.epsilon1 == rec["eps1"]

    def test_csv_schema(self, capsys):
        code, out, _ = run_cli(capsys, "price", "--format", "csv")
        assert code == 0
        header, row = out.splitlines()
        assert header == "cap,floor,vol,rate,div,term,months,order,ms0,ms1,total,nu,v,eps1,y_eff"
        cells = row.split(",")
        assert cells[0] == "0.025"
        assert cells[1] == ""  # floorless
        expected = price_ms(ContractSpec(cap=0.025), MarketParams(0.03, 0.02, 0.2, 1.0, 12))
        assert cells[10] == f"{expected.total:.12g}"

    def test_order_zero(self, capsys):
        code, out, _ = run_cli(capsys, "price", "--order", "0")
        rec = json.loads(out)
        assert code == 0
        assert rec["ms1"] == 0.0
        assert rec["total"] == rec["ms0"]

    def test_default_stdout_is_pinned(self, capsys):
        assert run_cli(capsys, "price") == (0, PRICE_STDOUT, "")

    def test_floored_csv_stdout_is_pinned(self, capsys):
        got = run_cli(capsys, "price", "--floor", "-0.05", "--format", "csv")
        assert got == (0, PRICE_FLOOR_CSV_STDOUT, "")

    def test_negative_exponent_is_a_value(self, capsys):
        # argparse alone reads "-1e-3" as a flag, leaving --floor without a value
        expected = run_cli(capsys, "price", "--floor", "-0.001")
        assert expected[0] == 0
        assert run_cli(capsys, "price", "--floor", "-1e-3") == expected
        assert run_cli(capsys, "price", "--floor=-1e-3") == expected

    def test_nonpositive_cap_prices_to_zero_json(self, capsys):
        code, out, _ = run_cli(capsys, "price", "--cap", "-0.5")
        assert code == 0
        rec = json.loads(out)
        assert (rec["ms0"], rec["ms1"], rec["total"]) == (0.0, 0.0, 0.0)
        assert all(rec[key] is None for key in ("nu", "v", "eps1", "y_eff"))

    def test_nonpositive_cap_prices_to_zero_csv(self, capsys):
        code, out, _ = run_cli(capsys, "price", "--cap", "-0.5", "--format", "csv")
        assert code == 0
        assert out == (
            "cap,floor,vol,rate,div,term,months,order,ms0,ms1,total,nu,v,eps1,y_eff\n"
            "-0.5,,0.2,0.03,0.02,1,12,1,0,0,0,,,,\n"
        )

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "price.json"
        code, out, _ = run_cli(capsys, "price", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["cap"] == 0.025


class TestMc:
    def test_json_record(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "--mc-paths", "10000", "--seed", "9")
        assert code == 0
        rec = json.loads(out)
        assert rec["paths"] == 10000
        assert rec["seed"] == 9
        assert rec["antithetic"] is False
        for key in ("mc_mean", "mc_stderr", "msln_mc_mean", "msln_mc_stderr"):
            assert isinstance(rec[key], float)

    def test_antithetic_flag(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "--mc-paths", "10000", "--antithetic")
        rec = json.loads(out)
        assert code == 0
        assert rec["antithetic"] is True

    def test_csv_booleans(self, capsys):
        _, out, _ = run_cli(
            capsys, "mc", "--mc-paths", "10000", "--antithetic", "--format", "csv"
        )
        header, row = out.splitlines()
        assert "antithetic" in header.split(",")
        assert "true" in row.split(",")


class TestSweep:
    def test_csv_schema_without_mc(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "vol", "--from", "0.1", "--to", "0.3", "--step", "0.05"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "axis,axis_value,ms0,ms0_plus_ms1"
        assert len(lines) == 6  # header + 5 axis values
        first = lines[1].split(",")
        assert first[0] == "vol"
        assert first[1] == "0.1"

    def test_csv_schema_with_mc(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--axis", "cap", "--from", "0.01", "--to", "0.03", "--step", "0.01",
            "--mc-paths", "4000",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "axis,axis_value,ms0,ms0_plus_ms1,mc_mean,mc_stderr,msln_mc_mean"
        assert len(lines) == 4

    def test_rows_match_direct_pricing(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--axis", "rate", "--from", "0.0", "--to", "0.04", "--step", "0.02"
        )
        rows = out.splitlines()[1:]
        for row in rows:
            axis, value, ms0, total = row.split(",")
            market = MarketParams(float(value), 0.02, 0.2, 1.0, 12)
            direct = price_ms(ContractSpec(cap=0.025), market)
            assert ms0 == f"{direct.ms0:.12g}"
            assert total == f"{direct.total:.12g}"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--axis", "months", "--from", "6", "--to", "12", "--step", "3",
            "--format", "json",
        )
        assert code == 0
        records = json.loads(out)
        assert [r["axis_value"] for r in records] == [6.0, 9.0, 12.0]

    def test_threads_do_not_change_output(self, capsys):
        argv = ("sweep", "--axis", "vol", "--from", "0.1", "--to", "0.4", "--step", "0.1")
        _, base, _ = run_cli(capsys, *argv)
        for threads in ("2", "8"):
            _, again, _ = run_cli(capsys, *argv, "--threads", threads)
            assert again == base

    def test_missing_axis_is_bad_input(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--from", "0.1", "--to", "0.2", "--step", "0.1")
        assert code == 2
        assert "axis" in err

    def test_reversed_range_is_bad_input(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--axis", "vol", "--from", "0.3", "--to", "0.1", "--step", "0.05"
        )
        assert code == 2
        assert "from < to" in err

    def test_single_value_grid_is_bad_input(self, capsys):
        # the step just overshoots the range, leaving only --from
        code, out, err = run_cli(
            capsys, "sweep", "--axis", "cap", "--from", "0.01", "--to", "0.02", "--step",
            "0.0100000001",
        )
        assert (code, out) == (2, "")
        assert "at least two values" in err
        assert "gives 1" in err

    @pytest.mark.parametrize("step", ("0", "-0.005"))
    def test_nonpositive_step_is_bad_input(self, capsys, step):
        code, out, err = run_cli(
            capsys, "sweep", "--axis", "cap", "--from", "0.01", "--to", "0.02", "--step", step
        )
        assert (code, out) == (2, "")
        assert "sweep step must be positive" in err

    @pytest.mark.parametrize("step", ("1e-320", "1e-13"))
    def test_too_fine_step_is_bad_input(self, step):
        # 1e-320 makes the row count infinite; 1e-13 asks for about 10^12 rows.
        # The address space is capped, so code that built the rows would fail
        # on a MemoryError rather than take the host's memory.
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        proc = python(
            "-m", "monthlysum", "sweep", "--axis", "cap", "--from", "0.001", "--to", "0.1",
            "--step", step, preexec_fn=cap_memory,
        )
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert b"more than 1000000 values" in proc.stderr

    def test_negative_exponent_bounds(self, capsys):
        decimal = run_cli(
            capsys, "sweep", "--axis", "floor", "--from", "-0.1", "--to", "-0.05", "--step",
            "0.025",
        )
        assert decimal[0] == 0
        exponent = run_cli(
            capsys, "sweep", "--axis", "floor", "--from", "-1e-1", "--to", "-5e-2", "--step",
            "2.5e-2",
        )
        assert exponent == decimal

    def test_non_integer_months_is_bad_input(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--axis", "months", "--from", "6", "--to", "12", "--step", "2.5"
        )
        assert code == 2
        assert "integer" in err

    @pytest.mark.parametrize(
        "start,stop,step",
        [
            ("0.1", "inf", "0.1"),
            ("-inf", "0.1", "0.1"),
            ("0.1", "0.3", "inf"),
            ("nan", "0.3", "0.1"),
            ("0.1", "nan", "0.1"),
            ("0.1", "0.3", "nan"),
        ],
    )
    def test_non_finite_bound_is_bad_input(self, capsys, start, stop, step):
        # an infinite bound would overflow the row count into a "numerical failure"
        code, out, err = run_cli(
            capsys, "sweep", "--axis", "vol", f"--from={start}", f"--to={stop}", f"--step={step}"
        )
        assert (code, out) == (2, "")
        assert "must be finite" in err


#: Each command's other options, with the key under test taken out.
CONFIG_BASE = {
    "price": {},
    "mc": {"mc-paths": "2000"},
    "sweep": {"axis": "cap", "from": "0.01", "to": "0.03", "step": "0.01", "mc-paths": "2000"},
}
#: A value away from each key's default (and the sweep axis's range).
CONFIG_VALUES = {
    "cap": "0.04", "floor": "-0.03", "vol": "0.3", "rate": "0.05", "div": "0.01",
    "term": "2", "months": "24", "order": "0", "format": "csv", "out": "result.txt",
    "seed": "7", "mc-paths": "3000", "antithetic": "true", "threads": "2",
    "axis": "rate", "from": "0.005", "to": "0.04", "step": "0.005",
}
SWEEP_VALUES = {**CONFIG_VALUES, "format": "json"}
MARKET_KEYS = ("cap", "floor", "vol", "rate", "div", "term", "months", "format", "out")
MC_KEYS = ("mc-paths", "seed", "antithetic", "threads")
COMMAND_KEYS = [
    *(("price", key) for key in (*MARKET_KEYS, "order")),
    *(("mc", key) for key in (*MARKET_KEYS, *MC_KEYS)),
    *(("sweep", key) for key in (*MARKET_KEYS, *MC_KEYS, "axis", "from", "to", "step")),
]


class TestConfigFile:
    def test_flag_beats_config_beats_default(self, capsys, tmp_path):
        cfg = tmp_path / "ms.conf"
        cfg.write_text("# comment line\nvol = 0.30\nrate = 0.05\n")
        _, out, _ = run_cli(capsys, "price", "--config", str(cfg), "--vol", "0.25")
        rec = json.loads(out)
        assert rec["vol"] == 0.25  # flag wins
        assert rec["rate"] == 0.05  # config beats default
        assert rec["div"] == 0.02  # default survives

    def test_unknown_key_is_bad_input(self, capsys, tmp_path):
        cfg = tmp_path / "ms.conf"
        cfg.write_text("volatility = 0.30\n")
        code, _, err = run_cli(capsys, "price", "--config", str(cfg))
        assert code == 2
        assert "volatility" in err

    def test_malformed_line_is_bad_input(self, capsys, tmp_path):
        cfg = tmp_path / "ms.conf"
        cfg.write_text("vol 0.30\n")
        code, _, err = run_cli(capsys, "price", "--config", str(cfg))
        assert code == 2
        assert "line 1" in err

    def test_missing_file_is_bad_input(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "price", "--config", str(tmp_path / "absent.conf"))
        assert code == 2
        assert "absent.conf" in err

    @pytest.mark.parametrize("command,key", COMMAND_KEYS)
    def test_config_line_matches_flag(self, capsys, tmp_path, monkeypatch, command, key):
        monkeypatch.chdir(tmp_path)
        value = (SWEEP_VALUES if command == "sweep" else CONFIG_VALUES)[key]
        base = [arg for k, v in CONFIG_BASE[command].items() if k != key for arg in (f"--{k}", v)]
        flag = ["--antithetic"] if key == "antithetic" else [f"--{key}", value]
        cfg = tmp_path / "ms.conf"
        cfg.write_text(f"{key} = {value}\n")

        results = []
        for extra in (flag, ["--config", str(cfg)]):
            code, out, err = run_cli(capsys, command, *base, *extra)
            assert code == 0, err
            written = tmp_path / CONFIG_VALUES["out"]
            results.append((out, written.read_bytes() if written.exists() else None))
            written.unlink(missing_ok=True)
        assert results[0] == results[1]
        # --threads has no effect on output, and the swept axis replaces its flag
        if key not in ("threads", CONFIG_BASE[command].get("axis")):
            _, default_out, _ = run_cli(capsys, command, *base)
            assert results[0] != (default_out, None)

    @pytest.mark.parametrize("key", ["config", "printed-formulas", "help"])
    def test_flag_only_keys_are_unknown(self, capsys, tmp_path, key):
        cfg = tmp_path / "ms.conf"
        cfg.write_text(f"{key} = true\n")
        code, _, err = run_cli(capsys, "validate", "--config", str(cfg))
        assert code == 2
        assert key in err

    @pytest.mark.parametrize(
        "command,line,option,value",
        [
            ("price", "format = xml", "--format", "xml"),
            ("sweep", "axis = strike", "--axis", "strike"),
            ("price", "months = 12.5", "--months", "12.5"),
            ("mc", "antithetic = maybe", "--antithetic", "maybe"),
        ],
    )
    def test_value_is_checked_as_its_flag_is(self, capsys, tmp_path, command, line, option, value):
        cfg = tmp_path / "ms.conf"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert option in err
        assert repr(value) in err

    def test_other_commands_keys_are_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "ms.conf"
        cfg.write_text(
            "axis = cap\nmc-paths = 5000\nthreads = 4\ntol = 1e4\n"
            "discrepancy-log = defects.jsonl\n"
        )
        _, plain, _ = run_cli(capsys, "price")
        code, out, _ = run_cli(capsys, "price", "--config", str(cfg))
        assert code == 0
        assert out == plain

    def test_key_is_not_read_as_a_flag_prefix(self, capsys, tmp_path):
        # argparse would take `--to` as an abbreviation of validate's --tol
        cfg = tmp_path / "ms.conf"
        cfg.write_text("to = 1e4\n")
        code, out, _ = run_cli(capsys, "validate", "--printed-formulas", "--config", str(cfg))
        assert code == 1
        assert "result: FAIL" in out

    def test_value_starting_with_dash_is_a_value(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "ms.conf"
        cfg.write_text("out = --help\nfloor = -0.05\n")
        code, out, _ = run_cli(capsys, "price", "--config", str(cfg))
        assert code == 0
        assert out == ""
        assert json.loads((tmp_path / "--help").read_text())["floor"] == -0.05

    def test_none_and_false_keep_the_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "ms.conf"
        cfg.write_text("vol = none\nantithetic = false\nseed =\nmc-paths = 2000\n")
        code, out, _ = run_cli(capsys, "mc", "--config", str(cfg))
        rec = json.loads(out)
        assert code == 0
        assert rec["vol"] == 0.2
        assert rec["antithetic"] is False
        assert rec["seed"] == 42

    def test_config_keys_are_the_long_flags(self):
        assert cli._CONFIG_KEYS == {
            "cap", "floor", "vol", "rate", "div", "term", "months", "order", "format",
            "out", "seed", "mc-paths", "antithetic", "threads", "axis", "from", "to",
            "step", "tol", "discrepancy-log",
        }

    def test_config_does_not_leak_into_the_next_call(self, capsys, tmp_path):
        # every main() call shares one parser; a config run must leave it as built
        cfg = tmp_path / "ms.conf"
        cfg.write_text("vol = 0.30\nrate = 0.05\nformat = csv\n")
        code, out, _ = run_cli(capsys, "price", "--config", str(cfg))
        assert code == 0
        assert out != PRICE_STDOUT
        assert run_cli(capsys, "price") == (0, PRICE_STDOUT, "")

    def test_main_builds_no_parser(self, capsys, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cfg = tmp_path / "ms.conf"
        cfg.write_text("vol = 0.30\nmc-paths = 2000\n")
        for argv in (["price"], ["price", "--config", str(cfg)], ["mc", "--config", str(cfg)]):
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, err
        assert built == []

    def test_boolean_and_none_values(self, capsys, tmp_path):
        cfg = tmp_path / "ms.conf"
        cfg.write_text("antithetic = true\nfloor = none\nmc-paths = 8000\n")
        _, out, _ = run_cli(capsys, "mc", "--config", str(cfg))
        rec = json.loads(out)
        assert rec["antithetic"] is True
        assert rec["floor"] is None
        assert rec["paths"] == 8000


class TestExitCodes:
    def test_bad_contract_is_two(self, capsys):
        for floor in ("0.05", "-1"):
            code, _, err = run_cli(capsys, "price", "--floor", floor, "--cap", "0.025")
            assert code == 2
            assert "floor" in err

    def test_unknown_flag_is_two(self, capsys):
        assert main(["price", "--strike", "1.0"]) == 2

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_cancelled_variance_is_three(self, capsys):
        # I2 - I1^2 cancels to <= 0 at this volatility: a numerical failure,
        # not bad input
        code, _, err = run_cli(capsys, "price", "--vol", "1e-11")
        assert code == 3
        assert "variance" in err

    def test_overflowing_volatility_is_three(self, capsys):
        # sigma^2 overflows; the NaN variance is refused where the moments are
        # built, as a numerical failure with nothing on stdout
        code, out, err = run_cli(capsys, "price", "--vol", "1e200")
        assert (code, out) == (3, "")
        assert "moment set implies nonpositive variance" in err

    def test_overflowing_tilt_prices_as_the_library_does(self, capsys):
        # exp(a + b z) overflows in the quadrature correction's tail, where
        # the tilted density exp(a + b z - z^2 / 2) is finite: exit 0, and the
        # closed route's price, ms1 -0.0
        argv = ("--vol", "20", "--term", "300", "--months", "5000")
        code, out, err = run_cli(capsys, "price", *argv)
        assert (code, err) == (0, "")
        record = json.loads(out)
        want = price_ms(ContractSpec(cap=0.025), MarketParams(0.03, 0.02, 20.0, 300.0, 5000))
        assert [record["ms1"].hex(), record["total"].hex()] == [want.ms1.hex(), want.total.hex()]
        assert record["ms1"].hex() == "-0x0.0p+0"

    def test_unconverged_overflowing_tilt_is_three_with_its_reason(self, capsys):
        # past the overflow the quadrature runs, and QUADPACK reports why it stops
        argv = ("--vol", "10", "--cap", "30", "--term", "100", "--months", "1000", "--rate", "-0.5")
        code, out, err = run_cli(capsys, "price", *argv)
        assert (code, out) == (3, "")
        assert "roundoff error prevents the requested tolerance (QUADPACK ier=2)" in err

    def test_overflowing_leading_term_is_three_and_named(self, capsys):
        # y_eff = -1086.87 over 4.49 years: exp(-y_eff T) in bs_call overflows
        argv = (
            "--cap", "7.86055554030477", "--floor", "3.3804638883787863",
            "--vol", "6.709879489006331", "--term", "4.494086696455761", "--months", "3308",
            "--rate", "0.4274809464100172", "--div", "0.10927073209737703",
        )
        code, out, err = run_cli(capsys, "price", *argv)
        assert (code, out) == (3, "")
        assert "numerical failure: exp(-div_yield * term) overflows at exponent 4884.5" in err
        assert "the closed form cannot evaluate this price in double precision" in err

    def test_numerical_failure_is_three(self, capsys, monkeypatch):
        import monthlysum.cli as cli

        def explode(variant, tol):
            raise QuadratureConvergenceError("synthetic convergence failure")

        monkeypatch.setattr(cli, "run_validation", explode)
        code, _, err = run_cli(capsys, "validate")
        assert code == 3
        assert "numerical failure" in err

    def test_out_of_memory_is_two(self, capsys, monkeypatch):
        # an input too large to hold is bad input, not a validation failure;
        # the engine is replaced, so nothing is allocated
        def exhaust(*args):
            raise MemoryError("Unable to allocate 1.46 TiB for an array")

        monkeypatch.setattr(cli, "_run", exhaust)
        code, out, err = run_cli(capsys, "mc", "--mc-paths", "100000000000")
        assert (code, out) == (2, "")
        assert err == "error: Unable to allocate 1.46 TiB for an array\n"

    def test_unwritable_output_is_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "price", "--out", str(tmp_path / "no" / "such" / "dir" / "x.json")
        )
        assert code == 2
        assert err.startswith("error:")


class TestDiagnostics:
    def test_color_only_on_tty_without_no_color(self, monkeypatch):
        from monthlysum.cli import _diag

        class Tty(io.StringIO):
            def isatty(self):
                return True

        monkeypatch.delenv("NO_COLOR", raising=False)
        colored = Tty()
        monkeypatch.setattr(sys, "stderr", colored)
        _diag("boom")
        assert colored.getvalue().startswith("\x1b[31m")

        monkeypatch.setenv("NO_COLOR", "1")
        plain = Tty()
        monkeypatch.setattr(sys, "stderr", plain)
        _diag("boom")
        assert "\x1b[" not in plain.getvalue()
        assert plain.getvalue() == "error: boom\n"


class TestByteStability:
    def test_repeat_run_is_byte_identical(self):
        a = python("-m", "monthlysum", "price", "--format", "csv")
        b = python("-m", "monthlysum", "price", "--format", "csv")
        assert a.returncode == 0, a.stderr.decode()
        assert a.stdout
        assert a.stdout == b.stdout


class TestGoldenOutputs:
    # the benchmark's cli workload runs these commands and checks the same bytes
    COMMANDS = workloads().cli_commands(os.cpu_count() or 1)

    @pytest.mark.parametrize("kind", COMMANDS)
    def test_benchmark_commands_print_the_recorded_stdout(self, capsys, kind):
        code, out, _ = run_cli(capsys, *self.COMMANDS[kind])
        assert code == 0
        assert out == GOLDEN["cli_stdout"][kind.split("-")[0]]


class TestValidateCommand:
    def test_corrected_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        assert "result: PASS" in out
        assert "variant=corrected" in out
        for formula in ("I1_cap", "I2_capfloor", "ms1_closed"):
            assert formula in out

    def test_printed_suite_fails_and_logs(self, capsys, tmp_path):
        log = tmp_path / "defects.jsonl"
        code, out, _ = run_cli(
            capsys, "validate", "--printed-formulas", "--discrepancy-log", str(log)
        )
        assert code == 1
        assert "result: FAIL" in out
        assert "variant=printed" in out
        # sound printed formulas still pass against quadrature
        i1_line = next(line for line in out.splitlines() if line.startswith("I1_cap "))
        assert i1_line.rstrip().endswith("pass")
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert records
        formulas = {r["formula"] for r in records}
        assert formulas == {"I1_capfloor", "I2_cap", "I2_capfloor", "I3_capfloor", "ms1_closed"}

    def test_loose_tolerance_passes_printed(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--printed-formulas", "--tol", "1e4")
        assert code == 0
        assert "result: PASS" in out

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, tol):
        # err > nan is never true, so a NaN tolerance would pass every check
        code, out, err = run_cli(capsys, "validate", "--printed-formulas", f"--tol={tol}")
        assert (code, out) == (2, "")
        assert "tol must be positive and finite" in err
