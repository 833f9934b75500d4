"""Record the seed commit's outputs that the benchmark checks against.

Usage, from the root of a checkout of the seed commit:

    PYTHONPATH=src python3 perfbench/make_golden.py

Writes perfbench/golden.json: the Monte Carlo probe results, the stdout of
each CLI command, and the printed-formula failure counts of the validation
grid. Run it again only when a change is meant to alter those outputs.
"""

from __future__ import annotations

import collections
import json

import workloads
from monthlysum import run_validation
from monthlysum.moments import PRINTED


def main() -> None:
    commands = workloads.cli_commands(nproc=1)
    cli_stdout = {}
    for kind, argv in commands.items():
        proc = workloads.run_cold(argv)
        proc.check_returncode()
        cli_stdout.setdefault(kind.split("-")[0], proc.stdout.decode("utf-8"))
    report = run_validation(variant=PRINTED)
    golden = {
        "simulate_probe": workloads.probe_results(nproc=1),
        "cli_stdout": cli_stdout,
        "validate_printed": {
            "failures": dict(collections.Counter(f.check for f in report.failures)),
            "discrepancies": len(report.discrepancies),
        },
    }
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
