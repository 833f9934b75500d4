"""Run one monthlysum benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload quote --seed 1 --seconds 20 --trace 0

Workloads: quote, simulate, validate, cli (see README.md). With --trace 0
the last line of stdout is a JSON object carrying the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of a separate traced run.
The line before it holds the run's context and the workload's own figures.
Exit codes: 0 when every output check passed, 1 when one failed, 2 when the
benchmark cannot run (for instance, no monthlysum sources under src/).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("quote", "simulate", "validate", "cli")

#: Set-up-only workers per run, half before the measuring worker and half
#: after it. One set-up takes over a second, so a single one, or the median
#: of a few, reads how much of it fell in the host's slow periods (see
#: fast_rate in workloads.py). These workers run under `-X importtime`, and
#: set-up is taken in short pieces at their fastest: each module's own
#: import time, and the rest of the set-up, each at its minimum over the
#: workers (`setup_time`).
SETUP_SAMPLES = 4
#: `-X importtime` probes per traced run.
IMPORT_SAMPLES = 3
#: Every child process is stopped by this many seconds after the start.
RUN_LIMIT_S = 170.0

IMPORT_MODULES = {
    "init.import_s": "monthlysum",
    "moments.import_s": "monthlysum.moments",
    "montecarlo.import_s": "monthlysum.montecarlo",
}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def _remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchmarkError(f"run exceeded {RUN_LIMIT_S:.0f} s")
    return left


def run_worker(args: argparse.Namespace, deadline: float, setup_only: bool) -> tuple[float, str]:
    """Start a worker; return (seconds until it was ready, its remaining output).

    A set-up-only worker runs under `-X importtime`, and the remaining
    output is its stderr; otherwise it is the worker's remaining stdout.
    """
    script = [str(HERE / "bench.py"), args.workload, str(args.seed), str(args.seconds), str(args.trace)]
    argv = [sys.executable, "-X", "importtime", *script, "--setup-only"] if setup_only else [sys.executable, *script]
    stderr = subprocess.PIPE if setup_only else None
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr, text=True, cwd=ROOT, env=_child_env())
    watchdog = threading.Timer(_remaining(deadline), proc.kill)
    watchdog.start()
    log: list[str] = []
    # the import log can outgrow the pipe, so it is drained while stdout is read
    drain = threading.Thread(target=lambda: log.append(proc.stderr.read())) if setup_only else None
    try:
        if drain is not None:
            drain.start()
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        if drain is not None:
            drain.join()
            proc.stderr.close()
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode} before finishing")
    return ready, "".join(log) if setup_only else rest


def _import_lines(log: str):
    """(module, self seconds, cumulative seconds) per line of an `-X importtime` log."""
    for line in log.splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
            yield fields[2].strip(), int(fields[0].split(":")[1]) / 1e6, int(fields[1]) / 1e6


def setup_time(samples: list[tuple[float, str]]) -> float:
    """Set-up seconds from (ready seconds, import log) samples, in pieces at their fastest.

    Each module's self import time at its minimum over the samples, plus
    the rest of the set-up (interpreter start, inputs, warm-up) at its
    minimum.
    """
    fastest: dict[str, float] = {}
    rest = []
    for ready, log in samples:
        own = {module: self_s for module, self_s, _ in _import_lines(log)}
        for module, self_s in own.items():
            fastest[module] = min(fastest.get(module, self_s), self_s)
        rest.append(ready - sum(own.values()))
    return min(rest) + sum(fastest.values())


def import_times(deadline: float) -> dict[str, float]:
    """Cumulative `-X importtime` seconds of the package and two of its modules."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import monthlysum"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=_child_env(),
        timeout=_remaining(deadline),
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"import monthlysum failed:\n{proc.stderr}")
    cumulative = {module: total for module, _, total in _import_lines(proc.stderr)}
    return {metric: cumulative[module] for metric, module in IMPORT_MODULES.items()}


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30)
    return proc.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one monthlysum benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "monthlysum" / "__init__.py").is_file():
        print(f"perfbench: no monthlysum sources under {SRC}", file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics a run prints, with their units
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]

    deadline = time.perf_counter() + RUN_LIMIT_S
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_sha": git_sha(),
    }
    try:
        if args.trace:
            probes = [import_times(deadline) for _ in range(IMPORT_SAMPLES)]
            imports = {k: statistics.median(p[k] for p in probes) for k in IMPORT_MODULES}
        else:
            setups = [run_worker(args, deadline, setup_only=True) for _ in range(SETUP_SAMPLES // 2)]
        ready, output = run_worker(args, deadline, setup_only=False)
        result = json.loads(output.strip().splitlines()[-1])
        if not args.trace:
            setups += [run_worker(args, deadline, setup_only=True) for _ in range(SETUP_SAMPLES - len(setups))]
    except (BenchmarkError, subprocess.TimeoutExpired, OSError, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    detail = result.pop("detail")
    detail["context"] = {**context, "versions": detail.pop("versions")}
    if args.trace:
        # a layer the workload does not reach reads 0
        measured = {**{m["name"]: 0.0 for m in listed}, **imports, **result["metrics"]}
        if args.workload == "cli":
            cold = measured.pop("cli.cold_p50_s")
            detail["cli_p50_s"] = {"value": cold, "unit": "s"}
            measured["cli.nonimport_s"] = cold - imports["init.import_s"]
            detail["import_share_of_price"] = imports["init.import_s"] / measured["cli.price_s"]
    else:
        measured = {"setup_s": setup_time(setups), **result["metrics"]}
        detail["setup_samples_s"] = [s for s, _ in setups] + [ready]
    result["metrics"] = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
