"""Benchmark worker: one fresh interpreter that runs one workload.

Usage: python3 perfbench/bench.py WORKLOAD SEED SECONDS TRACE [--setup-only]

It imports monthlysum, builds the workload's inputs and makes one untimed
warm-up call, then prints ``ready``; the parent times set-up up to that
line. With --setup-only it stops there. Otherwise it issues operations one
at a time until SECONDS have passed and every operation kind has run
enough to be measured, checks the outputs, and prints one JSON line of
results.

With TRACE 1 each operation runs twice, once bare and once inside a span
followed by its layer replay, so the run reports per-layer figures and the
tracing overhead. Spans stay in memory and are written to perfbench/traces/ at the
end.
"""

from __future__ import annotations

import array
import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy
import scipy

import workloads

TRACE_DIR = Path(__file__).resolve().parent / "traces"

#: Spans whose median duration per call is reported, by metric name.
CALL_SPANS = {
    "contracts.construct_us": "contracts.construct",
    "moments.closed_form_moments_us": "moments.closed_form_moments",
    "edgeworth.aggregate_us": "edgeworth.aggregate",
    "pricer.ms_leading_us": "pricer.ms_leading",
    "pricer.ms_correction_quadrature_us": "pricer.ms_correction_quadrature",
    "pricer.ms_correction_closed_us": "pricer.ms_correction_closed",
}
ORACLE_SPANS = ("moments.moment_quadrature", "pricer.ms_correction_quadrature")


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, op id, count]."""

    def __init__(self) -> None:
        self.spans: list[list] = []

    @contextmanager
    def span(self, name: str, op: int, parent: int | None, count: int | None = None):
        record = [name, time.perf_counter(), None, parent, op, count]
        self.spans.append(record)
        try:
            yield len(self.spans) - 1
        finally:
            record[2] = time.perf_counter()

    def durations(self) -> list[float]:
        return [end - start for _, start, end, *_ in self.spans]

    def self_times(self) -> list[float]:
        """Each span's duration minus the summed durations of its children."""
        durations = self.durations()
        own = list(durations)
        for record, duration in zip(self.spans, durations):
            if record[3] is not None:
                own[record[3]] -= duration
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        keys = ("name", "start", "end", "parent", "op", "count")
        with open(path, "w", encoding="utf-8") as fh:
            for index, record in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **dict(zip(keys, record))}) + "\n")


def _timed(call):
    start = time.perf_counter()
    try:
        result, error = call(), None
    except Exception as exc:  # a failed operation is counted, not fatal
        result, error = None, exc
    return time.perf_counter() - start, result, error


def _traced(tracer: Tracer, op: workloads.Op, op_id: int) -> int:
    """Run the call inside a span, then its layer replay; return the call's span."""
    with tracer.span(op.span, op_id, None) as call_span:
        try:
            op.call()
        except Exception:  # counted by the untraced run of the same operation
            pass
    try:
        if op.replay is not None:
            op.replay(tracer, op_id, call_span)
    except (ValueError, ArithmeticError):  # the replay stops where the call failed
        pass
    return call_span


def run(workload: workloads.Workload, seconds: float, tracer: Tracer | None) -> dict:
    """Issue operations until the time is up and every kind has run.

    In a traced run every operation also runs traced; which of the two runs
    first alternates, so that neither gains from caches the other filled.
    Untraced runs keep only compact timings, so that the benchmark's own
    memory stays out of the peak RSS.
    """
    times = {kind: array.array("d") for kind in workload.kinds}
    work: dict[str, int] = {}
    traced: list[tuple[str, float, int]] = []  # (kind, untraced s, call span) by op id
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    for op_id, op in enumerate(workload.ops()):
        if time.perf_counter() >= deadline and all(len(t) >= workload.min_ops for t in times.values()):
            break
        call_span = _traced(tracer, op, op_id) if tracer is not None and op_id % 2 else None
        elapsed, result, error = _timed(op.call)
        if tracer is not None and call_span is None:
            call_span = _traced(tracer, op, op_id)
        times[op.kind].append(elapsed)
        work[op.kind] = op.work
        attempted += 1
        failed += workload.judge(op, result, error) is not None
        if tracer is not None:
            traced.append((op.kind, elapsed, call_span))
    workload.finish()
    return {"times": times, "work": work, "attempted": attempted, "failed": failed, "traced": traced}


def end_to_end(workload: workloads.Workload, outcome: dict) -> dict:
    times = outcome["times"]
    return {
        "work_per_s": workloads.fast_rate(times, outcome["work"], workload.unit),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (outcome["attempted"] - outcome["failed"] - workload.invalid) / outcome["attempted"],
    }


def per_layer(workload: workloads.Workload, outcome: dict, tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics of the layers the workload reaches, and layer self times."""
    spans = tracer.spans
    duration = tracer.durations()
    own = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    children: dict[int, list[int]] = {}
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent is not None:
            children.setdefault(parent, []).append(i)

    def child_sum(parent: int, names: tuple[str, ...]) -> float:
        return sum(duration[c] for c in children.get(parent, []) if spans[c][0] in names)

    metrics = {
        key: 1e6 * statistics.median(duration[i] for i in by_name[name])
        for key, name in CALL_SPANS.items()
        if name in by_name
    }
    if "pricer.price_ms" in by_name:
        metrics["pricer.price_ms_self_us"] = 1e6 * statistics.median(own[i] for i in by_name["pricer.price_ms"])

    points = by_name.get("validation.validate_point", [])
    if points:
        point_ms = [1e3 * duration[p] for p in points]
        metrics["moments.quadrature_moments_us"] = 1e6 * statistics.median(
            child_sum(p, ("moments.moment_quadrature",)) for p in points
        )
        metrics["validation.point_ms_p50"] = statistics.median(point_ms)
        metrics["validation.point_ms_p99"] = workloads.quantile(point_ms, 0.99)
        metrics["validation.oracle_share"] = sum(child_sum(p, ORACLE_SPANS) for p in points) / sum(
            duration[p] for p in points
        )

    normals = by_name.get("rng.path_normals", [])
    if normals:
        metrics["rng.path_normals_per_s"] = sum(spans[i][5] for i in normals) / sum(duration[i] for i in normals)
    kind_of_op = [kind for kind, _, _ in outcome["traced"]]
    single_thread = [
        own[i]
        for name in ("montecarlo.simulate_ms", "montecarlo.simulate_msln")
        for i in by_name.get(name, [])
        if kind_of_op[spans[i][4]].endswith("-t1")
    ]
    if single_thread:
        metrics["montecarlo.simulate_self_s"] = statistics.median(single_thread)

    metrics.update(workload.layer_metrics(outcome["times"]))
    metrics["trace.overhead_us"] = 1e6 * statistics.fmean(
        duration[span] - untraced for _, untraced, span in outcome["traced"]
    )
    metrics["trace.spans"] = len(spans)

    layer_self: dict[str, float] = {}
    for (name, *_), t in zip(spans, own):
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + t
    total = sum(layer_self.values())
    return metrics, {
        "layer_self_s": layer_self,
        "layer_share": {layer: t / total for layer, t in layer_self.items()},
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    nproc = len(os.sched_getaffinity(0))
    workload = workloads.WORKLOADS[name](seed, nproc)
    workload.warm_up()
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0

    tracer = Tracer() if trace else None
    outcome = run(workload, seconds, tracer)
    detail = {
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
        "kinds": {k: len(t) for k, t in outcome["times"].items()},
        "checks": workload.checks,
        **workload.detail(outcome["times"]),
    }
    if trace:
        metrics, trace_detail = per_layer(workload, outcome, tracer)
        path = TRACE_DIR / f"{name}-seed{seed}.jsonl"
        tracer.write(path)
        detail.update(trace_detail, trace_file=str(path.relative_to(workloads.ROOT)))
    else:
        metrics = end_to_end(workload, outcome)
    detail["fail_ratio"] = workloads._metric((outcome["failed"] + workload.invalid) / outcome["attempted"], "ratio")
    result = {
        "correct": bool(workload.checks) and all(workload.checks.values()),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
        "detail": detail,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
