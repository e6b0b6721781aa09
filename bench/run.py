#!/usr/bin/env python3
"""gqt benchmark: one closed-loop client, golden-checked ops, one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the checkout root.  Workloads (see BENCHMARK.json for why each
exists): cli-cold, fuzz, model-docs, quantum-build.  The client sends
the next op only when the previous one has finished, cycling through
inputs drawn from --seed, for --seconds seconds (and at least MIN_OPS ops).

With --trace 0 the last stdout line holds the end-to-end metrics:
ops_per_s, op_ms_p50, op_ms_p90, ok_ratio, setup_s and peak_rss_mb.
Times are scaled to a reference host speed by a gauge timed between
ops (speed.py): on a shared machine the speed of the same code swings by
a third or more between runs, and the scaled figures are what recurs
from run to run.  Each input's latency is the median of its scaled
repeats in the run; the first three metrics are taken over those
per-input figures.
With --trace 1 it holds the per-layer metrics instead: a fixed count pass
(the same inputs whatever the seed, so counts repeat exactly) and then,
for --seconds, each input run once untraced and once traced, which gives
per-call medians, layer shares and the tracing overhead.  The spans are
written to bench/out/trace-<workload>-<seed>.json.

The line before the result records the run's environment and, for
--trace 0, the median gauge reading.  The exit code is nonzero, and no
result is printed, when set-up fails, for instance when the checkout has
no src/gqt.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata

import speed
import tracing
import workloads

# Set-ups per run in fresh interpreters, besides the run's own; setup_s
# is the median of all of them.  They are spread over the timed window,
# between ops, so that they do not all fall into one phase of the host.
SETUP_PROBES = 6

# Untraced ops per run at least, even past --seconds, so that every input
# of a short cycle repeats several times even when ops are slow.
MIN_OPS = 100

# Tracebacks printed to stderr per run; later failures are only counted.
MAX_REPORTED_FAILURES = 3

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Client:
    """Runs ops of one workload and tallies attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def op(self, x, tracer=None) -> int:
        """Run one op, check it, and return its duration in ns."""
        w = self.workload
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                out = w.run(x)
                elapsed = time.perf_counter_ns() - start
            else:
                with w.traced(tracer), tracer.span("op") as sid:
                    out = w.run(x)
                elapsed = tracer.spans[sid][2] - tracer.spans[sid][1]
            ok = w.check(x, out)
        except Exception:
            elapsed = time.perf_counter_ns() - start
            ok = False
            if self.failed < MAX_REPORTED_FAILURES:
                print(f"op {x[0]!r} raised:", file=sys.stderr)
                traceback.print_exc()
        else:
            if not ok and self.failed < MAX_REPORTED_FAILURES:
                print(f"op {x[0]!r} failed its golden check", file=sys.stderr)
        if not ok:
            self.failed += 1
        return elapsed


def _p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(client: Client, seconds: float, gauge: speed.Gauge, min_ops: int = MIN_OPS, between_ops=None) -> dict:
    """Time ops for `seconds`, and for at least `min_ops` ops and one input cycle.

    Ops run in blocks of about `gauge.block_s` seconds, with a `gauge`
    reading before and after each block; every op's time is scaled by the gauge's
    reference time over the mean of the two (see speed.py).  Each input's latency is the median of its
    scaled repeats.  op_ms_p50 and op_ms_p90 are taken over the inputs of
    the cycle, and ops_per_s is the rate of one pass over the cycle at
    those latencies, times ok_ratio.  `between_ops()`, if given, is called
    untimed after every op.  Also returns, under "gauge_ms", the median
    gauge reading, which is not a benchmark metric.
    """
    inputs = client.workload.inputs
    scaled: list = [[] for _ in inputs]
    failed_before = client.failed
    n = 0
    needed = max(min_ops, len(inputs))
    readings = [gauge.reading()]
    deadline = time.perf_counter() + seconds

    def more() -> bool:
        return time.perf_counter() < deadline or n < needed

    while more():
        block = []
        block_end = time.perf_counter() + gauge.block_s
        while more() and time.perf_counter() < block_end:
            i = n % len(inputs)
            block.append((i, client.op(inputs[i])))
            n += 1
            if between_ops is not None:
                between_ops()
        readings.append(gauge.reading())
        scale = gauge.reference_ns / ((readings[-2] + readings[-1]) / 2)
        for i, elapsed in block:
            scaled[i].append(elapsed * scale)
    ok_ratio = 1 - (client.failed - failed_before) / n
    latency = [statistics.median(v) for v in scaled]
    return {
        "ops_per_s": ok_ratio * len(latency) / (sum(latency) / 1e9),
        "op_ms_p50": statistics.median(latency) / 1e6,
        "op_ms_p90": _p90(latency) / 1e6,
        "ok_ratio": ok_ratio,
        "gauge_ms": statistics.median(readings) / 1e6,
    }


def per_layer(client: Client, inputs: list, count_inputs: list, seconds: float, trace_path) -> dict:
    counted = tracing.Tracer()
    for i, x in enumerate(count_inputs):
        counted.op_id = i
        client.op(x, counted)
    timed = tracing.Tracer()
    plain_ns = traced_ns = 0
    i = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        x = inputs[i % len(inputs)]
        plain_ns += client.op(x)
        timed.op_id = i
        traced_ns += client.op(x, timed)
        i += 1
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    fields = ["name", "start_ns", "end_ns", "op", "parent", "count"]
    trace_path.write_text(json.dumps({"fields": fields, "count_pass": counted.spans, "timed": timed.spans}))
    return tracing.layer_metrics(
        tracing.summarize(timed.spans),
        tracing.summarize(counted.spans),
        getattr(client.workload, "interpreter_ns", []),
        overhead_ratio=plain_ns / traced_ns,
    )


def scaled(seconds: float, gauge: speed.Gauge, before_ns: float, after_ns: float) -> float:
    """Seconds scaled to the reference host speed by the mean of two gauge readings."""
    return seconds * gauge.reference_ns / ((before_ns + after_ns) / 2)


def setup_probe(name: str, seed: int, gauge: speed.Gauge) -> float:
    """Scaled seconds one set-up takes in a fresh interpreter."""
    before = gauge.reading()
    proc = subprocess.run(
        [sys.executable, str(workloads.BENCH / "setup_probe.py"), name, str(seed)],
        cwd=workloads.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return scaled(float(proc.stdout.split()[-1]), gauge, before, gauge.reading())


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(workloads.ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env = environment(args)

    make = workloads.WORKLOADS[args.workload]
    speed.pin()
    with speed.Gauge(make.gauge) as gauge:
        before = gauge.reading()
        t0 = time.perf_counter()
        workload = make(args.seed, workloads.load_goldens())
        setups = [scaled(time.perf_counter() - t0, gauge, before, gauge.reading())]

        client = Client(workload)
        if args.trace:
            trace_path = workloads.OUT / f"trace-{args.workload}-{args.seed}.json"
            values = per_layer(client, workload.inputs, workload.count_inputs, args.seconds, trace_path)
            units = {name: tracing.unit_of(name) for name in values}
        else:
            start = time.perf_counter()
            due = [start + args.seconds * (k + 0.5) / SETUP_PROBES for k in range(SETUP_PROBES)]

            def probe_when_due():
                if due and time.perf_counter() >= due[0]:
                    due.pop(0)
                    setups.append(setup_probe(args.workload, args.seed, gauge))

            values = end_to_end(client, args.seconds, gauge, between_ops=probe_when_due)
            setups += [setup_probe(args.workload, args.seed, gauge) for _ in due]
            env["gauge_ms"] = values.pop("gauge_ms")
            values["setup_s"] = statistics.median(setups)
            who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
            values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
            units = END_TO_END_UNITS
    print(json.dumps({"env": env}))
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
