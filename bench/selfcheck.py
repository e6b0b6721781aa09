#!/usr/bin/env python3
"""Self-check of the benchmark's own golden checks.

    python3 bench/selfcheck.py

Runs every workload briefly, untraced and traced, with the real goldens:
no op may fail.  Then sets each up afresh, corrupts the golden of its
first input and runs it again: ops must fail, so ok_ratio drops below 1.
A golden check that cannot fail would pass everything and prove nothing.
Exits 1 on any surprise.
"""

from __future__ import annotations

import sys

import run
import speed
import workloads

SECONDS = 1.5
SEED = 0


def corrupt(workload, x) -> None:
    key = x[0]
    if isinstance(workload.golden, dict):
        workload.golden[key] = "corrupted"
    else:
        cls, index = key
        workload.golden[cls][index] = "corrupted"


def main() -> int:
    problems = []
    for name, make in workloads.WORKLOADS.items():
        with speed.Gauge(make.gauge) as gauge:
            workload = make(SEED, workloads.load_goldens())
            client = run.Client(workload)
            metrics = run.end_to_end(client, SECONDS, gauge, min_ops=1)
            trace_path = workloads.OUT / f"selfcheck-{name}.json"
            run.per_layer(client, workload.inputs, workload.count_inputs, SECONDS, trace_path)
            clean = (client.attempted, client.failed, metrics["ok_ratio"])
            if client.failed:
                problems.append(f"{name}: {client.failed} of {client.attempted} ops failed with the real goldens")

            workload = make(SEED, workloads.load_goldens())
            corrupt(workload, workload.inputs[0])
            client = run.Client(workload)
            metrics = run.end_to_end(client, SECONDS, gauge, min_ops=1)
            broken = (client.attempted, client.failed, metrics["ok_ratio"])
            if not client.failed or metrics["ok_ratio"] >= 1:
                problems.append(f"{name}: a corrupted golden went unnoticed")
            print(f"{name}: real goldens (attempted, failed, ok_ratio) = {clean}; corrupted = {broken}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
