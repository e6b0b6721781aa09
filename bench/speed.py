"""Host-speed gauges: fixed slices of work, timed between ops.

On a shared virtual machine the speed of the same Python code swings by
a third or more, in phases of seconds to minutes, as other tenants load
the host.  Process CPU time swings with it (the slowdown is contention,
not stolen time), so no choice of clock removes it.  The benchmark
therefore times a gauge, which never changes with the program under
test, next to the ops and rescales each op's time to a host on which one
gauge slice takes the gauge's reference time:

    op_ns * REFERENCE_NS[kind] / gauge_ns

There are two kinds of gauge.  "compute" is a slice of pure-Python work,
for ops that run in process.  "start" is the start of a bare interpreter
(`python -c pass`, site imports included), for ops that are whole
processes: their speed follows process start-up, page faults and file
reads more closely than the interpreter loop.

A change to the program moves the op time but not the gauge, so it shows
in full; a slow phase of the host moves both, and cancels.  The gauge
runs in a helper process of its own (`Gauge`), so that its speed does not
depend on what the program leaves in the measuring process's heap.  The
virtual CPUs of one machine run at different speeds at the same moment,
so `pin()` first binds the measuring process, and with it the helper and
every other child, to a single CPU.

    python3 bench/speed.py KIND

is that helper: it answers every line on stdin with one reading in ns.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

# Nominal time of one slice of each gauge: about its time on a quiet
# 2-vCPU Intel Xeon virtual machine with CPython 3.11.  Scaled figures read
# as milliseconds of such a host.
REFERENCE_NS = {"compute": 2_500_000, "start": 70_000_000}

# Slices per reading; a reading is their median.  A start slice is long.
SLICES = {"compute": 5, "start": 3}

# Seconds of ops between two readings.  The host's speed changes within
# seconds, so readings are as close together as their cost allows: the
# gauge takes about 3% (compute) or 10% (start) of the timed window.
BLOCK_S = {"compute": 0.5, "start": 2.0}


def _work() -> int:
    # Dict and tuple churn, sorting, set lookups, JSON and string
    # formatting: the kinds of work the gqt layers do, in one mix.
    table: dict = {}
    for i in range(750):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    items = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    seen = frozenset(k for k, _ in items[:350])
    hits = sum(1 for k in table if k in seen)
    text = json.dumps({f"s{a}_{b}": [a, b, v] for (a, b), v in items})
    back = json.loads(text)
    return hits + len(",".join(f"{k}:{v[2]}" for k, v in back.items()))


def _start() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True)


WORK = {"compute": _work, "start": _start}


def reading(kind: str) -> float:
    """Median time of `SLICES[kind]` slices of a gauge, in ns."""
    times = []
    for _ in range(SLICES[kind]):
        start = time.perf_counter_ns()
        WORK[kind]()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times)


def pin() -> None:
    """Bind this process, and the children it starts later, to one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Gauge:
    """The helper process of one gauge kind; `reading()` asks it for one reading.

    Use it as a context manager, which stops the helper and waits for it.
    """

    def __init__(self, kind: str):
        self.reference_ns = REFERENCE_NS[kind]
        self.block_s = BLOCK_S[kind]
        self._proc = subprocess.Popen(
            [sys.executable, __file__, kind], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1
        )

    def reading(self) -> float:
        self._proc.stdin.write("\n")
        return float(self._proc.stdout.readline())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=10)


def main() -> None:
    kind = sys.argv[1]
    reading(kind)
    for _ in sys.stdin:
        print(reading(kind), flush=True)


if __name__ == "__main__":
    main()
