#!/usr/bin/env python3
"""Time two checkouts of gqt against each other in one process.

    python3 scripts/ab.py BASE [CHANGE] [--workloads fuzz ...] [--rounds 10] [--inputs N]

BASE and CHANGE are checkout roots (CHANGE defaults to this one).  Each
side's `src/gqt` is loaded as a package of its own, `gqt_base` and
`gqt_change`, through importlib's `spec_from_file_location`; gqt's
relative imports resolve within each.  The workloads are the in-process
ones of this checkout's `bench/workloads.py` (fuzz, model-docs,
quantum-build), built once per side with that side's package standing in
for `gqt`, so both sides get the same inputs and the bench's own op.
`bench/` is only read.

The process pins itself to one CPU.  Each round runs every input once
on each side, op by op, and alternates which side goes first from round
to round, so that a change of host speed falls on both sides alike.
Every output of both sides is checked against the bench goldens,
outside the timed region.  The script prints one JSON row: per workload,
each side's median over rounds of its mean milliseconds per op, the
rounds each side was faster, and the change's median as a share of the
base's; with both revisions and the Python version.  It exits 1 when an
output does not match its golden.
"""

import argparse
import contextlib
import importlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = ("fuzz", "model-docs", "quantum-build")
# Every module a workload reaches, imported up front so that each side
# holds its own copy of all of them.
SUBMODULES = ("errors", "core", "checker", "modelio", "quantum")


def revision(root: Path) -> str:
    """`git describe --always --dirty` of a git checkout, else the directory's name."""
    if not (root / ".git").exists():
        return root.name
    cmd = ["git", "-C", str(root), "describe", "--always", "--dirty"]
    return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()


def load_package(root: Path, name: str) -> dict:
    """Load `root/src/gqt` as package `name`; return its modules by their `gqt` names."""
    init = root / "src" / "gqt" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    modules = {"gqt": package}
    for sub in SUBMODULES:
        modules[f"gqt.{sub}"] = importlib.import_module(f"{name}.{sub}")
    return modules


@contextlib.contextmanager
def standing_in(modules: dict):
    """Make `import gqt` (and its submodules) give `modules` for the duration."""
    saved = {k: sys.modules.pop(k) for k in list(sys.modules) if k == "gqt" or k.startswith("gqt.")}
    sys.modules.update(modules)
    try:
        yield
    finally:
        for k in modules:
            del sys.modules[k]
        sys.modules.update(saved)


def pin_to_one_cpu() -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def compare(workloads, name: str, sides: dict, rounds: int, n_inputs) -> tuple[dict, list[str]]:
    """Time workload `name` on both sides; return its row and any golden mismatches."""
    goldens = workloads.load_goldens()
    ops = {}
    for side, modules in sides.items():
        with standing_in(modules):
            ops[side] = workloads.WORKLOADS[name](0, goldens)
    inputs = {side: w.inputs[:n_inputs] for side, w in ops.items()}
    order = list(sides)
    per_round = {side: [] for side in sides}
    mismatches = []
    for r in range(rounds):
        first_second = order if r % 2 == 0 else order[::-1]
        elapsed = {side: 0 for side in sides}
        outputs = {side: [] for side in sides}
        for k in range(len(inputs[order[0]])):
            for side in first_second:
                w, x = ops[side], inputs[side][k]
                start = time.perf_counter_ns()
                out = w.run(x)
                elapsed[side] += time.perf_counter_ns() - start
                outputs[side].append(out)
        for side in sides:
            per_round[side].append(elapsed[side] / 1e6 / len(inputs[side]))
            bad = [k for k, out in enumerate(outputs[side]) if not ops[side].check(inputs[side][k], out)]
            mismatches += [f"{name}: {side} input {k} does not match its golden (round {r})" for k in bad]
    base, change = (per_round[side] for side in order)
    row = {
        "inputs": len(inputs[order[0]]),
        "rounds": rounds,
        "ms_per_op": {side: round(statistics.median(per_round[side]), 4) for side in sides},
        "rounds_faster": {
            order[0]: sum(b < c for b, c in zip(base, change)),
            order[1]: sum(c < b for b, c in zip(base, change)),
        },
        "change_over_base": round(statistics.median(change) / statistics.median(base), 4),
    }
    return row, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path, help="checkout root of the base side")
    parser.add_argument("change", type=Path, nargs="?", default=ROOT, help="checkout root of the change (default: this one)")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--rounds", type=int, default=10, help="rounds per workload (default 10)")
    parser.add_argument("--inputs", type=int, default=None, help="first N inputs of each workload's cycle (default all)")
    args = parser.parse_args(argv)
    if args.rounds < 1 or (args.inputs is not None and args.inputs < 1):
        parser.error("--rounds and --inputs must be at least 1")

    pin_to_one_cpu()
    sys.dont_write_bytecode = True  # bench/ is only read
    sys.path.insert(0, str(BENCH))
    import workloads

    roots = {"base": args.base.resolve(), "change": args.change.resolve()}
    sides = {side: load_package(root, f"gqt_{side}") for side, root in roots.items()}
    row = {
        "python": platform.python_version(),
        "revisions": {side: revision(root) for side, root in roots.items()},
        "cpu": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "workloads": {},
    }
    mismatches = []
    for name in args.workloads:
        row["workloads"][name], bad = compare(workloads, name, sides, args.rounds, args.inputs)
        mismatches += bad
    row["goldens_match"] = not mismatches
    print(json.dumps(row))
    for line in mismatches[:20]:
        print(line, file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
