"""Spans around calls into the program, recorded from the benchmark side.

A span is `(name, start_ns, end_ns, op_id, parent, count)`: `parent` is
the index of the enclosing span in the same list (or None) and `count` an
optional work count taken from the call (bytes, violations, states).
Spans stay in memory and are written out when the run ends.  The shims
replace public module attributes only while `Tracer.installed` is
active, so untraced ops run the program's own functions.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import time


def _arg_len(args, result):
    return len(args[0])


def _result_len(args, result):
    return len(result)


def _orbit_states(args, result):
    return len(result.model.space)


# (module, attribute or "Class.method", counter) for every traced entry
# point.  The span name is "<module>.<attribute>"; its layer is <module>.
TARGETS = {
    "modelio": (("parse_model", _arg_len), ("serialize_model", _result_len), ("parse_quantum", _arg_len)),
    "core": (
        ("Model.build", None),
        ("validate_model", _result_len),
        ("classify_pair", None),
        ("eigenstates_of_observable", None),
    ),
    "checker": (("generate_model", None), ("check_laws", _result_len)),
    "quantum": (("family_violations", _result_len), ("close_orbit", _orbit_states)),
}


class Tracer:
    """In-memory spans of one run; `op_id` tags the spans of the current op."""

    def __init__(self):
        self.spans: list = []
        self.op_id = None
        self._stack: list[int] = []

    @property
    def current(self):
        """Index of the innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), None, self.op_id, self.current, None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int, count=None) -> None:
        span = self.spans[sid]
        span[2] = time.perf_counter_ns()
        span[5] = count
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield sid
        finally:
            self.end(sid)

    def _shim(self, fn, name, counter):
        def shim(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if counter is not None:
                self.spans[sid][5] = counter(args, result)
            return result

        return shim

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap the TARGETS of the given `{layer: module}` for the block's duration."""
        saved = []
        try:
            for layer, module in modules.items():
                for attr, counter in TARGETS[layer]:
                    owner, leaf = module, attr
                    if "." in attr:
                        cls_name, leaf = attr.split(".")
                        owner = getattr(module, cls_name)
                    original = inspect.getattr_static(owner, leaf)
                    saved.append((owner, leaf, original))
                    if isinstance(original, classmethod):
                        replacement = classmethod(self._shim(original.__func__, f"{layer}.{attr}", counter))
                    else:
                        replacement = self._shim(original, f"{layer}.{attr}", counter)
                    setattr(owner, leaf, replacement)
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def adopt(self, spans: list, parent: int) -> None:
        """Append spans recorded by a child process under the span `parent`."""
        base = len(self.spans)
        for name, start, end, _, sub_parent, count in spans:
            self.spans.append([name, start, end, self.op_id, parent if sub_parent is None else base + sub_parent, count])


# ---------------------------------------------------------------------------
# Aggregation


def _median_ms(values) -> float:
    return statistics.median(values) / 1e6 if values else 0.0


def _p90_ms(values) -> float:
    if len(values) < 2:
        return _median_ms(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1] / 1e6


def summarize(spans: list) -> dict:
    """Per-name durations and summed counts, per-layer self time, and op totals.

    Spans named "op" are the roots; every other span's layer is the part
    of its name before the first dot.
    """
    durations: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    child_time = [0] * len(spans)
    for name, start, end, _, parent, count in spans:
        if parent is not None:
            child_time[parent] += end - start
    op_total = 0
    unattributed = 0
    self_time: dict[str, int] = {}
    for sid, (name, start, end, _, parent, count) in enumerate(spans):
        dur = end - start
        if name == "op":
            op_total += dur
            unattributed += dur - child_time[sid]
            continue
        durations.setdefault(name, []).append(dur)
        if count is not None:
            counts[name] = counts.get(name, 0) + count
        layer = name.split(".", 1)[0]
        self_time[layer] = self_time.get(layer, 0) + dur - child_time[sid]
    return {
        "durations": durations,
        "counts": counts,
        "self_time": self_time,
        "op_total": op_total,
        "unattributed": unattributed,
    }


def layer_metrics(timed: dict, counted: dict, interpreter_ns: list, overhead_ratio: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from two summaries.

    `timed` summarizes the traced timed ops (medians, rates, shares);
    `counted` summarizes the fixed count pass, whose counts repeat exactly.
    A layer that a workload never calls reads 0.
    """
    d = timed["durations"]
    op_total = timed["op_total"] or 1

    def med(name):
        return _median_ms(d.get(name, []))

    def per_s(name, scale=1.0):
        total_ns = sum(d.get(name, []))
        return timed["counts"].get(name, 0) * scale / (total_ns / 1e9) if total_ns else 0.0

    def share(layer):
        return timed["self_time"].get(layer, 0) / op_total

    return {
        "cli.interpreter_ms": _median_ms(interpreter_ns),
        "cli.import_ms": med("cli.import"),
        "cli.main_ms": med("cli.main"),
        "cli.numpy_imported": counted["counts"].get("cli.main", 0),
        "modelio.parse_model_ms": med("modelio.parse_model"),
        "modelio.parse_model_mb_per_s": per_s("modelio.parse_model", 1e-6),
        "modelio.serialize_model_ms": med("modelio.serialize_model"),
        "modelio.serialize_model_mb_per_s": per_s("modelio.serialize_model", 1e-6),
        "modelio.parse_quantum_ms": med("modelio.parse_quantum"),
        "modelio.share": share("modelio"),
        "core.model_build_ms": med("core.Model.build"),
        "core.validate_model_ms": med("core.validate_model"),
        "core.classify_pair_ms": med("core.classify_pair"),
        "core.classify_pair_calls": len(counted["durations"].get("core.classify_pair", [])),
        "core.eigenstates_ms": med("core.eigenstates_of_observable"),
        "core.violations": counted["counts"].get("core.validate_model", 0),
        "core.share": share("core"),
        "checker.generate_model_ms": med("checker.generate_model"),
        "checker.check_laws_ms": med("checker.check_laws"),
        "checker.violations": counted["counts"].get("checker.check_laws", 0),
        "checker.share": share("checker"),
        "quantum.family_violations_ms": med("quantum.family_violations"),
        "quantum.close_orbit_ms": med("quantum.close_orbit"),
        "quantum.close_orbit_ms_p90": _p90_ms(d.get("quantum.close_orbit", [])),
        "quantum.orbit_states": counted["counts"].get("quantum.close_orbit", 0),
        "quantum.orbit_states_per_s": per_s("quantum.close_orbit"),
        "quantum.share": share("quantum"),
        "trace.overhead_ratio": overhead_ratio,
        "trace.unattributed_share": timed["unattributed"] / op_total,
    }


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith(("_ms", "_ms_p90")):
        return "ms"
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("share", "ratio")):
        return "ratio"
    return "count"
