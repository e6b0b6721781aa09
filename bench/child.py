"""Traced `gqt` entry point for the cli-cold workload.

    python bench/child.py TRACE_FILE ARGS...

Run from the checkout root with `src` on PYTHONPATH.  Times `import
gqt.cli`, wraps the program's public functions in spans, runs
`cli.main(ARGS)`, writes the spans to TRACE_FILE as JSON and exits with
main's return code.  The "cli.main" span counts 1 when a non-quantum
command left numpy imported, so numpy at import time shows as a count.
"""

import sys
import time

# Timed before anything else is imported, so that the standard-library
# modules gqt needs count towards its import time, as in `python -m gqt`.
_import_start = time.perf_counter_ns()
from gqt import cli  # noqa: E402

_import_end = time.perf_counter_ns()

import json  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    quantum_command = argv[:1] == ["quantum"]
    tracer = tracing.Tracer()
    tracer.spans.append(["cli.import", _import_start, _import_end, None, None, None])
    from gqt import checker, core, modelio

    layers = {"modelio": modelio, "core": core, "checker": checker}
    if quantum_command:
        with tracer.span("cli.import_quantum"):
            from gqt import quantum
        layers["quantum"] = quantum
    with tracer.installed(layers):
        sid = tracer.begin("cli.main")
        rc = cli.main(argv)
        tracer.end(sid, None if quantum_command else int("numpy" in sys.modules))
    sys.stdout.flush()
    with open(trace_file, "w", encoding="utf-8") as f:
        json.dump(tracer.spans, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
