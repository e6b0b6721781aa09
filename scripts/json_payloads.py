#!/usr/bin/env python3
"""Time `--format json` against the text format of the model commands.

For each size, the script writes the benchmark generator's model
document of that many states (`bench/gen.py`, document 0) to a temporary
file and runs `validate`, `check` and `report` on it through `cli.main`
in process, with stdout captured, once per format and `--repeats` times,
alternating the two formats.  Each row gives the median milliseconds of
both formats, their ratio and the bytes each one prints; the header line
gives the Python version.  `--format json` prints its payload with
`json.dumps(indent=2)`, so the ratio is what the encoder adds to a
command.

Only `gqt.cli.main` is called, so the same script times any checkout put
on PYTHONPATH.  It makes no assertions.
"""

import argparse
import contextlib
import importlib.util
import io
import platform
import statistics
import tempfile
import time
from pathlib import Path

from gqt import cli

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("validate", "check", "report")


def load_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def timed_call(argv):
    """Seconds one `cli.main(argv)` takes, and what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        cli.main(argv)
        elapsed = time.perf_counter() - start
    return elapsed, out.getvalue()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sizes", type=int, nargs="*", default=[8, 16, 32, 64], help="states per document")
    parser.add_argument("--repeats", type=int, default=20, help="calls per format; the median is printed (default 20)")
    args = parser.parse_args(argv)

    gen = load_gen()
    print(f"Python {platform.python_version()}; cli.main in process, median ms of {args.repeats} calls per format")
    print(
        f"{'states':>6} {'doc KB':>7} {'command':>9} {'text ms':>9} {'json ms':>9}"
        f" {'json/text':>10} {'text B':>8} {'json B':>8}"
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        for n in args.sizes:
            text = gen.model_document(n, 0)
            path.write_text(text, encoding="utf-8")
            for command in COMMANDS:
                times = {"text": [], "json": []}
                printed = {}
                for _ in range(args.repeats):
                    for fmt in times:
                        elapsed, printed[fmt] = timed_call([command, str(path), "--format", fmt])
                        times[fmt].append(elapsed)
                text_ms, json_ms = (statistics.median(times[fmt]) * 1e3 for fmt in ("text", "json"))
                print(
                    f"{n:>6} {len(text.encode()) / 1024:>7.1f} {command:>9} {text_ms:>9.3f} {json_ms:>9.3f}"
                    f" {json_ms / text_ms:>10.2f} {len(printed['text'].encode()):>8} {len(printed['json'].encode()):>8}"
                )


if __name__ == "__main__":
    main()
