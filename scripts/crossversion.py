#!/usr/bin/env python3
"""Check that this checkout gives the committed golden bytes under the
interpreter that runs it.

Stdlib only, so it runs on a Python that has neither pytest nor numpy,
from the repository root, with any interpreter:
    python3.10 scripts/crossversion.py
It puts this checkout's `src/` and `tests/` first on the import path and
checks
- the sha256 of `serialize_model(generate_model(p))` for every parameter
  set of `tests/golden/generate_model.json`;
- each of those models' observables: its eigenvalue table is unset until
  the first read, equals the per-state fixed-point definition, and stays
  in its slot for later reads;
- `checker._shuffled` against `random.Random.sample`, draw for draw and
  in the generator's final state;
- the exit code and output bytes of every CLI golden case of
  `tests/golden_cases.py` but the `quantum` ones, which need numpy.
It prints one line per check and exits 1 if anything differs.
"""

import contextlib
import hashlib
import io
import json
import platform
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from gqt import checker, core, modelio  # noqa: E402
from golden_cases import CASES, GOLDEN, golden_files, run_case  # noqa: E402

SEEDS = (0, 1, 12345, 2**64 - 1)


def golden_models():
    """`(key, model, sha256)` for each parameter set of the generator golden."""
    golden = json.loads((GOLDEN / "generate_model.json").read_text(encoding="utf-8"))["sha256"]
    for key, want in golden.items():
        yield key, checker.generate_model(checker.GeneratorParams(*map(int, key.split()))), want


def generator_hashes() -> list[str]:
    """The parameter sets whose model hash differs from the golden."""
    bad = []
    for key, model, want in golden_models():
        if hashlib.sha256(modelio.serialize_model(model).encode("utf-8")).hexdigest() != want:
            bad.append(key)
    return bad


def eigenvalue_tables() -> list[str]:
    """The parameter sets with an observable whose eigenvalue table is set
    before its first read, differs from the definition (entry i: the values
    whose yes map fixes state i; the zero slot: none), or is not the object
    its slot then holds."""
    bad = []
    for key, model, _ in golden_models():
        for a in model.observables.values():
            n = len(a.space)
            want = (*(tuple(v for v in a.spectrum if a.family[v].yes.table[i] == i) for i in range(n)), ())
            unset = a._eigenvalues is None
            table = a.eigenvalues
            if not (unset and table == want and a._eigenvalues is table):
                bad.append(key)
                break
    return bad


def shuffled_draws() -> list[str]:
    """The seeds on which `_shuffled` and `Random.sample` part ways."""
    bad = []
    for seed in SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        same = all(
            checker._shuffled(ours.getrandbits, pool) == theirs.sample(pool, len(pool))
            for pool in ([f"P{k}" for k in range(m)] for m in range(17))
            for _ in range(20)
        )
        if not (same and ours.getstate() == theirs.getstate()):
            bad.append(f"seed {seed}")
    return bad


def cli_goldens() -> list[str]:
    """The non-quantum CLI cases whose exit code or output differs."""
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    bad = []
    for name in sorted(CASES):
        if name.startswith("quantum-"):
            continue
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
            code, files = run_case(CASES[name], Path(tmp))
        if (code, files) != (codes[name], golden_files(name)):
            bad.append(name)
    return bad


CHECKS = {
    "generator hashes": generator_hashes,
    "eigenvalue tables": eigenvalue_tables,
    "_shuffled draws": shuffled_draws,
    "non-quantum CLI goldens": cli_goldens,
}


def main() -> int:
    print(f"Python {platform.python_version()}")
    failed = False
    for title, check in CHECKS.items():
        bad = check()
        failed = failed or bool(bad)
        shown = f"{len(bad)} DIFFER, first: {', '.join(bad[:10])}" if bad else "ok"
        print(f"{title}: {shown}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
