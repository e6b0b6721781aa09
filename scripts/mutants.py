#!/usr/bin/env python3
"""Plant catalogued bugs one at a time and check that the tests catch each.

Each entry of `MUTANTS` names a file, an exact snippet of it, the
snippet's replacement, the pytest node ids that must catch the bug, and
why those tests see it.  The script copies this checkout, without `.git`,
to a temporary directory (the tests read `fixtures/` and `bench/gen.py`),
applies one mutant at a time there and runs the entry's node ids with
`-x` in a pytest subprocess, printing how long the catch took.  It exits
1 when a mutant survives, when pytest cannot run the selection, or when
an old snippet does not occur exactly once in its file, so the catalogue
cannot go stale unnoticed.  The checkout itself is never written.

    python3 scripts/mutants.py            # every mutant
    python3 scripts/mutants.py --check    # only match the snippets
    python3 scripts/mutants.py --only pair-class-swapped
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    id: str
    file: str  # relative to the checkout root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids that must catch the mutant
    why: str


MUTANTS = (
    Mutant(
        "check-laws-every-pair",
        "src/gqt/checker.py",
        "if core.pair_class(a, b)[0] is core.PairClass.COMPATIBLE:",
        "if core.pair_class(a, b)[0] is not None:",
        ("tests/test_checker.py::test_check_laws_clean_on_references",),
        "The pair laws are theorems about compatible pairs, and `check_laws` is the one place that holds "
        "them to those pairs; applied to every pair they fire on the valid fixtures' complementary pairs.",
    ),
    Mutant(
        "share-any-for-all",
        "src/gqt/core.py",
        "return any(map(all, zip(a.eigenvalues, b.eigenvalues)))",
        "return any(map(any, zip(a.eigenvalues, b.eigenvalues)))",
        ("tests/test_laws.py::test_pair_class_matches_reference_on_the_generator_goldens",),
        "An eigenstate of only one observable then counts as shared; the reference common-eigenstate "
        "list decides `_share_an_eigenstate` on every pair of the 378 generator goldens.",
    ),
    Mutant(
        "common-eigenstate-law-inverted",
        "src/gqt/core.py",
        "    if _share_an_eigenstate(a, b):\n        return []",
        "    if not _share_an_eigenstate(a, b):\n        return []",
        ("tests/test_checker.py::test_compatible_pair_without_common_eigenstate_is_reported",),
        "strongcomp-implies-comp then reports the pairs that share an eigenstate and passes the one "
        "compatible pair that shares none.",
    ),
    Mutant(
        "pair-class-swapped",
        "src/gqt/core.py",
        "                    return PairClass.COMPLEMENTARY, witness\n"
        "                return PairClass.STRONGLY_COMPLEMENTARY, witness",
        "                    return PairClass.STRONGLY_COMPLEMENTARY, witness\n"
        "                return PairClass.COMPLEMENTARY, witness",
        ("tests/test_core.py::test_one_shared_eigenstate_splits_the_complementary_classes",),
        "The two complementary classes trade places; hand-made pairs at 3, 255 and 256 states pin "
        "which one a shared eigenstate gives.",
    ),
    Mutant(
        "side-pairs-reordered",
        "src/gqt/core.py",
        '_SIDE_PAIRS = (("yes", "yes"), ("yes", "no"), ("no", "yes"), ("no", "no"))',
        '_SIDE_PAIRS = (("yes", "yes"), ("no", "yes"), ("yes", "no"), ("no", "no"))',
        ("tests/test_laws.py::test_pair_class_matches_reference_on_the_generator_goldens",),
        "The first commutation witness then comes from another side pair; the reference scans the "
        "sides in the documented order with its own loop, over the 378 generator goldens.",
    ),
    Mutant(
        "eigenstate-scan-skips-last",
        "src/gqt/core.py",
        "return any(map(all, zip(a.eigenvalues, b.eigenvalues)))",
        "return any(map(all, zip(a.eigenvalues[:-2], b.eigenvalues)))",
        ("tests/test_core.py::test_one_shared_eigenstate_splits_the_complementary_classes",),
        "The scan stops before the last proper state; a pair whose one shared eigenstate is that "
        "state then reads strongly complementary.",
    ),
)


def unmatched(root: Path, mutants) -> list[str]:
    """A line for each mutant whose old snippet does not occur exactly once."""
    out = []
    for m in mutants:
        count = (root / m.file).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            out.append(f"{m.id}: old snippet occurs {count} times in {m.file}")
    return out


def run_pytest(copy: Path, tests) -> tuple[int, float]:
    """pytest's exit code on node ids `tests` of the copy, with `-x`, and the seconds it took."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode, time.perf_counter() - start


def run(copy: Path, m: Mutant) -> tuple[int, float]:
    """`run_pytest` on the entry's node ids with `m` applied to the copy."""
    path = copy / m.file
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(m.old, m.new), encoding="utf-8")
    try:
        return run_pytest(copy, m.tests)
    finally:
        path.write_text(text, encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true", help="only check that every old snippet matches once")
    parser.add_argument("--only", choices=[m.id for m in MUTANTS], help="run this one mutant")
    args = parser.parse_args(argv)
    mutants = [m for m in MUTANTS if args.only in (None, m.id)]

    bad = unmatched(ROOT, mutants)
    for line in bad:
        print(line)
    if bad or args.check:
        if not bad:
            print(f"{len(mutants)} snippets match once each")
        return 1 if bad else 0

    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        # A selection that fails unmutated would count every mutant caught.
        code, seconds = run_pytest(copy, sorted({t for m in mutants for t in m.tests}))
        if code != 0:
            print(f"the selected tests fail without a mutant (pytest exit {code})")
            return 1
        print(f"unmutated: the selected tests pass in {seconds:.1f} s")
        for m in mutants:
            code, seconds = run(copy, m)
            # pytest exits 1 when a test failed, 0 when all passed, and
            # otherwise when it could not run the selection.
            verdict = {1: "caught", 0: "SURVIVED"}.get(code, f"ERROR (pytest exit {code})")
            failed = failed or code != 1
            print(f"{m.id}: {verdict} in {seconds:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
