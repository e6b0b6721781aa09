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
        "if core._compatible(a, b):",
        "if core._compatible(a, b) is not None:",
        ("tests/test_checker.py::test_check_laws_clean_on_references",),
        "The pair laws are theorems about compatible pairs, and `check_laws` is the one place that holds "
        "them to those pairs; applied to every pair they fire on the valid fixtures' complementary pairs.",
    ),
    Mutant(
        "compatible-skips-no-no",
        "src/gqt/core.py",
        "            if _noncommuting_sides(p, b.family[vb]) is not None:",
        '            if (_noncommuting_sides(p, b.family[vb]) or ("no", "no"))[:2] != ("no", "no"):',
        ("tests/test_laws.py::test_compatible_sees_a_pair_that_fails_on_one_side_of_one_branch_pair[no-no-3]",),
        "The decision then calls a branch pair that fails only on its no maps commuting; the hand-made "
        "pair whose one failure is that side pair is held to the reference scan.",
    ),
    Mutant(
        "compatible-first-branch-of-b-only",
        "src/gqt/core.py",
        "        p = a.family[va]\n        for vb in b.spectrum:\n            if _noncommuting_sides(",
        "        p = a.family[va]\n        for vb in b.spectrum[:1]:\n            if _noncommuting_sides(",
        ("tests/test_laws.py::test_compatible_sees_a_pair_that_fails_on_one_side_of_one_branch_pair[last-branch-pair-3]",),
        "The decision then never pairs a branch of `a` with a later branch of `b`; the hand-made pair "
        "whose one failure is its last branch pair is held to the reference scan.",
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
    Mutant(
        "mask-test-drops-support",
        "src/gqt/checker.py",
        "if not (image & covered or support & kill):",
        "if not (image & covered):",
        ("tests/test_generator.py::test_branch_masks_agree_with_the_laws[8]",),
        "Two yes maps annihilate only when neither one's image meets the other's support; with one half "
        "of the test a branch whose support meets a chosen image passes, and the greedy reference differs.",
    ),
    Mutant(
        "support-is-image",
        "src/gqt/checker.py",
        "support = ((1 << n) - 1) ^ sum(map((1).__lshift__, no_eigen)) if n_yes else 0",
        "support = image",
        ("tests/test_generator.py::test_branch_masks_agree_with_the_laws[8]",),
        "The support also holds the contingent states the yes map keeps; the test lists it against the "
        "states each yes map does not send to zero.",
    ),
    Mutant(
        "same-space-identity-only",
        "src/gqt/core.py",
        "return a is b or a == b",
        "return a is b",
        ("tests/test_core.py::test_an_equal_space_passes_every_space_check",),
        "An equal but distinct state space then fails every space check; the test builds each part over "
        "a copy of the space.",
    ),
    Mutant(
        "shuffled-one-bit-short",
        "src/gqt/checker.py",
        "k = (top + 1).bit_length()",
        "k = top.bit_length()",
        ("tests/test_generator.py::test_shuffled_makes_the_draws_of_sample[0]",),
        "`sample` draws `(top + 1).bit_length()` bits per step; one bit fewer gives other draws, which "
        "the test compares draw for draw and in the final `getstate()`.",
    ),
    Mutant(
        "space-uncached",
        "src/gqt/checker.py",
        "@cache\ndef _space(",
        "def _space(",
        ("tests/test_generator.py::test_models_of_one_size_share_one_space",),
        "Every generated model then gets a fresh, equal space; only object identity shows it.",
    ),
    Mutant(
        "fixed-point-scan-one-short",
        "src/gqt/core.py",
        "itertools.compress(range(n), map(operator.eq, range(n), family[v].yes.table))",
        "itertools.compress(range(n - 1), map(operator.eq, range(n - 1), family[v].yes.table))",
        ("tests/test_generator.py::test_eigenvalues_are_the_fixed_points_of_each_branch[8]",),
        "The last proper state is never an eigenstate; the test holds the table to the comprehension "
        "definition.",
    ),
    Mutant(
        "remainder-pick-one-bit-wide",
        "src/gqt/checker.py",
        "k_up, k_kill = n_up.bit_length(), n_kill.bit_length()",
        "k_up, k_kill = n_up.bit_length() + 1, n_kill.bit_length()",
        ("tests/test_generator.py::test_generator_output_matches_golden",),
        "The remainder branch's picks then draw one bit more than `choice` and reject more often; the "
        "maps stay valid, so only the 378 golden hashes see the other draws.",
    ),
    Mutant(
        "orbit-live-traces-reversed",
        "src/gqt/quantum.py",
        "traces.compress(live)[:, None, None]",
        "traces.compress(live)[::-1, None, None]",
        ("tests/test_quantum.py::test_qzx_orbit_matches_frozen_model",),
        "Each live image is then divided by another image's trace; the qzx orbit no longer matches its "
        "frozen model.",
    ),
    Mutant(
        "colon-count-at-most",
        "src/gqt/modelio.py",
        'if entries(data) == text.count(":"):',
        'if entries(data) <= text.count(":"):',
        ("tests/test_modelio.py::test_parse_rejects_duplicate_keys",),
        "Fewer entries than colons is what a repeated key gives; with `<=` the plain decode, which keeps "
        "the last value, is accepted.",
    ),
    Mutant(
        "model-entries-top-level-plus-one",
        "src/gqt/modelio.py",
        "return len(data) + (3 + 2 * n)",
        "return len(data) + 1 + (3 + 2 * n)",
        ("tests/test_modelio.py::test_documents_without_repeats_colons_or_escapes_skip_the_hook",),
        "No model document then matches its colon count, so each one falls back to `_load_json`, which "
        "the test makes fail.",
    ),
    Mutant(
        "model-entries-proposition-plus-one",
        "src/gqt/modelio.py",
        "(3 + 2 * n) * len(",
        "(4 + 2 * n) * len(",
        ("tests/test_modelio.py::test_documents_without_repeats_colons_or_escapes_skip_the_hook",),
        "Every model document with a proposition falls back to `_load_json`, which the test makes fail.",
    ),
    Mutant(
        "quantum-entries-top-level-plus-one",
        "src/gqt/modelio.py",
        'return len(data) + len(data["seeds"])',
        'return len(data) + 1 + len(data["seeds"])',
        ("tests/test_modelio.py::test_documents_without_repeats_colons_or_escapes_skip_the_hook",),
        "No quantum document then matches its colon count, so each one falls back to `_load_json`, "
        "which the test makes fail.",
    ),
    Mutant(
        "quantum-entries-seed-plus-one",
        "src/gqt/modelio.py",
        'len(data["seeds"]) + len(data["propositions"])',
        'len(data["seeds"]) + 1 + len(data["propositions"])',
        ("tests/test_modelio.py::test_documents_without_repeats_colons_or_escapes_skip_the_hook",),
        "Every quantum document has a seed, so each one falls back to `_load_json`, which the test makes "
        "fail.",
    ),
    Mutant(
        "quantum-entries-projector-plus-one",
        "src/gqt/modelio.py",
        'len(data["propositions"]) + _section_entries(data)',
        'len(data["propositions"]) + 1 + _section_entries(data)',
        ("tests/test_modelio.py::test_documents_without_repeats_colons_or_escapes_skip_the_hook",),
        "Every quantum document falls back to `_load_json`, which the test makes fail.",
    ),
    Mutant(
        "section-entries-observable-plus-one",
        "src/gqt/modelio.py",
        'sum(3 + len(body["family"])',
        'sum(4 + len(body["family"])',
        ("tests/test_modelio.py::test_documents_without_repeats_colons_or_escapes_skip_the_hook",),
        "Every document with an observable falls back to `_load_json`, which the test makes fail.",
    ),
    Mutant(
        "section-entries-partition-plus-one",
        "src/gqt/modelio.py",
        'total += 3 + len(data["partition"]["local"])',
        'total += 4 + len(data["partition"]["local"])',
        ("tests/test_modelio.py::test_documents_without_repeats_colons_or_escapes_skip_the_hook",),
        "Every document with a partition (the Bell fixtures) falls back to `_load_json`, which the test "
        "makes fail.",
    ),
    Mutant(
        "build-error-before-hook-decode",
        "src/gqt/modelio.py",
        "except Exception as e:\n                error = e",
        "except Exception:\n                raise",
        ("tests/test_modelio.py::test_repeated_key_outranks_the_error_of_its_last_value",),
        "A repeated key whose last value fails to build then raises the build error; the hook, which "
        "must still run, names the repeat.",
    ),
    Mutant(
        "u-escape-never-seen",
        "src/gqt/modelio.py",
        r'return "\\" in text and "\\u" in text',
        "return False",
        ("tests/test_modelio.py::test_parse_rejects_unpaired_surrogates",),
        "Escaped documents then take the plain decode, which keeps an unpaired surrogate that the hook "
        "path refuses.",
    ),
    Mutant(
        "cap-type-test-dropped",
        "src/gqt/quantum.py",
        '    if not isinstance(cap, int) or isinstance(cap, bool):\n'
        '        raise StructuralError(f"orbit cap must be an integer, got {cap!r}")\n',
        "",
        ("tests/test_quantum.py::test_every_entry_point_refuses_a_cap_that_is_not_an_integer",),
        "A NaN or infinite cap then passes `cap < 1` and bounds nothing; the table test sends nan, inf, "
        "2.5, True and \"3\" through `settings`, `document_orbit` and `close_orbit`.",
    ),
    Mutant(
        "parser-builtins-remade",
        "src/gqt/modelio.py",
        "return core.Model(space, props, observables, partition)",
        "return core.Model.build(space, props.values(), observables.values(), partition)",
        ("tests/test_modelio.py::test_family_members_are_the_models_own_propositions",),
        "`Model.build` makes a second, equal ONE and ZERO for the model to keep, so a family that names "
        "a builtin no longer holds the model's own object.",
    ),
    Mutant(
        "zero-guard-never-applies",
        "src/gqt/checker.py",
        "if zero is not None and zero.yes != core.constant_zero_map(model.space):",
        "if zero is not None and zero.yes != zero.yes:",
        ("tests/test_checker.py::test_zero_that_keeps_a_state_breaks_zero_absorption",),
        "`check_laws` then never composes with ZERO, so a ZERO whose yes map keeps a state goes unreported.",
    ),
    Mutant(
        "one-guard-never-applies",
        "src/gqt/checker.py",
        "if one is not None and one.yes != core.identity_map(model.space):",
        "if one is not None and one.yes != one.yes:",
        ("tests/test_checker.py::test_check_laws_flags_broken_builtin",),
        "`check_laws` then never composes with ONE, so a ONE whose yes map is not the identity goes unreported.",
    ),
    Mutant(
        "zero-flags-one-state-short",
        "src/gqt/core.py",
        'return (bytes(n) + b"\\1").ljust(256, b"\\0")',
        'return (bytes(n - 1) + b"\\1").ljust(256, b"\\0")',
        ("tests/test_properties.py::test_zeroed_by_all_matches_a_per_state_scan",),
        "The cached flag table then marks state n - 1 for the zero index n, so `_zeroed_by_all` flags the "
        "states sent to the last proper state; the test scans each state at 1 to 300 states.",
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
