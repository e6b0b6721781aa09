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
        "if core._first_noncommuting(ps, qs) is None:",
        "if True or core._first_noncommuting(ps, qs) is None:",
        ("tests/test_checker.py::test_check_laws_clean_on_references",),
        "The pair laws are theorems about compatible pairs, and `check_laws` is the one place that holds "
        "them to those pairs; applied to every pair they fire on the valid fixtures' complementary pairs.",
    ),
    Mutant(
        "compatible-skips-no-no",
        "src/gqt/core.py",
        "for sp, sq in _SIDE_PAIRS:",
        "for sp, sq in _SIDE_PAIRS[:3]:",
        ("tests/test_laws.py::test_compatible_sees_a_pair_that_fails_on_one_side_of_one_branch_pair[no-no-3]",),
        "The scan then calls a branch pair that fails only on its no maps commuting; the hand-made "
        "pair whose one failure is that side pair is held to the reference scan.",
    ),
    Mutant(
        "compatible-first-branch-of-b-only",
        "src/gqt/core.py",
        "        for q in qs:",
        "        for q in qs[:1]:",
        ("tests/test_laws.py::test_compatible_sees_a_pair_that_fails_on_one_side_of_one_branch_pair[last-branch-pair-3]",),
        "The scan then never pairs a branch of `a` with a later branch of `b`; the hand-made pair "
        "whose one failure is its last branch pair is held to the reference scan.",
    ),
    Mutant(
        "check-laws-first-branch-only",
        "src/gqt/checker.py",
        "[a.family[v] for v in a.spectrum]",
        "[a.family[v] for v in a.spectrum[:1]]",
        ("tests/test_laws.py::test_compatible_sees_a_pair_that_fails_on_one_side_of_one_branch_pair[last-branch-pair-3]",),
        "`check_laws` then scans only the first branch of each observable and gives the pair laws a pair "
        "whose one failure is its last branch pair; the pairs the laws are given are held to the reference.",
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
        "        return PairClass.COMPLEMENTARY, witness\n    return PairClass.STRONGLY_COMPLEMENTARY, witness",
        "        return PairClass.STRONGLY_COMPLEMENTARY, witness\n    return PairClass.COMPLEMENTARY, witness",
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
        "eigenvalues-skip-last-value",
        "src/gqt/core.py",
        "for v in self.spectrum:",
        "for v in self.spectrum[:-1]:",
        ("tests/test_generator.py::test_eigenvalues_are_the_fixed_points_of_each_branch[8]",),
        "The table built on first read then never lists the last value; the test holds the first read to "
        "the per-state definition.",
    ),
    Mutant(
        "eigenvalues-not-stored",
        "src/gqt/core.py",
        "        Observable._eigenvalues.__set__(self, table)\n",
        "",
        ("tests/test_generator.py::test_eigenvalues_are_the_fixed_points_of_each_branch[8]",),
        "Every read then builds the table again, equal but a new object, and the slot stays unset; the "
        "test wants the second read to return the first read's object from the slot.",
    ),
    Mutant(
        "idempotent-maps-early-on-yes-alone",
        "src/gqt/core.py",
        '    if not (yes or no):\n        return []\n    return [\n        Violation("PP=P"',
        '    if not yes:\n        return []\n    return [\n        Violation("PP=P"',
        ("tests/test_laws.py::test_laws_see_a_witness_on_their_second_side_only[3]",),
        "PP=P then goes quiet whenever the yes map is idempotent; the test's proposition has an idempotent "
        "yes map and a no map that is not.",
    ),
    Mutant(
        "unannihilated-early-on-fg-alone",
        "src/gqt/core.py",
        "if fg.count(n) == len(fg) == gf.count(n):",
        "if fg.count(n) == len(fg):",
        ("tests/test_laws.py::test_laws_see_a_witness_on_their_second_side_only[3]",),
        "The predicate then reports nothing when only `g` after `f` keeps a state; the test's maps compose "
        "to zero one way and keep s2 the other.",
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
        'if _model_entries(data) == text.count(":"):',
        'if _model_entries(data) <= text.count(":"):',
        ("tests/test_modelio.py::test_parse_rejects_duplicate_keys",),
        "Fewer entries than colons is what a repeated key gives; with `<=` the plain decode, which keeps "
        "the last value, is accepted.",
    ),
    Mutant(
        "model-entries-top-level-plus-one",
        "src/gqt/modelio.py",
        "total = len(data) + (3 + 2 *",
        "total = len(data) + 1 + (3 + 2 *",
        ("tests/test_modelio.py::test_documents_without_repeats_colons_or_escapes_skip_the_hook",),
        "No model document then matches its colon count, so each one falls back to `_load_json`, which "
        "the test makes fail.",
    ),
    Mutant(
        "model-entries-proposition-plus-one",
        "src/gqt/modelio.py",
        '(3 + 2 * len(data["states"]))',
        '(4 + 2 * len(data["states"]))',
        ("tests/test_modelio.py::test_documents_without_repeats_colons_or_escapes_skip_the_hook",),
        "Every model document with a proposition falls back to `_load_json`, which the test makes fail.",
    ),
    Mutant(
        "section-entries-observable-plus-one",
        "src/gqt/modelio.py",
        'sum(3 + len(body["family"])',
        'sum(4 + len(body["family"])',
        ("tests/test_modelio.py::test_documents_without_repeats_colons_or_escapes_skip_the_hook",),
        "Every model document with an observable falls back to `_load_json`, which the test makes fail.",
    ),
    Mutant(
        "section-entries-partition-plus-one",
        "src/gqt/modelio.py",
        'total += 3 + len(data["partition"]["local"])',
        'total += 4 + len(data["partition"]["local"])',
        ("tests/test_modelio.py::test_documents_without_repeats_colons_or_escapes_skip_the_hook",),
        "Every model document with a partition (the Bell fixture) falls back to `_load_json`, which the test "
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
        "writer-targets-shifted",
        "src/gqt/modelio.py",
        "map(refs.__getitem__, m.table[:n])",
        "map(refs.__getitem__, m.table[1:])",
        ("tests/test_modelio.py::test_writer_matches_json_dumps_at_every_table_kind[2]",),
        "Each state's key then carries the next state's target, the last one the zero slot's null; at two "
        "states the shift map's text no longer matches the stdlib encoder on the tests' dict builder.",
    ),
    Mutant(
        "writer-map-trailing-comma",
        "src/gqt/modelio.py",
        '["\\n      }"]',
        '[",\\n      }"]',
        ("tests/test_modelio.py::test_writer_matches_json_dumps_at_every_table_kind[1]",),
        "Every map then ends in a comma before its closing bracket, which `json.dumps` never writes; at "
        "one state the comma follows the map's only entry.",
    ),
    Mutant(
        "writer-targets-through-bytes",
        "src/gqt/modelio.py",
        "map(refs.__getitem__, m.table[:n])",
        "map(refs.__getitem__, bytes(m.table[:n]))",
        ("tests/test_modelio.py::test_writer_matches_json_dumps_at_every_table_kind[256]",),
        "A bytes table passes through unchanged, so only a tuple table, past 255 states, fails: its zero "
        "index 256 does not fit in a byte.  The shipped, golden and bench documents all stop below that.",
    ),
    Mutant(
        "cap-type-test-dropped",
        "src/gqt/quantum.py",
        '    if not core._is_int(cap):\n'
        '        raise StructuralError(f"orbit cap must be an integer, got {cap!r}")\n',
        "",
        ("tests/test_quantum.py::test_every_entry_point_refuses_a_cap_that_is_not_an_integer",),
        "A NaN or infinite cap then passes `cap < 1` and bounds nothing; the table test sends nan, inf, "
        "2.5, True and \"3\" through `settings`, `document_orbit` and `close_orbit`.",
    ),
    Mutant(
        "tol-check-by-isfinite",
        "src/gqt/core.py",
        "isinstance(value, (int, float)) and not isinstance(value, bool) and 0 <= value <= sys.float_info.max",
        "__import__('math').isfinite(value) and value >= 0",
        ("tests/test_quantum.py::test_every_entry_point_refuses_a_bad_tolerance[close_orbit-int-past-float]",),
        "`math.isfinite` converts an int to a float, so a tolerance of 2**1024 raises OverflowError "
        "where the document's bound refuses it with a StructuralError (and True passes as 1.0).",
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
        "quantum-builtin-name-unchecked",
        "src/gqt/modelio.py",
        "_parse_matrix(value, dim, _proposition_path(name))",
        '_parse_matrix(value, dim, f"propositions.{name}")',
        ("tests/test_modelio.py::test_parse_quantum_refuses_a_builtin_projector_name[ONE]",),
        "A projector named ONE then parses, and `Model.build` later puts the builtin in its place or "
        "refuses the name after the closure, without its field path.",
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
    Mutant(
        "generator-params-take-a-bool",
        "src/gqt/core.py",
        "return isinstance(value, int) and not isinstance(value, bool)",
        "return isinstance(value, int)",
        (
            "tests/test_checker.py::test_generator_params_and_fuzz_refuse_a_field_that_is_not_an_integer[n_states]",
            "tests/test_quantum.py::test_every_entry_point_refuses_a_cap_that_is_not_an_integer[settings-bool]",
            "tests/test_modelio.py::test_parse_quantum_refuses_a_number_of_the_wrong_type[dimension-bool]",
        ),
        "The one integer rule then takes True for 1: `GeneratorParams(True)` builds a one-state generator, "
        "`settings` takes a cap of True and a 1x1 quantum document of dimension true parses; each test "
        "wants the bool refused with its own message.",
    ),
    Mutant(
        "number-takes-a-bool",
        "src/gqt/modelio.py",
        "return isinstance(x, (int, float)) and not isinstance(x, bool)",
        "return isinstance(x, (int, float))",
        ("tests/test_modelio.py::test_parse_quantum_refuses_a_number_of_the_wrong_type[projector-bool]",),
        "A complex entry [true, 0] then parses as 1; the test wants the projector entry refused with the "
        "parser's message.",
    ),
    Mutant(
        "tolerance-takes-a-bool",
        "src/gqt/core.py",
        "isinstance(value, (int, float)) and not isinstance(value, bool) and 0 <= value",
        "isinstance(value, (int, float)) and 0 <= value",
        (
            "tests/test_modelio.py::test_parse_quantum_refuses_a_number_of_the_wrong_type[tolerance-bool]",
            "tests/test_quantum.py::test_every_entry_point_refuses_a_bad_tolerance[close_orbit-bool]",
        ),
        "A tolerance of True then passes as 1, in a document and at a library entry point alike, since "
        "both ask the one tolerance rule; the tests want it refused with each one's message.",
    ),
    Mutant(
        "orbit-repeat-reads-next-slot",
        "src/gqt/quantum.py",
        "slot = [distinct.index(key) for key in keys]",
        "slot = [distinct.index(key) + (keys.index(key) < a) for a, key in enumerate(keys)]",
        ("tests/test_quantum.py::test_matrix_listed_twice_joins_the_state_its_original_just_added",),
        "An action that repeats an earlier matrix then takes the images of the next distinct action: Q, "
        "listed twice with P0.5's matrix, sends |0> to P0.5's no-image and the ray at 1 instead of the two "
        "states P0.5 just added, against the linear reference.",
    ),
    Mutant(
        "one-identity-early-return-inverted",
        "src/gqt/core.py",
        "if fg == g.table == gf:",
        "if fg != g.table == gf:",
        ("tests/test_checker.py::test_idempotent_one_that_is_not_the_identity_breaks_one_identity",),
        "`_changed_by` then finds nothing when P after ONE is P but ONE after P is not; an idempotent "
        "ONE that is not the identity gives such a P, which `check_laws` reports at a and at c.",
    ),
    Mutant(
        "one-predicate-needs-both-composites-changed",
        "src/gqt/core.py",
        "if u != w or v != w]",
        "if u != w and v != w]",
        ("tests/test_checker.py::test_idempotent_one_that_is_not_the_identity_breaks_one_identity",),
        "`_changed_by` then lists a state only where both composites change it; an idempotent ONE that is "
        "not the identity changes P only on the ONE-after-P side, at a and at c, and `check_laws` reports nothing.",
    ),
    Mutant(
        "zeroed-by-all-early-return-inverted",
        "src/gqt/core.py",
        "    if not common:\n        return []",
        "    if common:\n        return []",
        ("tests/test_properties.py::test_zeroed_by_all_matches_a_per_state_scan",),
        "`_zeroed_by_all` then returns [] whenever some state is sent to zero by every map, so `consistency` "
        "and `completeness` never report; the test scans each state at 1 to 300 states.",
    ),
    Mutant(
        "settings-trusts-the-document",
        "src/gqt/quantum.py",
        "    _check_tol(tol)\n    _check_cap(cap)\n    return cap, tol",
        "    return cap, tol",
        ("tests/test_quantum.py::test_a_document_setting_is_checked_once_settled[tolerance-nan]",),
        "`settings` then returns a hand-built document's NaN tolerance, and `family_violations` reports "
        "every residue check failed against it; the test wants `_check_tol`'s message from `settings`.",
    ),
    Mutant(
        "quantum-document-holds-a-ghost-member",
        "src/gqt/modelio.py",
        "if spec.family[v] not in projectors:",
        "if False:",
        ("tests/test_modelio.py::test_quantum_document_refuses_a_family_member_it_does_not_hold",),
        "A document whose family names a projector it does not hold then builds, and `family_violations` "
        "and `document_orbit` raise a bare KeyError; the test wants the constructor's StructuralError.",
    ),
    Mutant(
        "partition-local-tag-of-any-type",
        "src/gqt/core.py",
        "if not all(isinstance(name, str) and isinstance(target, str) for name, target in local_tags.items()):",
        "if False:",
        ("tests/test_core.py::test_partition_refuses_a_tag_that_is_not_a_string[local-subsystem]",),
        "A partition with the local tag {'Z': 7} then builds, and `serialize_model` raises a TypeError on "
        "its model; the test wants the constructor's StructuralError.",
    ),
    Mutant(
        "partition-global-tag-of-any-type",
        "src/gqt/core.py",
        "if not all(isinstance(name, str) for name in global_tags):",
        "if False:",
        ("tests/test_core.py::test_partition_refuses_a_tag_that_is_not_a_string[global]",),
        "A partition with the global tag 3 then builds, and `serialize_model` raises a TypeError on its "
        "model; the test wants the constructor's StructuralError.",
    ),
    Mutant(
        "realize-ambiguous-from-three",
        "src/gqt/core.py",
        "if len(matches) > 1:",
        "if len(matches) > 2:",
        ("tests/test_core.py::test_realize_ambiguity_between_exactly_two_propositions",),
        "`realize` then returns the first of two propositions that share the derived map; the test lists "
        "Z0 under a second name and wants both named in `AmbiguousRealization`.",
    ),
    Mutant(
        "generator-max-spectrum-bound-nine",
        "src/gqt/checker.py",
        "(64, 16, 8, 8)",
        "(64, 16, 8, 9)",
        ("tests/test_checker.py::test_generator_params_take_each_count_bound_and_refuse_one_past_it[max_spectrum-2-8]",),
        "`GeneratorParams` then takes `max_spectrum=9`; the test wants one past each count bound refused "
        "with its message, which names the bound.",
    ),
    Mutant(
        "public-name-unlisted",
        "src/gqt/core.py",
        "_SIDE_PAIRS = (",
        "SIDE_PAIRS = _SIDE_PAIRS = (",
        ("tests/test_sources.py::test_public_names_are_the_readme_library_lists",),
        "`core` then defines a public name that the README's Library section does not list; the test "
        "reads each module's public names with `ast` and wants them equal to the README's list.",
    ),
    Mutant(
        "partition-global-duplicates-accepted",
        "src/gqt/core.py",
        '(("subsystem name", subsystems), ("global tag", global_tags))',
        '(("subsystem name", subsystems),)',
        ("tests/test_modelio.py::test_parse_partition_refuses_a_repeated_global_tag",),
        "A partition that tags one observable global twice then parses, and `validate` exits 0 or "
        "reports the unknown tag twice; the test wants the parser's `duplicate global tag` message.",
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
