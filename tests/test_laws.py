"""Differential test of the two law reports against a naive reference.

`core.validate_model` and `checker.check_laws` share their law
predicates, so their agreeing with each other proves nothing.  The
reference below is written straight from the README's law statements,
without the library's law code, and both reports must match it on every
single-entry mutation of the fixtures and of a few fuzzed models.
"""

from gqt import checker, core
from gqt.checker import GeneratorParams
from gqt.core import ZERO

from conftest import make_bell, make_bistable, make_qzx, mutate_entry

FUZZ_PARAMS = [
    GeneratorParams(n_states=5, n_props=3, n_obs=2, seed=1),
    GeneratorParams(n_states=6, n_props=4, n_obs=2, seed=2),
    GeneratorParams(n_states=6, n_props=4, n_obs=3, seed=3),
    GeneratorParams(n_states=7, n_props=4, n_obs=2, seed=4),
    GeneratorParams(n_states=4, n_props=3, n_obs=2, seed=5),
]


def reference_laws(model):
    """(law, subjects, witness) for the five laws, from their statements.

    idempotence: side(side(z)) = side(z) for side in yes, no;
    annihilation: no(yes(z)) = null and yes(no(z)) = null;
    consistency: yes(z) and no(z) are not both null;
    mutual exclusion: value v is impossible after a different value u;
    completeness: some value is possible at z.
    """
    found = set()
    states = model.space.states
    for name, p in model.propositions.items():
        yes, no = p.yes, p.no
        for z in states:
            for side, m in (("yes", yes), ("no", no)):
                if m(m(z)) != m(z):
                    found.add(("idempotence", (name, side), (z,)))
            if no(yes(z)) is not ZERO or yes(no(z)) is not ZERO:
                found.add(("annihilation", (name,), (z,)))
            if yes(z) is ZERO and no(z) is ZERO:
                found.add(("consistency", (name,), (z,)))
    for name, a in model.observables.items():
        for z in states:
            for v in a.spectrum:
                for u in a.spectrum:
                    if v != u and a.family[v].yes(a.family[u].yes(z)) is not ZERO:
                        found.add(("mutual-exclusion", (name, v, u), (z,)))
            if all(a.family[v].yes(z) is ZERO for v in a.spectrum):
                found.add(("completeness", (name,), (z,)))
    return found


# Report ids of the five laws, mapped to the reference's names.
VALIDATE_IDS = {
    "idempotence-yes": "idempotence",
    "idempotence-no": "idempotence",
    "annihilation": "annihilation",
    "consistency": "consistency",
    "mutual-exclusion": "mutual-exclusion",
    "completeness": "completeness",
}
CHECK_IDS = {
    "PP=P": "idempotence",
    "P·negP=0": "annihilation",
    "consistency": "consistency",
    "mutual-exclusion": "mutual-exclusion",
    "completeness": "completeness",
}


def from_validate(report):
    out = set()
    for v in report:
        if v.law in VALIDATE_IDS:
            subjects = v.subjects + (v.law.split("-")[1],) if v.law.startswith("idempotence-") else v.subjects
            out.add((VALIDATE_IDS[v.law], subjects, v.witness))
    return out


def from_check(report):
    return {(CHECK_IDS[v.law], v.subjects, v.witness) for v in report if v.law in CHECK_IDS}


def single_entry_mutants(model):
    targets = list(model.space.states) + [ZERO]
    for name in sorted(model.propositions):
        if name in core.RESERVED_PROPOSITION_NAMES:
            continue
        for side in ("yes", "no"):
            m = model.propositions[name].side(side)
            for z in model.space.states:
                for t in targets:
                    if t != m(z):
                        yield (name, side, z, t), mutate_entry(model, name, side, z, t)


def test_reports_match_reference_on_every_single_entry_mutant():
    bases = [make_qzx(), make_bell(), make_bistable()] + [checker.generate_model(p) for p in FUZZ_PARAMS]
    n_mutants = 0
    seen_laws = set()
    for base in bases:
        assert reference_laws(base) == set()
        for edit, mutant in single_entry_mutants(base):
            n_mutants += 1
            want = reference_laws(mutant)
            seen_laws.update(law for law, _, _ in want)
            assert from_validate(core.validate_model(mutant)) == want, edit
            assert from_check(checker.check_laws(mutant)) == want, edit
    assert n_mutants == 2292
    assert seen_laws == set(CHECK_IDS.values())


# ---------------------------------------------------------------------------
# Eigenstate queries against the per-state scans they replaced.
#
# `core` reads every eigenstate query off `Observable.eigenvalues`.  The
# references below ignore that table: they rescan the branch tables at
# every state, and match the joint-eigenstate law against the pair's common
# eigenstates by name.


def reference_eigenstates_of_proposition(p):
    out = []
    for z in sorted(p.space.states):
        i = p.space.index[z]
        if p.yes.table[i] == i:
            out.append((z, "yes"))
        if p.no.table[i] == i:
            out.append((z, "no"))
    return out


def reference_eigenstates_of_observable(a):
    out = []
    for z in sorted(a.space.states):
        i = a.space.index[z]
        for value in a.spectrum:
            if a.family[value].yes.table[i] == i:
                out.append((z, value))
    return out


def reference_common_eigenstates(a, b):
    out = []
    for z in sorted(a.space.states):
        i = a.space.index[z]
        a_vals = [v for v in a.spectrum if a.family[v].yes.table[i] == i]
        if not a_vals:
            continue
        b_vals = [v for v in b.spectrum if b.family[v].yes.table[i] == i]
        out.extend((z, va, vb) for va in a_vals for vb in b_vals)
    return out


def reference_unreached_joint_eigenstates(a, b, common):
    """States from which no `b` branch after an `a` branch lands on a listed common eigenstate."""
    common = set(common)
    return [
        z
        for z in a.space.states
        if not any((b.family[vb].yes(a.family[va].yes(z)), va, vb) in common for va in a.spectrum for vb in b.spectrum)
    ]


def assert_eigen_queries_match_reference(model):
    for p in model.propositions.values():
        assert core.eigenstates_of_proposition(p) == reference_eigenstates_of_proposition(p), p.name
    observables = [model.observables[name] for name in sorted(model.observables)]
    for a in observables:
        assert core.eigenstates_of_observable(a) == reference_eigenstates_of_observable(a), a.name
    for a in observables:
        for b in observables:
            common = reference_common_eigenstates(a, b)
            assert core.common_eigenstates(a, b) == common, (a.name, b.name)
            _, ev = core.classify_pair(a, b)
            assert list(ev.common) == common, (a.name, b.name)
            # Applied to every pair, not just the compatible ones, so that
            # incomplete and non-idempotent families reach the law too.
            got = core.compatible_reaches_joint_eigenstate(a, b, core.PairClass.COMPATIBLE, ev)
            want = [(z,) for z in reference_unreached_joint_eigenstates(a, b, common)]
            assert [v.witness for v in got] == want, (a.name, b.name)


def test_eigen_queries_match_reference_on_every_single_entry_mutant():
    bases = [make_qzx(), make_bell(), make_bistable()] + [checker.generate_model(p) for p in FUZZ_PARAMS]
    for base in bases:
        assert_eigen_queries_match_reference(base)
        for _, mutant in single_entry_mutants(base):
            assert_eigen_queries_match_reference(mutant)
