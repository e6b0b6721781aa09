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
