"""Differential test of the two law reports against a naive reference.

`core.validate_model` and `checker.check_laws` share their law
predicates, so their agreeing with each other proves nothing.  The
reference below is written straight from the README's law statements,
without the library's law code, and both reports must match it on every
single-entry mutation of the fixtures and of a few fuzzed models
(`check_laws` also on models with a broken builtin, in
`test_properties.py`).  A
map's table is bytes up to 255 states and a tuple beyond; the tests force
tuples at small sizes too, and mix the two, and hold every form to the
reference.
"""

import json
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from gqt import checker, core
from gqt.checker import GeneratorParams
from gqt.core import ZERO, Observable, PropMap, Proposition, StateSpace, Violation

from conftest import (
    eigenstates_of_proposition,
    force_every_pair_compatible,
    make_bell,
    make_bistable,
    make_qzx,
    mutate_entry,
)

FUZZ_PARAMS = [
    GeneratorParams(n_states=5, n_props=3, n_obs=2, seed=1),
    GeneratorParams(n_states=6, n_props=4, n_obs=2, seed=2),
    GeneratorParams(n_states=6, n_props=4, n_obs=3, seed=3),
    GeneratorParams(n_states=7, n_props=4, n_obs=2, seed=4),
    GeneratorParams(n_states=4, n_props=3, n_obs=2, seed=5),
]


def reference_laws(model):
    """(law, subjects, witness) for the five laws and the three builtin
    compositions, from their statements.

    idempotence: side(side(z)) = side(z) for side in yes, no;
    annihilation: no(yes(z)) = null and yes(no(z)) = null;
    consistency: yes(z) and no(z) are not both null;
    mutual exclusion: value v is impossible after a different value u;
    completeness: some value is possible at z;
    0P=P0=0: ZERO.yes(yes(z)) and yes(ZERO.yes(z)) are null;
    1P=P1=P: ONE.yes(yes(z)) and yes(ONE.yes(z)) are yes(z);
    1ANDP=P: ONE.yes(yes(z)) is yes(z), at the first state where it is not.

    The last three are against the model's own ZERO and ONE, when it has them.
    """
    found = set()
    states = model.space.states
    one, zero = model.propositions.get("ONE"), model.propositions.get("ZERO")
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
            if zero is not None and (zero.yes(yes(z)) is not ZERO or yes(zero.yes(z)) is not ZERO):
                found.add(("0P=P0=0", (name,), (z,)))
            if one is not None and (one.yes(yes(z)) != yes(z) or yes(one.yes(z)) != yes(z)):
                found.add(("1P=P1=P", (name,), (z,)))
        if one is not None:
            first = next((z for z in states if one.yes(yes(z)) != yes(z)), None)
            if first is not None:
                found.add(("1ANDP=P", (name,), (first,)))
    for name, a in model.observables.items():
        for z in states:
            for v in a.spectrum:
                for u in a.spectrum:
                    if v != u and a.family[v].yes(a.family[u].yes(z)) is not ZERO:
                        found.add(("mutual-exclusion", (name, v, u), (z,)))
            if all(a.family[v].yes(z) is ZERO for v in a.spectrum):
                found.add(("completeness", (name,), (z,)))
    return found


def reference_structure(model):
    """(law, subjects, witness) for `validate`'s three structural laws, from
    their statements.

    builtin-structure: the model holds ONE, whose yes map keeps every state
    and whose no map sends every state to null, and ZERO, the other way round;
    partition-reference: every local tag names an observable of the model
    and a subsystem of the partition, and every global tag an observable;
    partition-overlap: no observable is tagged both local and global.
    """
    found = set()
    for name, kept, killed in (("ONE", "yes", "no"), ("ZERO", "no", "yes")):
        p = model.propositions.get(name)
        if p is None or any(p.side(kept)(z) != z or p.side(killed)(z) is not ZERO for z in model.space.states):
            found.add(("builtin-structure", (name,), ()))
    part = model.partition
    if part is not None:
        for name, subsystem in part.local_tags.items():
            if name not in model.observables or subsystem not in part.subsystems:
                found.add(("partition-reference", (name,), ()))
            if name in part.global_tags:
                found.add(("partition-overlap", (name,), ()))
        for name in part.global_tags:
            if name not in model.observables:
                found.add(("partition-reference", (name,), ()))
    return found


STRUCTURE_LAWS = ("builtin-structure", "partition-reference", "partition-overlap")


def from_structure(report):
    return {(v.law, v.subjects, v.witness) for v in report if v.law in STRUCTURE_LAWS}


# Report ids, mapped to the reference's names.
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
    "0P=P0=0": "0P=P0=0",
    "1P=P1=P": "1P=P1=P",
    "1ANDP=P": "1ANDP=P",
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


def mutant_bases():
    return [make_qzx(), make_bell(), make_bistable()] + [checker.generate_model(p) for p in FUZZ_PARAMS]


def checked_mutant_reports(table_type, builtins=None):
    """Both reports of every single-entry mutant, each held to the reference.

    `builtins`, when given, maps each base's space to the ONE and ZERO that
    replace the mutant's own."""
    n_mutants = 0
    seen_laws = set()
    reports = []
    for base in mutant_bases():
        assert all(type(m.table) is table_type for p in base.propositions.values() for m in (p.yes, p.no))
        assert reference_laws(base) == set()
        for edit, mutant in single_entry_mutants(base):
            if builtins is not None:
                props = {**mutant.propositions, **builtins[mutant.space]}
                mutant = core.Model(mutant.space, props, mutant.observables, mutant.partition)
            n_mutants += 1
            want = reference_laws(mutant)
            seen_laws.update(law for law, _, _ in want)
            validated, checked = core.validate_model(mutant), checker.check_laws(mutant)
            assert from_validate(validated) == want, edit
            assert from_check(checked) == want, edit
            reports.append((validated, checked))
    assert n_mutants == 2292
    # A mutant keeps its builtins, so it breaks only the five laws.
    assert seen_laws == set(VALIDATE_IDS.values())
    return reports


@pytest.fixture(scope="module")
def coded():
    """The byte-table sweep, run once for the module: a module fixture is
    set up before any test's monkeypatch."""
    return checked_mutant_reports(bytes)


def test_reports_match_reference_on_every_single_entry_mutant(coded):
    assert len(coded) == 2292


def test_reports_match_reference_on_every_single_entry_mutant_scan_only(coded, monkeypatch):
    # Every map built from here on has a tuple table; the reports keep
    # their order and wording.
    monkeypatch.setattr(core, "_table", tuple)
    assert checked_mutant_reports(tuple) == coded


def test_reports_match_reference_with_byte_builtins_among_tuple_maps(coded, monkeypatch):
    builtins = {b.space: {name: b.propositions[name] for name in ("ONE", "ZERO")} for b in mutant_bases()}
    monkeypatch.setattr(core, "_table", tuple)
    # A composite of a byte map with a tuple map is a tuple, so a fast
    # return can meet a table of the other type; the witnesses are listed
    # from the same composites.
    mixed = checked_mutant_reports(tuple, builtins)
    # validate_model also compares ONE and ZERO with fresh builtins, whose
    # tables are tuples here, and maps with tables of two types never compare equal.
    malformed = [
        Violation("builtin-structure", (name,), (), f"builtin proposition {name} is malformed") for name in ("ONE", "ZERO")
    ]
    assert mixed == [(malformed + validated, checked) for validated, checked in coded]


# ---------------------------------------------------------------------------
# The law predicates, on both table types, against plain per-state definitions.
#
# Tables are bytes up to 255 states (256 entries) and tuples from 256
# states on; "scan-only" forces tuples at every size.


def edge_map(space, base, changes):
    """The identity or the constant-zero map of `space`, with `changes` applied."""
    n = len(space)
    table = list(range(n + 1)) if base == "identity" else [n] * (n + 1)
    for i, w in changes.items():
        table[i] = w
    return PropMap(space, table)


def edge_witnesses(n):
    """Each predicate's witnesses on maps over `n` states built so that the
    only witnesses are states 0 and n - 1."""
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    identity, zero = edge_map(space, "identity", {}), edge_map(space, "zero", {})
    ends_to_zero = edge_map(space, "identity", {0: n, n - 1: n})
    ends_kept = edge_map(space, "zero", {0: 0, n - 1: n - 1})
    p = Proposition("P", identity, zero)
    family = {"a": Proposition("A", ends_to_zero, zero), "b": Proposition("B", zero, identity)}
    one = Proposition("ONE", ends_to_zero, zero)
    steps = edge_map(space, "identity", {0: 1, 1: 2, n - 1: n - 2, n - 2: n - 3})
    shift_in = edge_map(space, "identity", {0: 1, n - 1: n - 2})
    shift_out = edge_map(space, "identity", {1: 2, n - 2: n - 3})
    maps = [identity, zero, ends_to_zero, ends_kept, steps, shift_in, shift_out]
    witnesses = {
        "unfixed_points": core.unfixed_points(steps),
        "unannihilated": [z for z, _, _ in core.unannihilated(ends_kept, identity)],
        "noncommuting": [z for z, _, _ in core.noncommuting(shift_in, shift_out)],
        "consistency": [v.witness[0] for v in core.consistency(Proposition("P", ends_to_zero, zero))],
        "completeness": [v.witness[0] for v in core.completeness(Observable("A", ("a", "b"), family))],
        "zero_absorbs": [v.witness[0] for v in core.zero_absorbs(Proposition("ZERO", ends_kept, identity), p)],
        "one_is_identity": [v.witness[0] for v in core.one_is_identity(one, p)],
        "one_and_is_identity": [v.witness[0] for v in core.one_and_is_identity(one, p)],
    }
    return maps, witnesses


@pytest.mark.parametrize("coded", [True, False], ids=["byte-coded", "scan-only"])
@pytest.mark.parametrize("n", [255, 256, 300])
def test_predicates_find_witnesses_at_both_ends(n, coded, monkeypatch):
    if not coded:
        monkeypatch.setattr(core, "_table", tuple)
    maps, witnesses = edge_witnesses(n)
    assert all(type(m.table) is (bytes if coded and n <= 255 else tuple) for m in maps)
    ends = ["s0", f"s{n - 1}"]
    for name, got in witnesses.items():
        assert got == (ends[:1] if name == "one_and_is_identity" else ends), name


@pytest.mark.parametrize("n", [3, 256])
def test_laws_see_a_witness_on_their_second_side_only(n):
    # Each law returns early only when both of its sides show no witness:
    # here the yes map is idempotent and the no map is not, and no after
    # yes is zero everywhere while yes after no keeps s2.
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    zero = edge_map(space, "zero", {})
    steps = edge_map(space, "identity", {0: 1, 1: 2})
    p = Proposition("P", zero, steps)
    assert [v.witness for v in core.idempotent_maps(p)] == [("s0",)]
    assert [v.law for v in core.idempotence(p)] == ["idempotence-no"]
    g, f = edge_map(space, "zero", {0: 1}), edge_map(space, "zero", {2: 0})
    assert core.unannihilated(f, g) == [("s2", n, 1)]
    q = Proposition("Q", g, f)
    assert [v.witness for v in core.negation_annihilates(q)] == [("s2",)]
    assert [v.detail for v in core.annihilation(q)] == ["yes(no(s2)) = s1, expected null"]
    assert [v.witness for v in core.zero_absorbs(Proposition("ZERO", f, zero), q)] == [("s2",)]


@st.composite
def tables_over(draw, n):
    """A table over `n` states: random, or the identity or constant zero
    with a few entries changed, so that both no-witness and few-witness
    maps are common."""
    base = draw(st.sampled_from(["random", "identity", "zero"]))
    if base == "random":
        return [*draw(st.lists(st.integers(0, n), min_size=n, max_size=n)), n]
    table = list(range(n + 1)) if base == "identity" else [n] * (n + 1)
    for i, w in draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, n), max_size=3)).items():
        table[i] = w
    return table


@st.composite
def map_triples(draw):
    n = draw(st.integers(1, 300))
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    return [PropMap(space, draw(tables_over(n))) for _ in range(3)]


@settings(max_examples=100, deadline=None)
@given(map_triples())
def test_predicates_match_plain_definitions(maps):
    f, g, h = maps
    space = f.space
    n, states = len(space), space.states
    ft, gt, ht = f.table, g.table, h.table
    both = [(states[i], ft[gt[i]], gt[ft[i]]) for i in range(n)]
    assert core.unfixed_points(f) == [states[i] for i in range(n) if ft[ft[i]] != ft[i]]
    assert core.unannihilated(f, g) == [(z, fg, gf) for z, fg, gf in both if fg != n or gf != n]
    assert core.noncommuting(f, g) == [(z, fg, gf) for z, fg, gf in both if fg != gf]
    p = Proposition("P", f, g)
    assert [v.witness for v in core.consistency(p)] == [(states[i],) for i in range(n) if ft[i] == gt[i] == n]
    family = {"a": p, "b": Proposition("Q", g, f), "c": Proposition("R", h, f)}
    want = [(states[i],) for i in range(n) if ft[i] == gt[i] == ht[i] == n]
    assert [v.witness for v in core.completeness(Observable("A", ("a", "b", "c"), family))] == want
    one = Proposition("ONE", h, g)
    changed = [(states[i],) for i in range(n) if ht[ft[i]] != ft[i] or ft[ht[i]] != ft[i]]
    assert [v.witness for v in core.one_is_identity(one, p)] == changed
    after_one = [(states[i],) for i in range(n) if ht[ft[i]] != ft[i]]
    assert [v.witness for v in core.one_and_is_identity(one, p)] == after_one[:1]


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


def reference_commutation_witness(p, q):
    """The first state where `p` and `q` fail to commute, scanning the sides
    yes/yes, yes/no, no/yes and no/no, then the states in declaration
    order; None when they commute."""
    for sp in ("yes", "no"):
        for sq in ("yes", "no"):
            fp, fq = p.side(sp).table, q.side(sq).table
            for i, z in enumerate(p.space.states):
                pq, qp = fp[fq[i]], fq[fp[i]]
                if pq != qp:
                    return core.CommutationWitness(p.name, q.name, sp, sq, z, p.space.ref(pq), p.space.ref(qp))
    return None


def reference_pair_class(a, b, common):
    """The class and witness as found by scanning every branch pair of the
    two observables for a commutation witness, then reading `common`, the
    pair's whole list of common eigenstates."""
    for va in a.spectrum:
        for vb in b.spectrum:
            witness = reference_commutation_witness(a.family[va], b.family[vb])
            if witness is not None:
                return (core.PairClass.COMPLEMENTARY if common else core.PairClass.STRONGLY_COMPLEMENTARY), witness
    return core.PairClass.COMPATIBLE, None


def assert_eigen_queries_match_reference(model):
    for p in model.propositions.values():
        assert eigenstates_of_proposition(p) == reference_eigenstates_of_proposition(p), p.name
    observables = [model.observables[name] for name in sorted(model.observables)]
    for a in observables:
        assert core.eigenstates_of_observable(a) == reference_eigenstates_of_observable(a), a.name
    for a in observables:
        for b in observables:
            common = reference_common_eigenstates(a, b)
            assert core.common_eigenstates(a, b) == common, (a.name, b.name)
            assert core._share_an_eigenstate(a, b) == bool(common), (a.name, b.name)
            cls_, witness = reference_pair_class(a, b, common)
            assert core.pair_class(a, b) == (cls_, witness), (a.name, b.name)
            assert core.classify_pair(a, b) == (cls_, core.PairEvidence(witness, tuple(common))), (a.name, b.name)
            # Applied to every pair, not just the compatible ones, so that
            # incomplete and non-idempotent families reach the law too.
            got = core.compatible_reaches_joint_eigenstate(a, b)
            want = [(z,) for z in reference_unreached_joint_eigenstates(a, b, common)]
            assert [v.witness for v in got] == want, (a.name, b.name)


def test_eigen_queries_match_reference_on_every_single_entry_mutant():
    bases = [make_qzx(), make_bell(), make_bistable()] + [checker.generate_model(p) for p in FUZZ_PARAMS]
    for base in bases:
        assert_eigen_queries_match_reference(base)
        for _, mutant in single_entry_mutants(base):
            assert_eigen_queries_match_reference(mutant)


# ---------------------------------------------------------------------------
# check_laws applies the pair laws, theorems about compatible pairs, to the
# pairs that pair_class calls compatible, and to no other pair.

PAIR_LAW_IDS = {"compat-implies-joint-eigenstate", "strongcomp-implies-comp", "compat-order-independence"}
GENERATOR_GOLDEN = Path(__file__).resolve().parent / "golden" / "generate_model.json"


def generator_golden_models():
    keys = json.loads(GENERATOR_GOLDEN.read_text(encoding="utf-8"))["sha256"]
    return [checker.generate_model(GeneratorParams(*map(int, key.split()))) for key in keys]


def assert_check_laws_matches_the_pair_laws(model):
    """`check_laws` reports what every pair law says on every pair that
    `core.pair_class` calls compatible, after the other laws."""
    checked = checker.check_laws(model)
    observables = [model.observables[name] for name in sorted(model.observables)]
    pair_reports = [
        v
        for i, a in enumerate(observables)
        for b in observables[i:]
        if core.pair_class(a, b)[0] is core.PairClass.COMPATIBLE
        for law in core.PAIR_LAWS
        for v in law(a, b)
    ]
    assert checked == [v for v in checked if v.law not in PAIR_LAW_IDS] + pair_reports


def test_pair_class_matches_reference_on_the_generator_goldens():
    models = generator_golden_models()
    assert len(models) == 378
    classes = set()
    for model in models:
        observables = list(model.observables.values())
        for a in observables:
            for b in observables:
                common = reference_common_eigenstates(a, b)
                assert core._share_an_eigenstate(a, b) == bool(common), (a.name, b.name)
                cls_, witness = reference_pair_class(a, b, common)
                assert core.pair_class(a, b) == (cls_, witness), (a.name, b.name)
                assert core.classify_pair(a, b) == (cls_, core.PairEvidence(witness, tuple(common)))
                classes.add(cls_)
    assert classes == set(core.PairClass)


# check_laws decides on its own which pairs go to the pair laws, with the
# commutation scan and no pair_class; the pairs it hands them are held to
# the reference scan through a recording law.


def reference_compatible(a, b):
    # The common eigenstates decide only between the two complementary classes.
    return reference_pair_class(a, b, ())[0] is core.PairClass.COMPATIBLE


@pytest.fixture
def pairs_given_the_pair_laws(monkeypatch):
    """A function that runs `check_laws` on a model with one recording law
    in place of `core.PAIR_LAWS` and returns the name pairs that law was
    given, in order."""
    given = []
    monkeypatch.setattr(core, "PAIR_LAWS", (lambda a, b: given.append((a.name, b.name)) or [],))

    def run(model):
        given.clear()
        checker.check_laws(model)
        return given.copy()

    return run


def assert_check_laws_selects_the_compatible_pairs(pairs_given_the_pair_laws, model):
    """`check_laws` gives the pair laws, once each and in name order, the
    pairs `(a, b)` with `a <= b` that the reference calls compatible."""
    names, obs = sorted(model.observables), model.observables
    want = [(x, y) for i, x in enumerate(names) for y in names[i:] if reference_compatible(obs[x], obs[y])]
    assert pairs_given_the_pair_laws(model) == want


def test_compatible_matches_reference_on_the_generator_goldens(pairs_given_the_pair_laws):
    models = generator_golden_models()
    assert len(models) == 378
    for model in models:
        assert_check_laws_selects_the_compatible_pairs(pairs_given_the_pair_laws, model)


def test_compatible_matches_reference_on_every_single_entry_mutant(pairs_given_the_pair_laws):
    for base in mutant_bases():
        assert_check_laws_selects_the_compatible_pairs(pairs_given_the_pair_laws, base)
        for _, mutant in single_entry_mutants(base):
            assert_check_laws_selects_the_compatible_pairs(pairs_given_the_pair_laws, mutant)


def hand_made_pair(n, failing):
    """Observables A and B over `n` states that commute everywhere but on
    one branch pair and one side pair.  With `failing` "no-no", A and B
    each have one branch, whose yes maps are the identity and whose no
    maps do not commute.  With "last-branch-pair", each has a first branch
    with the identity as yes map and last branches whose yes maps do not
    commute; every other map sends each state to the zero state."""
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    identity, zero = list(range(n + 1)), [n] * (n + 1)
    # f sends s0 to s1 and g sends s1 to s2, so f(g(s0)) = s1 but g(f(s0)) = s2.
    f, g = identity.copy(), identity.copy()
    f[0], g[1] = 1, 2

    def prop(name, yes, no):
        return Proposition(name, PropMap(space, yes), PropMap(space, no))

    if failing == "no-no":
        return Observable("A", ("u",), {"u": prop("P", identity, f)}), Observable("B", ("w",), {"w": prop("Q", identity, g)})
    one_a, one_b = prop("I", identity, zero), prop("J", identity, zero)
    a = Observable("A", ("u0", "u1"), {"u0": one_a, "u1": prop("P", f, zero)})
    b = Observable("B", ("w0", "w1"), {"w0": one_b, "w1": prop("Q", g, zero)})
    return a, b


@pytest.mark.parametrize("n", [3, 256])
@pytest.mark.parametrize("failing", ["no-no", "last-branch-pair"])
def test_compatible_sees_a_pair_that_fails_on_one_side_of_one_branch_pair(failing, n, pairs_given_the_pair_laws):
    a, b = hand_made_pair(n, failing)
    side = "no" if failing == "no-no" else "yes"
    p, q = a.family[a.spectrum[-1]], b.family[b.spectrum[-1]]
    witness = core.CommutationWitness(p.name, q.name, side, side, "s0", "s1", "s2")
    # Every state is an eigenstate of both first branches.
    assert core.pair_class(a, b) == (core.PairClass.COMPLEMENTARY, witness)
    for x in (a, b):
        for y in (a, b):
            compatible = core.pair_class(x, y)[0] is core.PairClass.COMPATIBLE
            assert compatible == reference_compatible(x, y) == (x is y), (x.name, y.name)
    model = core.Model.build(a.space, [*a.family.values(), *b.family.values()], (a, b))
    assert_check_laws_selects_the_compatible_pairs(pairs_given_the_pair_laws, model)


@pytest.mark.parametrize("forced", [False, True], ids=["classified", "every-pair-compatible"])
def test_check_laws_matches_the_pair_laws_on_full_evidence(monkeypatch, forced):
    if forced:
        # Every pair law then fires wherever its statement fails, on pairs
        # of every class.
        force_every_pair_compatible(monkeypatch)
    for model in generator_golden_models():
        assert_check_laws_matches_the_pair_laws(model)
    for base in mutant_bases():
        for _, mutant in single_entry_mutants(base):
            assert_check_laws_matches_the_pair_laws(mutant)
