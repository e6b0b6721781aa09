"""Property-based checks.

The proposition strategy here mirrors the generator's eigen/contingent
construction but is written independently, so agreement between the two
is evidence rather than tautology.  Law statements are re-derived inline
from the map tables instead of calling the validators under test, except
in `unguarded_check_laws`, which applies `core`'s proposition laws without
`check_laws`'s builtin guard, the thing under test there.
"""

import json
import random
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from gqt import checker, core, modelio
from gqt.core import (
    ZERO,
    Model,
    Observable,
    Partition,
    PropMap,
    Proposition,
    StateSpace,
    compose,
    conjunction,
    is_compatible_propositions,
    make_one,
    make_zero,
    modal_status,
    negate,
)

from conftest import eigenstates_of_proposition, make_bell, make_bistable, make_qzx
from test_laws import (
    assert_eigen_queries_match_reference,
    from_check,
    from_structure,
    reference_laws,
    reference_structure,
)
from test_modelio import (
    Pairs,
    assert_entries_follow_the_schema,
    dump_pairs,
    dumps_oracle,
    hook_outcome,
    load_pairs,
    outcome,
)


@st.composite
def spaces(draw, max_states=6):
    n = draw(st.integers(1, max_states))
    return StateSpace(tuple(f"s{i}" for i in range(n)))


@st.composite
def propositions_over(draw, space, name="P"):
    # Partition states into yes-eigen / no-eigen / contingent; contingent
    # states map into the eigen groups.  Any proposition satisfying the
    # pointwise laws has this shape, so the strategy is exhaustive up to
    # which laws we test.
    states = space.states
    statuses = [draw(st.sampled_from("YNC")) for _ in states]
    if all(s == "C" for s in statuses):
        statuses[draw(st.integers(0, len(states) - 1))] = draw(st.sampled_from("YN"))
    yes_eigen = [z for z, s in zip(states, statuses) if s == "Y"]
    no_eigen = [z for z, s in zip(states, statuses) if s == "N"]
    yes, no = {}, {}
    for z, s in zip(states, statuses):
        if s == "Y":
            yes[z], no[z] = z, ZERO
        elif s == "N":
            yes[z], no[z] = ZERO, z
        else:
            ty = draw(st.sampled_from(yes_eigen + [ZERO]))
            tn = draw(st.sampled_from(no_eigen + [ZERO]))
            if ty is ZERO and tn is ZERO:
                if yes_eigen:
                    ty = draw(st.sampled_from(yes_eigen))
                else:
                    tn = draw(st.sampled_from(no_eigen))
            yes[z], no[z] = ty, tn
    return Proposition(name, PropMap.from_names(space, yes), PropMap.from_names(space, no))


@st.composite
def space_and_props(draw, max_props=3):
    space = draw(spaces())
    k = draw(st.integers(1, max_props))
    return space, [draw(propositions_over(space, f"P{i}")) for i in range(k)]


@st.composite
def generated_models(draw):
    params = checker.GeneratorParams(
        n_states=draw(st.integers(1, 10)),
        n_props=draw(st.integers(0, 5)),
        n_obs=draw(st.integers(0, 3)),
        max_spectrum=draw(st.integers(2, 5)),
        seed=draw(st.integers(0, 2**32)),
    )
    return checker.generate_model(params)


# Names for the writer's oracle test: every character JSON escapes or a
# hand-written writer could get wrong, plus plain letters, and the colon,
# which sends the parser's decode to the duplicate-key hook.
NAME_CHARS = st.sampled_from(
    ['"', "\\", *map(chr, range(0x20)), "\x7f", "\u2028", "\u2029", "\u00ac", " ", "\U0001F600", "\U00010000"]
    + ["a", "\u00e9", ":"]
)
names = st.text(NAME_CHARS, min_size=1, max_size=4)


@st.composite
def hostile_models(draw):
    # No model law is imposed: the writer must render any table faithfully.
    space = StateSpace(tuple(draw(st.lists(names, min_size=1, max_size=5, unique=True))))
    n = len(space)
    table = st.lists(st.integers(0, n), min_size=n, max_size=n).map(lambda t: PropMap(space, [*t, n]))
    props = [Proposition(name, draw(table), draw(table)) for name in draw(st.lists(names, max_size=3, unique=True))]
    members = st.sampled_from([*props, make_one(space), make_zero(space)])
    observables = []
    for name in draw(st.lists(names, max_size=3, unique=True)):
        spectrum = draw(st.lists(names, min_size=1, max_size=3, unique=True))
        observables.append(Observable(name, tuple(spectrum), {v: draw(members) for v in spectrum}))
    partition = None
    if draw(st.booleans()):
        partition = Partition(
            tuple(draw(st.lists(names, min_size=1, max_size=3, unique=True))),
            draw(st.dictionaries(names, names, max_size=3)),
            tuple(draw(st.lists(names, max_size=3, unique=True))),
        )
    return Model.build(space, props, observables, partition)


# ---------------------------------------------------------------------------
# Pointwise proposition laws


@given(space_and_props())
def test_strategy_propositions_obey_pointwise_laws(sp):
    space, props = sp
    for p in props:
        assert [v for law in core.PROPOSITION_LAWS for v in law(p)] == []
        yes, no = p.yes, p.no
        for z in space.states:
            w = yes(z)
            assert w is ZERO or yes(w) == w
            w = no(z)
            assert w is ZERO or no(w) == w
            assert no(yes(z)) is ZERO
            assert yes(no(z)) is ZERO
            assert not (yes(z) is ZERO and no(z) is ZERO)


@given(space_and_props(max_props=1))
def test_negate_involution_swaps_everything(sp):
    space, (p,) = sp
    q = negate(p)
    assert negate(q) == p
    assert q.yes == p.no and q.no == p.yes
    flipped = {"yes": "no", "no": "yes"}
    assert eigenstates_of_proposition(q) == [(z, flipped[side]) for z, side in eigenstates_of_proposition(p)]


@given(space_and_props(max_props=1))
def test_modal_trichotomy(sp):
    space, (p,) = sp
    for z in space.states:
        status = modal_status(p, z)
        if p.yes(z) is ZERO:
            assert status is core.ModalStatus.IMPOSSIBLE
        elif p.no(z) is ZERO:
            assert status is core.ModalStatus.CERTAIN
        else:
            assert status is core.ModalStatus.POSSIBLE


@given(space_and_props(max_props=1))
def test_yes_images_are_yes_eigenstates(sp):
    space, (p,) = sp
    eigen = set(eigenstates_of_proposition(p))
    for z in space.states:
        w = p.yes(z)
        if w is not ZERO:
            assert (w, "yes") in eigen
        w = p.no(z)
        if w is not ZERO:
            assert (w, "no") in eigen


# ---------------------------------------------------------------------------
# Compatibility


@given(space_and_props(max_props=1))
def test_builtins_and_negation_are_compatible(sp):
    space, (p,) = sp
    for q in (make_one(space), make_zero(space), p, negate(p)):
        ok, witness = is_compatible_propositions(p, q)
        assert ok and witness is None


@given(space_and_props(max_props=2))
def test_compatibility_verdict_matches_direct_scan(sp):
    space, props = sp
    p, q = props[0], props[-1]
    ok, witness = is_compatible_propositions(p, q)
    clashes = []
    for sp_, sq_ in (("yes", "yes"), ("yes", "no"), ("no", "yes"), ("no", "no")):
        mp, mq = p.side(sp_), q.side(sq_)
        for z in space.states:
            if mp(mq(z)) != mq(mp(z)):
                clashes.append((sp_, sq_, z))
    assert ok == (not clashes)
    if not ok:
        assert (witness.p_side, witness.q_side, witness.state) in clashes
        mp, mq = p.side(witness.p_side), q.side(witness.q_side)
        assert mp(mq(witness.state)) == witness.pq
        assert mq(mp(witness.state)) == witness.qp


@given(space_and_props(max_props=2))
def test_conjunction_of_compatible_pair_commutes(sp):
    space, props = sp
    p, q = props[0], props[-1]
    ok, _ = is_compatible_propositions(p, q)
    if not ok:
        return
    d = conjunction(p, q)
    assert d.known_side == "yes"
    assert d.known_map == compose(p.yes, q.yes) == compose(q.yes, p.yes)
    assert conjunction(p, make_one(space)).known_map == p.yes


# ---------------------------------------------------------------------------
# Generated models end to end


@settings(max_examples=60, deadline=None)
@given(generated_models())
def test_generated_models_pass_all_checks(model):
    assert core.validate_model(model) == []
    assert checker.check_laws(model) == []


@settings(max_examples=60, deadline=None)
@given(generated_models())
def test_observable_families_exclusive_and_complete_direct(model):
    for a in model.observables.values():
        branches = [a.family[v].yes for v in a.spectrum]
        for z in model.space.states:
            assert any(m(z) is not ZERO for m in branches)
            for i, m1 in enumerate(branches):
                for m2 in branches[i + 1 :]:
                    assert m1(m2(z)) is ZERO
                    assert m2(m1(z)) is ZERO


@settings(max_examples=60, deadline=None)
@given(generated_models())
def test_pair_classification_matches_definitions(model):
    names = sorted(model.observables)
    for i, na in enumerate(names):
        for nb in names[i:]:
            a, b = model.observables[na], model.observables[nb]
            cls_, ev = core.classify_pair(a, b)
            commutes = all(
                is_compatible_propositions(a.family[va], b.family[vb])[0]
                for va in a.spectrum
                for vb in b.spectrum
            )
            common = core.common_eigenstates(a, b)
            if commutes:
                assert cls_ is core.PairClass.COMPATIBLE
            elif common:
                assert cls_ is core.PairClass.COMPLEMENTARY
            else:
                assert cls_ is core.PairClass.STRONGLY_COMPLEMENTARY
            assert list(ev.common) == common


@settings(max_examples=60, deadline=None)
@given(generated_models())
def test_eigen_queries_match_the_per_state_scans(model):
    assert_eigen_queries_match_reference(model)


@settings(max_examples=60, deadline=None)
@given(st.one_of(generated_models(), hostile_models()))
def test_eigenvalues_follow_the_per_state_definition(model):
    # Entry i lists, in spectrum order, the values whose yes-map fixes state i.
    for a in model.observables.values():
        fixed = [tuple(v for v in a.spectrum if a.family[v].yes.table[i] == i) for i in range(len(a.space))]
        assert a.eigenvalues == (*fixed, ())


@settings(max_examples=40, deadline=None)
@given(generated_models(), st.randoms(use_true_random=False))
def test_reachable_submodel_stays_valid(model, rnd):
    seeds = [z for z in model.space.states if rnd.random() < 0.5]
    if not seeds:
        seeds = [model.space.states[0]]
    sub = core.reachable_submodel(model, seeds)
    assert set(seeds) <= set(sub.space.states)
    assert core.validate_model(sub) == []


@settings(max_examples=40, deadline=None)
@given(generated_models(), st.randoms(use_true_random=False))
def test_rename_then_invert_is_identity(model, rnd):
    states = list(model.space.states)
    shuffled = states[:]
    rnd.shuffle(shuffled)
    fwd = {z: f"r_{w}" for z, w in zip(states, shuffled)}
    back = {v: k for k, v in fwd.items()}
    assert core.rename_states(core.rename_states(model, fwd), back) == model


def _with_broken_builtin(model: Model, how: str) -> Model:
    """A raw model whose ONE or ZERO sends every state to the first (on its
    no side only, for "stuck-no"), whose ONE is idempotent but not the
    identity, or that has no ONE or no ZERO."""
    n = len(model.space)
    stuck = PropMap(model.space, [0] * n + [n])
    props = dict(model.propositions)
    kind, name = how.split()
    if kind == "missing":
        del props[name]
    elif kind == "idempotent":
        # The last state goes to the first, which stays put; a lone state goes to zero.
        table = [*range(n - 1), 0 if n > 1 else n, n]
        props["ONE"] = Proposition("ONE", PropMap(model.space, table), props["ONE"].no)
    else:
        yes = props[name].yes if kind == "stuck-no" else stuck
        props[name] = Proposition(name, yes, stuck)
    return Model(model.space, props, model.observables, model.partition)


BROKEN_BUILTINS = (
    "malformed ONE",
    "malformed ZERO",
    "stuck-no ONE",
    "stuck-no ZERO",
    "idempotent ONE",
    "missing ONE",
    "missing ZERO",
)


@st.composite
def raw_models(draw):
    return _with_broken_builtin(draw(generated_models()), draw(st.sampled_from(BROKEN_BUILTINS)))


def assert_rebuilds_faithfully(model: Model, rnd) -> None:
    """A rebuild keeps the model, builtins included, and its report up to names."""
    states = model.space.states
    assert core.rename_states(model, {z: z for z in states}) == model
    assert core.reachable_submodel(model, states) == model
    shuffled = list(states)
    rnd.shuffle(shuffled)
    fwd = {z: f"r_{w}" for z, w in zip(states, shuffled)}
    renamed = core.rename_states(model, fwd)
    assert core.rename_states(renamed, {v: k for k, v in fwd.items()}) == model
    name = re.compile(r"\b(" + "|".join(map(re.escape, sorted(states, key=len, reverse=True))) + r")\b")
    expected = [
        core.Violation(v.law, v.subjects, tuple(fwd[z] for z in v.witness), name.sub(lambda m: fwd[m[0]], v.detail))
        for v in core.validate_model(model)
    ]
    assert core.validate_model(renamed) == expected


@settings(max_examples=60, deadline=None)
@given(st.one_of(generated_models(), raw_models()), st.randoms(use_true_random=False))
def test_rebuilds_keep_the_model_and_its_report(model, rnd):
    assert_rebuilds_faithfully(model, rnd)


def unguarded_check_laws(model: Model) -> list[core.Violation]:
    """`check_laws` with all six proposition laws applied to every proposition."""
    one, zero = model.propositions.get("ONE"), model.propositions.get("ZERO")
    laws = [core.idempotent_maps, core.negation_annihilates, core.consistency]
    if zero is not None:
        laws.append(lambda p: core.zero_absorbs(zero, p))
    if one is not None:
        laws += [lambda p: core.one_is_identity(one, p), lambda p: core.one_and_is_identity(one, p)]
    out = [v for name in sorted(model.propositions) for law in laws for v in law(model.propositions[name])]
    observables = [model.observables[name] for name in sorted(model.observables)]
    out += [v for a in observables for law in core.OBSERVABLE_LAWS for v in law(a)]
    for i, a in enumerate(observables):
        for b in observables[i:]:
            if core.pair_class(a, b)[0] is core.PairClass.COMPATIBLE:
                out += [v for law in core.PAIR_LAWS for v in law(a, b)]
    return out


@settings(max_examples=80, deadline=None)
@given(st.one_of(generated_models(), raw_models()))
def test_check_laws_matches_the_unguarded_reference(model):
    # check_laws skips the builtin-composition laws where the builtin yes
    # map is the builtin one; that must lose no report.  The laws
    # themselves are held to `reference_laws` below.
    assert checker.check_laws(model) == unguarded_check_laws(model)


@pytest.mark.parametrize("how", BROKEN_BUILTINS)
def test_check_laws_matches_the_reference_with_a_broken_builtin(how):
    for base in (make_qzx(), make_bell(), make_bistable()):
        model = _with_broken_builtin(base, how)
        assert from_check(checker.check_laws(model)) == reference_laws(model), base.space.states


@settings(max_examples=80, deadline=None)
@given(raw_models())
def test_check_laws_matches_the_reference_on_raw_models(model):
    assert from_check(checker.check_laws(model)) == reference_laws(model)


@st.composite
def partitioned_models(draw):
    """A generated or raw model with no partition or one whose tags may name
    unknown observables (empty ones among them) or unknown subsystems, or
    tag an observable both local and global."""
    model = draw(st.one_of(generated_models(), raw_models()))
    partition = None
    if draw(st.integers(0, 4)):
        tags = st.sampled_from([*sorted(model.observables), "GHOST", ""])
        partition = Partition(
            tuple(draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=3, unique=True))),
            draw(st.dictionaries(tags, st.sampled_from("ABCD"), max_size=4)),
            tuple(draw(st.lists(tags, max_size=3, unique=True))),
        )
    return Model(model.space, model.propositions, model.observables, partition)


@settings(max_examples=150, deadline=None)
@given(partitioned_models())
def test_validate_model_matches_the_structure_reference(model):
    assert from_structure(core.validate_model(model)) == reference_structure(model)


@pytest.mark.parametrize("how", BROKEN_BUILTINS)
def test_validate_model_matches_the_structure_reference_with_a_broken_builtin(how):
    for base in (make_qzx(), make_bell(), make_bistable()):
        model = _with_broken_builtin(base, how)
        assert from_structure(core.validate_model(model)) == reference_structure(model) != set(), base.space.states


def test_zeroed_by_all_matches_a_per_state_scan():
    # Byte tables up to 255 states, tuples beyond; zero to three maps.
    rnd = random.Random(0)
    for n in range(1, 301):
        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        maps = [
            PropMap(space, [n if rnd.random() < 0.6 else rnd.randrange(n) for _ in range(n)] + [n])
            for _ in range(rnd.randint(0, 3))
        ]
        expected = [z for i, z in enumerate(space.states) if all(m.table[i] == n for m in maps)]
        assert core._zeroed_by_all(maps, space) == expected, n


@pytest.mark.parametrize("how", BROKEN_BUILTINS)
def test_rebuilds_keep_a_broken_builtin(qzx, how):
    model = _with_broken_builtin(qzx, how)
    assert [v.law for v in core.validate_model(model)][:1] == ["builtin-structure"]
    assert_rebuilds_faithfully(model, random.Random(0))


@settings(max_examples=40, deadline=None)
@given(generated_models(), st.randoms(use_true_random=False))
def test_measure_sequence_is_left_fold(model, rnd):
    if not model.observables:
        return
    names = sorted(model.observables)
    steps = []
    for _ in range(rnd.randint(0, 4)):
        name = rnd.choice(names)
        steps.append((name, rnd.choice(model.observables[name].spectrum)))
    z = rnd.choice(model.space.states)
    expected = z
    for name, value in steps:
        expected = model.observables[name].family[value].yes(expected)
    assert core.measure_sequence(model, z, steps) == expected


# ---------------------------------------------------------------------------
# Serialization


@settings(max_examples=60, deadline=None)
@given(generated_models())
def test_serialize_parse_roundtrip(model):
    if len(model.observables) >= 2:
        first, second = sorted(model.observables)[:2]
        part = Partition(("L", "R"), {first: "L"}, (second,))
        model = Model.build(model.space, model.propositions.values(), model.observables.values(), part)
    text = modelio.serialize_model(model)
    again = modelio.parse_model(text)
    assert again == model
    assert modelio.serialize_model(again) == text


@settings(max_examples=200, deadline=None)
@given(hostile_models())
def test_writer_matches_json_dumps(model):
    text = modelio.serialize_model(model)
    assert text == dumps_oracle(model)
    assert modelio.serialize_model(modelio.parse_model(text)) == text


@st.composite
def quantum_texts(draw):
    """A quantum document with hostile names, or with plain ones that need
    no escape; it need not parse."""
    labels = draw(st.sampled_from([names, st.text("ab\u00e9", min_size=1, max_size=3)]))
    dim = draw(st.integers(1, 2))
    ket = [[1, 0]] + [[0, 0]] * (dim - 1)
    identity = [[[int(i == j), 0] for j in range(dim)] for i in range(dim)]
    projectors = draw(st.lists(labels, min_size=1, max_size=3, unique=True))
    observables = {}
    for name in draw(st.lists(labels, max_size=2, unique=True)):
        spectrum = draw(st.lists(labels, min_size=1, max_size=2, unique=True))
        observables[name] = {"spectrum": spectrum, "family": {v: draw(st.sampled_from(projectors)) for v in spectrum}}
    doc = {
        "dimension": dim,
        "seeds": {name: ket for name in draw(st.lists(labels, min_size=1, max_size=2, unique=True))},
        "propositions": {name: identity for name in projectors},
        "observables": observables,
    }
    if draw(st.booleans()):
        doc["partition"] = {
            "subsystems": draw(st.lists(labels, min_size=1, max_size=2, unique=True)),
            "local": draw(st.dictionaries(labels, labels, max_size=2)),
            "global": draw(st.lists(labels, max_size=2)),
        }
    return json.dumps(doc, ensure_ascii=False)


@st.composite
def perturbed(draw, text):
    """`text` with up to three edits: an entry of some object written again
    (with its own value or a sibling's), or a key given an unpaired
    surrogate; then written with or without `\\u` escapes."""
    doc = load_pairs(text)
    objects, stack = [], [doc]
    while stack:
        value = stack.pop()
        if isinstance(value, Pairs):
            if value:
                objects.append(value)
            stack.extend(v for _, v in value)
        elif isinstance(value, list):
            stack.extend(value)
    for _ in range(draw(st.integers(0, 3)) if objects else 0):
        obj = draw(st.sampled_from(objects))
        i = draw(st.integers(0, len(obj) - 1))
        key, value = obj[i]
        if draw(st.booleans()):
            obj.insert(draw(st.integers(0, len(obj))), (key, draw(st.sampled_from(obj))[1]))
        else:
            obj[i] = (key + "\udc00", value)
    return dump_pairs(doc, ensure_ascii=draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parsers_match_the_hook_path(data):
    # Repeated keys, colons in names and escapes: a model document gives the
    # same model or message as the hook path, and a quantum document, which
    # takes only that path, a document or a structural error.
    if data.draw(st.booleans()):
        model = data.draw(st.one_of(generated_models(), hostile_models()))
        text = data.draw(perturbed(modelio.serialize_model(model)))
        assert outcome(modelio.parse_model, text) == hook_outcome(text)
        assert_entries_follow_the_schema(text)
    else:
        text = data.draw(perturbed(data.draw(quantum_texts())))
        assert isinstance(outcome(modelio.parse_quantum, text), (modelio.QuantumDocument, str))
