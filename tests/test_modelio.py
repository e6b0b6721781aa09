"""Model and quantum document parsing, canonical serialization."""

import importlib.util
import json
import random
import typing
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from gqt import core, modelio
from gqt.errors import StructuralError

from conftest import FIXTURES, make_bell, make_bistable, make_qzx

ROOT = FIXTURES.parent
GOLDEN = ROOT / "tests" / "golden"


def _load_bench_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The benchmark's document generator.
gen = _load_bench_gen()


def read_fixture(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


def model_document(model: core.Model) -> dict:
    """The JSON value of a model file, keys in canonical order."""
    states = model.space.states
    refs = (*states, None)

    def map_obj(m: core.PropMap) -> dict:
        return {z: refs[t] for z, t in zip(states, m.table)}

    doc: dict = {
        "states": list(states),
        "propositions": {
            name: {"yes": map_obj(p.yes), "no": map_obj(p.no)}
            for name, p in sorted(model.propositions.items())
            if name not in core.RESERVED_PROPOSITION_NAMES
        },
        "observables": {
            name: {
                "spectrum": list(o.spectrum),
                "family": {value: o.family[value].name for value in o.spectrum},
            }
            for name, o in sorted(model.observables.items())
        },
    }
    if model.partition is not None:
        part = model.partition
        doc["partition"] = {
            "subsystems": sorted(part.subsystems),
            "local": {name: part.local_tags[name] for name in sorted(part.local_tags)},
            "global": sorted(part.global_tags),
        }
    return doc


def dumps_oracle(model):
    """The bytes `serialize_model` must give: the stdlib encoder on `model_document`."""
    return json.dumps(model_document(model), indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# Model documents


def test_fixture_files_match_frozen_models():
    for name, build in (("qzx.json", make_qzx), ("bell.json", make_bell), ("bistable.json", make_bistable)):
        text = read_fixture(name)
        assert modelio.parse_model(text) == build()
        assert modelio.serialize_model(build()) == text


def test_round_trip_is_byte_identical():
    for name in ("qzx.json", "bell.json", "bistable.json"):
        text = read_fixture(name)
        assert modelio.serialize_model(modelio.parse_model(text)) == text


def test_serialization_is_canonical(qzx):
    text = modelio.serialize_model(qzx)
    doc = json.loads(text)
    assert list(doc) == ["states", "propositions", "observables"]
    assert list(doc["propositions"]) == sorted(doc["propositions"])
    assert list(doc["observables"]) == sorted(doc["observables"])
    # map keys follow state declaration order
    assert list(doc["propositions"]["Z0"]["yes"]) == doc["states"]
    assert text.endswith("\n")
    assert "ONE" not in doc["propositions"] and "ZERO" not in doc["propositions"]


def test_partition_serializes_sorted(bell):
    doc = json.loads(modelio.serialize_model(bell))
    assert list(doc["partition"]) == ["subsystems", "local", "global"]
    assert doc["partition"]["subsystems"] == ["A", "B"]
    assert list(doc["partition"]["local"]) == ["ZA", "ZB"]


def test_zero_serializes_as_null(qzx):
    doc = json.loads(modelio.serialize_model(qzx))
    assert doc["propositions"]["Z0"]["yes"]["z1"] is None
    assert doc["propositions"]["Z0"]["no"]["z0"] is None


# ---------------------------------------------------------------------------
# The writer against its oracle

# Every character class that JSON escapes or that a naive writer gets
# wrong: quote, backslash, C0 controls, DEL, the JS line separators,
# non-ASCII and non-BMP characters, spaces.
HOSTILE_STATES = ('q"', "b\\", "\x00\x1f", "\x7f\u2028", "\u2029\u00ac", " \U0001F600", "\n\t\r\x08\x0c")


def hostile_model(props=True, observables=True, local=True, global_tags=True):
    space = core.StateSpace(HOSTILE_STATES)
    n = len(space)
    members = [core.make_one(space), core.make_zero(space)]
    if props:
        shift = core.PropMap(space, [(i + 1) % n for i in range(n)] + [n])
        halves = core.PropMap(space, [n if i % 2 else i for i in range(n)] + [n])
        members = [core.Proposition('P"\\\u2028', shift, halves), core.Proposition("\u00ac\U0001F600\x1f", halves, shift)]
    obs = []
    if observables:
        obs = [core.Observable("O\x00\u2029", ("\x7f", '\\ "'), {"\x7f": members[0], '\\ "': members[1]})]
    partition = core.Partition(
        ("\u2028B", "A\x1f"),
        {"O\x00\u2029": "A\x1f", "\U0001F600": "\u2028B"} if local else {},
        ("\u00acG", "\"") if global_tags else (),
    )
    return core.Model.build(space, members if props else (), obs, partition)


WRITER_EDGE_CASES = {
    "hostile-names": hostile_model(),
    "no-propositions": hostile_model(props=False),
    "no-observables": hostile_model(observables=False),
    "no-propositions-or-observables": hostile_model(props=False, observables=False),
    "empty-local": hostile_model(local=False),
    "empty-global": hostile_model(global_tags=False),
}


@pytest.mark.parametrize("case", sorted(WRITER_EDGE_CASES))
def test_writer_matches_json_dumps_on_edge_cases(case):
    model = WRITER_EDGE_CASES[case]
    text = modelio.serialize_model(model)
    assert text == dumps_oracle(model)
    assert modelio.serialize_model(modelio.parse_model(text)) == text


def sized_model(n, names=()):
    """A model over `n` states, the first of them `names`: a shift, a map
    keeping every third state, and an observable over the two."""
    space = core.StateSpace((*names, *(f"s{i}" for i in range(len(names), n))))
    shift = core.PropMap(space, [(i + 1) % n for i in range(n)] + [n])
    thirds = core.PropMap(space, [i if i % 3 == 0 else n for i in range(n)] + [n])
    p, q = core.Proposition("P", shift, thirds), core.Proposition("Q", thirds, shift)
    return core.Model.build(space, (p, q), [core.Observable("O", ("a", "b"), {"a": p, "b": q})])


# One state makes the first key line the last; 256 and more states make
# each `PropMap.table` a tuple rather than bytes.
@pytest.mark.parametrize(
    "n, names", [(1, ()), (2, ()), (255, ()), (256, ()), (300, HOSTILE_STATES)], ids=["1", "2", "255", "256", "300-hostile"]
)
def test_writer_matches_json_dumps_at_every_table_kind(n, names):
    model = sized_model(n, names)
    assert type(model.propositions["P"].yes.table) is (tuple if n >= 256 else bytes)
    text = modelio.serialize_model(model)
    assert text == dumps_oracle(model)
    assert modelio.serialize_model(modelio.parse_model(text)) == text


def _bench_model_documents():
    # Every size, with index 3 a mutated document.
    return [gen.model_document(n, index) for n in gen.MODEL_STATES for index in (0, 3)]


def test_writer_reproduces_shipped_and_generated_documents():
    canonical = [read_fixture(name) for name in ("qzx.json", "bell.json", "bistable.json")]
    canonical += [path.read_text(encoding="utf-8") for path in sorted(GOLDEN.glob("*.model.json"))]
    canonical += _bench_model_documents()
    assert len(canonical) == 5 + 2 * 15
    for text in canonical:
        model = modelio.parse_model(text)
        assert modelio.serialize_model(model) == dumps_oracle(model) == text
    # The mutated golden input is not in canonical order, so only the oracle applies.
    mutated = modelio.parse_model((GOLDEN / "bell_mutated.json").read_text(encoding="utf-8"))
    assert modelio.serialize_model(mutated) == dumps_oracle(mutated)


def test_parse_rejects_malformed_json():
    with pytest.raises(StructuralError, match="line 1"):
        modelio.parse_model("{oops")


def test_parse_rejects_unknown_keys():
    with pytest.raises(StructuralError, match=r"\$: unknown key"):
        modelio.parse_model('{"states": ["a"], "extra": 1}')


def test_parse_rejects_duplicate_keys():
    text = '{"states": ["a"], "propositions": {"P": {"yes": {"a": "a", "a": null}, "no": {"a": null}}}}'
    with pytest.raises(StructuralError, match="duplicate key"):
        modelio.parse_model(text)


def test_duplicate_key_named_is_the_first_repeat_of_the_innermost_object():
    # The inner object closes before the outer one, whose repeated
    # "propositions" goes unnamed; inside it, "b" repeats before "a" does.
    inner = '{"b": 1, "a": 2, "b": 3, "a": 4, "a": 5}'
    text = f'{{"states": ["a"], "propositions": {{"P": {inner}}}, "propositions": {{}}}}'
    with pytest.raises(StructuralError, match=r"^duplicate key 'b'$"):
        modelio.parse_model(text)


@pytest.mark.parametrize(
    ("parse", "key", "text"),
    [
        (modelio.parse_model, "states", '{"states": ["a"], "states": 3}'),
        (modelio.parse_quantum, "dimension", '{"dimension": 2, "dimension": "two"}'),
    ],
    ids=["model", "quantum"],
)
def test_repeated_key_outranks_the_error_of_its_last_value(parse, key, text):
    # The plain decode keeps the last value, which fails to build; the
    # parser still names the repeat, as the hook alone would.
    with pytest.raises(StructuralError, match=f"^duplicate key '{key}'$"):
        parse(text)


class Pairs(list):
    """A JSON object as its list of (key, value) pairs, so a key may repeat."""


def load_pairs(text):
    return json.loads(text, object_pairs_hook=Pairs)


def dump_pairs(value, ensure_ascii=False) -> str:
    """JSON text for `value`, each `Pairs` written as an object pair by pair."""
    if isinstance(value, Pairs):
        entries = (f"{json.dumps(k, ensure_ascii=ensure_ascii)}: {dump_pairs(v, ensure_ascii)}" for k, v in value)
        return "{" + ", ".join(entries) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dump_pairs(v, ensure_ascii) for v in value) + "]"
    return json.dumps(value, ensure_ascii=ensure_ascii)


def outcome(parse, text):
    """What `parse` gives for `text`: the parsed value or the error message."""
    try:
        return parse(text)
    except StructuralError as e:
        return str(e)


def hook_outcome(text):
    """`outcome` of `parse_model` with the model text decoded through the
    duplicate-key hook, as quantum documents always are: the oracle for the
    colon count's fast path."""
    return outcome(lambda t: modelio._build_model(modelio._load_json(t)), text)


def object_entries(value) -> int:
    """The entries of every object in decoded JSON, found by walking it:
    the oracle for the closed form `_model_entries`."""
    if isinstance(value, dict):
        return len(value) + sum(map(object_entries, value.values()))
    if isinstance(value, list):
        return sum(map(object_entries, value))
    return 0


def assert_entries_follow_the_schema(text):
    """If model text `text` parses, the closed-form entry count of its
    decoded data is the walked one, so the count cannot drift from what
    `_build_model` accepts."""
    try:
        modelio.parse_model(text)
    except StructuralError:
        return
    data = json.loads(text)
    assert modelio._model_entries(data) == object_entries(data)


# Every object position of each document kind: the keys down to the
# object, and the key written twice there, with the same value, so that
# the document decodes as the valid one and only the count refuses it.
REPEATED_KEYS = {
    "model-top-level": ("bell.json", (), "states"),
    "model-propositions": ("bell.json", ("propositions",), "PhiP"),
    "model-proposition-body": ("bell.json", ("propositions", "PhiP"), "yes"),
    "model-yes": ("bell.json", ("propositions", "PhiP", "yes"), "s00"),
    "model-no": ("bell.json", ("propositions", "PhiP", "no"), "s11"),
    "model-observables": ("bell.json", ("observables",), "ZA"),
    "model-observable-body": ("bell.json", ("observables", "BELL"), "spectrum"),
    "model-family": ("bell.json", ("observables", "BELL", "family"), "psi-"),
    "model-partition": ("bell.json", ("partition",), "global"),
    "model-local": ("bell.json", ("partition", "local"), "ZB"),
    "quantum-top-level": ("bell_quantum.json", (), "cap"),
    "quantum-seeds": ("bell_quantum.json", ("seeds",), "phiP"),
    "quantum-propositions": ("bell_quantum.json", ("propositions",), "ZA1"),
    "quantum-observables": ("bell_quantum.json", ("observables",), "ZB"),
    "quantum-observable-body": ("bell_quantum.json", ("observables", "BELL"), "family"),
    "quantum-family": ("bell_quantum.json", ("observables", "BELL", "family"), "phi+"),
    "quantum-partition": ("bell_quantum.json", ("partition",), "subsystems"),
    "quantum-local": ("bell_quantum.json", ("partition", "local"), "ZA"),
}


@pytest.mark.parametrize("case", REPEATED_KEYS.values(), ids=REPEATED_KEYS.keys())
def test_repeated_key_is_named_in_every_object_position(case):
    fixture, path, key = case
    parse = modelio.parse_quantum if "quantum" in fixture else modelio.parse_model
    doc = load_pairs(read_fixture(fixture))
    obj = doc
    for step in path:
        obj = dict(obj)[step]
    obj.append((key, dict(obj)[key]))
    text = dump_pairs(doc)
    assert json.loads(text) == json.loads(read_fixture(fixture))
    assert outcome(parse, text) == f"duplicate key {key!r}"


def test_documents_without_repeats_colons_or_escapes_skip_the_hook():
    # Each model text here decodes once, without the hook: `_load_json` is
    # never called.  The bench documents include mutated ones (index 3).
    texts = [read_fixture(name) for name in ("qzx.json", "bell.json", "bistable.json")]
    texts += [gen.model_document(n, index) for n in (8, 24, 64) for index in range(4)]
    expected = [hook_outcome(t) for t in texts]
    with mock.patch.object(modelio, "_load_json", side_effect=AssertionError("the hook path ran")):
        got = [modelio.parse_model(t) for t in texts]
    assert got == expected
    for t in texts:
        assert_entries_follow_the_schema(t)


def test_parse_rejects_unpaired_surrogates():
    cases = {
        '{"states": ["a\\ud800"]}': r"^states\[0\]: unpaired surrogate in string$",
        '{"states": ["a", "\\uDC00b"]}': r"^states\[1\]: ",
        # A low surrogate before a high one pairs up with nothing.
        '{"states": ["\\ude00\\ud83d"]}': r"^states\[0\]: ",
        '{"states": ["a"], "propositions": {"P": {"yes": {"a\\ud800": null}}}}': (
            r"^propositions\.P\.yes: key 'a\\ud800' holds an unpaired surrogate$"
        ),
        # The first one in document order is named.
        '{"states": ["a"], "propositions": {"P\\udfff": {}}, "observables": {"\\ud800": {}}}': (
            r"^propositions: key 'P\\udfff'"
        ),
    }
    for text, message in cases.items():
        with pytest.raises(StructuralError, match=message):
            modelio.parse_model(text)
    with pytest.raises(StructuralError, match=r"^seeds: key 's\\ud800' holds an unpaired surrogate$"):
        modelio.parse_quantum(quantum_doc(seeds={"s\ud800": [[1, 0], [0, 0]]}))
    with pytest.raises(StructuralError, match=r"^observables\.Z\.spectrum\[1\]: unpaired surrogate"):
        spectrum = ["0", "\udbff"]
        modelio.parse_quantum(quantum_doc(observables={"Z": {"spectrum": spectrum, "family": {v: "P" for v in spectrum}}}))


def test_parse_accepts_escaped_surrogate_pairs():
    model = modelio.parse_model('{"states": ["\\ud83d\\ude00", "\\uD800\\uDC00", "\\u00e9"]}')
    assert model.space.states == ("\U0001F600", "\U00010000", "\u00e9")


def minimal_doc(**overrides):
    doc = {
        "states": ["a", "b"],
        "propositions": {
            "P": {"yes": {"a": "a", "b": None}, "no": {"a": None, "b": "b"}},
        },
        "observables": {},
    }
    doc.update(overrides)
    return json.dumps(doc)


def test_parse_minimal_document():
    model = modelio.parse_model(minimal_doc())
    assert model.space.states == ("a", "b")
    assert core.validate_model(model) == []


def test_parse_rejects_unknown_state_in_map():
    bad = minimal_doc(propositions={"P": {"yes": {"a": "zz", "b": None}, "no": {"a": None, "b": "b"}}})
    with pytest.raises(StructuralError, match=r"propositions\.P\.yes\.a.*zz"):
        modelio.parse_model(bad)
    bad = minimal_doc(propositions={"P": {"yes": {"a": "a", "zz": None}, "no": {"a": None, "b": "b"}}})
    with pytest.raises(StructuralError, match="zz"):
        modelio.parse_model(bad)


def test_parse_rejects_partial_map():
    bad = minimal_doc(propositions={"P": {"yes": {"a": "a"}, "no": {"a": None, "b": "b"}}})
    with pytest.raises(StructuralError, match="total"):
        modelio.parse_model(bad)


def scan_parse_map(obj, space, path):
    """The parser's map reader before valid maps were read by one lookup per
    state, kept as the oracle for its models and its messages: it checks each
    entry in document order, then totality, then builds the public PropMap."""
    if not isinstance(obj, dict):
        raise StructuralError(f"{path}: must be an object mapping every state to a state or null")
    index = space.index
    n = len(space)
    table = [n] * (n + 1)
    for state, target in obj.items():
        if state not in index:
            raise StructuralError(f"{path}.{state}: unknown state {state!r}")
        if isinstance(target, str):
            if target not in index:
                raise StructuralError(f"{path}.{state}: unknown state {target!r}")
            table[index[state]] = index[target]
        elif target is not None:
            raise StructuralError(f"{path}.{state}: map values must be state names or null")
    if len(obj) != n:
        missing = [s for s in space.states if s not in obj]
        raise StructuralError(f"{path}: missing entries for state(s) {missing}; maps must be total")
    return core.PropMap(space, table)


def parse_outcome(text):
    """The model `parse_model` gives for `text`, or its error message."""
    return outcome(modelio.parse_model, text)


def scan_outcome(text):
    """`parse_outcome` with every map read by the scan."""
    with mock.patch.object(modelio, "_parse_map", scan_parse_map):
        return parse_outcome(text)


MAP_STATES = ("a", "b", "c", "d", "e")
HOSTILE_TARGETS = (True, False, 0, 1, -1, 2.5, [], ["a"], {}, {"a": "a"}, "zz", "", "null", "A")
UNKNOWN_STATES = ("zz", "f", "", "null", "A", "a ")


@st.composite
def broken_maps(draw):
    """A state list and a map over it with up to three breaks: an unknown
    state, a missing state, a target of the wrong type or an unknown name,
    or no object at all; entries in any order.  With no break it is valid."""
    states = MAP_STATES[: draw(st.integers(1, len(MAP_STATES)))]
    targets = st.sampled_from([*states, None])
    entries = {z: draw(targets) for z in states}
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["unknown-state", "missing-state", "bad-target"]))
        if kind == "unknown-state":
            entries[draw(st.sampled_from(UNKNOWN_STATES))] = draw(targets)
        elif entries and kind == "missing-state":
            del entries[draw(st.sampled_from(sorted(entries)))]
        elif entries:
            entries[draw(st.sampled_from(sorted(entries)))] = draw(st.sampled_from(HOSTILE_TARGETS))
    entries = {key: entries[key] for key in draw(st.permutations(list(entries)))}
    if draw(st.integers(0, 9)) == 0:
        return states, draw(st.sampled_from([[], list(entries), None, "a", 1]))
    return states, entries


@settings(max_examples=400, deadline=None)
@given(broken_maps(), st.sampled_from(["yes", "no"]))
def test_map_reader_matches_the_scan(case, side):
    # Every broken map fails with the scan's message, naming its first bad
    # entry in document order; every valid one gives the scan's model.
    states, entries = case
    sides = {"yes": {z: z for z in states}, "no": {z: None for z in states}, side: entries}
    text = json.dumps({"states": list(states), "propositions": {"P": sides}})
    assert parse_outcome(text) == scan_outcome(text)


def test_map_reader_matches_the_scan_on_mutated_benchmark_documents():
    # Twenty breaks of one entry each, to a wrong type or an unknown name,
    # in a mutated document of each of three sizes; then the document itself.
    rng = random.Random(16)
    for n in (8, 24, 64):
        doc = json.loads(gen.model_document(n, 3))
        for _ in range(20):
            body = doc["propositions"][rng.choice(sorted(doc["propositions"]))][rng.choice(["yes", "no"])]
            state = rng.choice(sorted(body))
            saved, body[state] = body[state], rng.choice(HOSTILE_TARGETS)
            text = json.dumps(doc)
            got = parse_outcome(text)
            assert isinstance(got, str) and got == scan_outcome(text)
            body[state] = saved
        text = json.dumps(doc)
        assert parse_outcome(text) == scan_outcome(text)


def test_parse_rejects_builtin_redefinition():
    bad = minimal_doc(propositions={"ONE": {"yes": {"a": "a", "b": "b"}, "no": {"a": None, "b": None}}})
    with pytest.raises(StructuralError, match="builtin"):
        modelio.parse_model(bad)


def test_parse_rejects_bad_map_value_type():
    bad = minimal_doc(propositions={"P": {"yes": {"a": 3, "b": None}, "no": {"a": None, "b": "b"}}})
    with pytest.raises(StructuralError, match="state names or null"):
        modelio.parse_model(bad)


def test_parse_rejects_unknown_family_reference():
    bad = minimal_doc(observables={"A": {"spectrum": ["v"], "family": {"v": "NOPE"}}})
    with pytest.raises(StructuralError, match=r"observables\.A\.family\.v"):
        modelio.parse_model(bad)


def test_family_may_reference_builtins():
    text = minimal_doc(observables={"A": {"spectrum": ["t", "f"], "family": {"t": "ONE", "f": "ZERO"}}})
    model = modelio.parse_model(text)
    assert model.observables["A"].family["t"] == core.make_one(model.space)
    assert core.validate_model(model) == []


def test_family_members_are_the_models_own_propositions():
    # The parser makes one ONE and one ZERO; a family names those objects,
    # not an equal second pair.
    text = minimal_doc(
        observables={
            "A": {"spectrum": ["t", "f"], "family": {"t": "ONE", "f": "ZERO"}},
            "B": {"spectrum": ["p", "z"], "family": {"p": "P", "z": "ZERO"}},
        }
    )
    model = modelio.parse_model(text)
    props = model.propositions
    assert model.observables["A"].family["t"] is props["ONE"]
    assert model.observables["A"].family["f"] is props["ZERO"]
    assert model.observables["B"].family["p"] is props["P"]
    assert model.observables["B"].family["z"] is props["ZERO"]


def test_parse_rejects_spectrum_family_mismatch():
    bad = minimal_doc(observables={"A": {"spectrum": ["v", "w"], "family": {"v": "P"}}})
    with pytest.raises(StructuralError, match="observables.A"):
        modelio.parse_model(bad)


def test_parse_accepts_lawless_model():
    # structure is fine, laws are not: parse succeeds, validate reports
    doc = {
        "states": ["a", "b"],
        "propositions": {
            "P": {"yes": {"a": "b", "b": "a"}, "no": {"a": None, "b": None}},
        },
    }
    model = modelio.parse_model(json.dumps(doc))
    report = core.validate_model(model)
    assert any(v.law == "idempotence-yes" for v in report)


def test_parse_partition_shape_errors():
    bad = minimal_doc(partition={"subsystems": ["A"], "local": {"Z": 3}, "global": []})
    with pytest.raises(StructuralError, match="partition.local.Z"):
        modelio.parse_model(bad)
    bad = minimal_doc(partition={"subsystems": ["A"], "local": {}})
    with pytest.raises(StructuralError, match="missing required key"):
        modelio.parse_model(bad)


@pytest.mark.parametrize("tags", [["Z", "Z"], ["X", "GHOST", "GHOST"]], ids=["named", "unknown"])
@pytest.mark.parametrize("fixture", ["qzx.json", "qzx_quantum.json"])
def test_parse_partition_refuses_a_repeated_global_tag(fixture, tags):
    # A global tag given twice is refused, as a repeated subsystem is,
    # whether or not it names an observable.
    data = json.loads((FIXTURES / fixture).read_text(encoding="utf-8"))
    data["partition"] = {"subsystems": ["A"], "local": {}, "global": tags}
    parse = modelio.parse_quantum if "quantum" in fixture else modelio.parse_model
    with pytest.raises(StructuralError) as exc:
        parse(json.dumps(data))
    assert str(exc.value) == f"partition: duplicate global tag {tags[-1]!r}"


def test_dangling_partition_reference_parses_then_fails_validation():
    text = minimal_doc(partition={"subsystems": ["A"], "local": {"GHOST": "A"}, "global": []})
    model = modelio.parse_model(text)
    assert any(v.law == "partition-reference" for v in core.validate_model(model))


# ---------------------------------------------------------------------------
# Quantum documents


def test_parse_quantum_fixture():
    doc = modelio.parse_quantum(read_fixture("qzx_quantum.json"))
    assert doc.dimension == 2
    assert [name for name, _ in doc.seeds] == ["z0"]
    assert [name for name, _ in doc.propositions] == ["Z0", "Z1", "X0", "X1"]
    assert doc.cap == 256 and doc.tolerance == 1e-9
    # the seed is a ket: stored as its rank-1 density matrix
    seed = doc.seeds[0][1]
    assert np.abs(seed - np.array([[1, 0], [0, 0]])).max() == 0


def test_parse_quantum_bell_partition():
    doc = modelio.parse_quantum(read_fixture("bell_quantum.json"))
    assert doc.partition == core.Partition(("A", "B"), {"ZA": "A", "ZB": "B"}, ("BELL",))
    assert [o.name for o in doc.observables] == ["BELL", "ZA", "ZB"]


def quantum_doc(**overrides):
    doc = {
        "dimension": 2,
        "seeds": {"s": [[1, 0], [0, 0]]},
        "propositions": {"P": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
    }
    doc.update(overrides)
    return json.dumps(doc)


def test_parse_quantum_matrix_seed():
    doc = modelio.parse_quantum(quantum_doc(seeds={"m": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}))
    assert np.abs(doc.seeds[0][1] - np.eye(2) / 2).max() == 0


def test_parse_quantum_complex_entries():
    # ket (1, i)/sqrt(2) -> density matrix with off-diagonal -i/2, i/2
    doc = modelio.parse_quantum(quantum_doc(seeds={"s": [[1, 0], [0, 1]]}))
    m = doc.seeds[0][1]
    assert m[0, 1] == -1j and m[1, 0] == 1j


def test_parse_quantum_errors():
    with pytest.raises(StructuralError, match="dimension"):
        modelio.parse_quantum(quantum_doc(dimension=0))
    with pytest.raises(StructuralError, match=r"seeds\.s"):
        modelio.parse_quantum(quantum_doc(seeds={"s": [[1, 0]]}))
    with pytest.raises(StructuralError, match=r"re, im"):
        modelio.parse_quantum(quantum_doc(seeds={"s": [[1, 0], [0]]}))
    with pytest.raises(StructuralError, match=r"propositions\.P"):
        modelio.parse_quantum(quantum_doc(propositions={"P": [[1, 0], [0, 0]]}))
    with pytest.raises(StructuralError, match="cap"):
        modelio.parse_quantum(quantum_doc(cap=0))
    for tolerance in (-1, float("nan"), float("inf"), 10**400):
        with pytest.raises(StructuralError, match="tolerance"):
            modelio.parse_quantum(quantum_doc(tolerance=tolerance))
    with pytest.raises(StructuralError, match="unknown projector"):
        modelio.parse_quantum(quantum_doc(observables={"A": {"spectrum": ["v"], "family": {"v": "NOPE"}}}))
    # Quantum observables obey the spectrum rule of model documents.
    for spectrum, message in (
        (["v", "v"], "duplicate spectrum value 'v'"),
        (["", "v"], "non-empty strings"),
        ([], "spectrum must be non-empty"),
    ):
        family = {v: "P" for v in spectrum}
        with pytest.raises(StructuralError, match=rf"^observables\.Z: observable 'Z': .*{message}"):
            modelio.parse_quantum(quantum_doc(observables={"Z": {"spectrum": spectrum, "family": family}}))
    with pytest.raises(StructuralError, match="at least one seed"):
        modelio.parse_quantum(quantum_doc(seeds={}))


@pytest.mark.parametrize(
    "seed", [5, None, "x", [], [1, 0], [[[[1, 0]]]]], ids=["number", "null", "string", "empty", "flat", "four-deep"]
)
def test_parse_quantum_refuses_a_seed_that_is_neither_a_vector_nor_a_matrix(seed):
    with pytest.raises(StructuralError) as exc:
        modelio.parse_quantum(quantum_doc(seeds={"s": seed}))
    assert str(exc.value) == "seeds.s: state must be a vector of [re, im] pairs or a matrix of them"


def test_quantum_document_refuses_a_family_member_it_does_not_hold():
    doc = modelio.parse_quantum(read_fixture("qzx_quantum.json"))
    ghost = modelio.ObservableSpec("W", ("a", "b"), {"a": "Z0", "b": "GHOST"})
    with pytest.raises(StructuralError) as exc:
        modelio.QuantumDocument(
            doc.dimension, doc.seeds, doc.propositions, (*doc.observables, ghost), doc.cap, doc.tolerance, doc.partition
        )
    assert str(exc.value) == "observable 'W': family member 'GHOST' is not a projector of the document"
    # The parser refuses the same document first, at the family entry.
    data = json.loads(read_fixture("qzx_quantum.json"))
    data["observables"]["W"] = {"spectrum": ["a", "b"], "family": {"a": "Z0", "b": "GHOST"}}
    with pytest.raises(StructuralError) as exc:
        modelio.parse_quantum(json.dumps(data))
    assert str(exc.value) == "observables.W.family.b: unknown projector 'GHOST'"


# Each on a 1x1 document, where a bool read as the number 1 would parse.
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("dimension", True, "dimension: must be a positive integer"),
        ("dimension", 1.0, "dimension: must be a positive integer"),
        ("cap", True, "cap: must be a positive integer"),
        ("cap", 2.5, "cap: must be a positive integer"),
        ("tolerance", True, "tolerance: must be a finite non-negative number"),
        ("propositions", {"P": [[[True, 0]]]}, "propositions.P[0][0]: complex entries must be [re, im] number pairs"),
        ("seeds", {"s": [[1, False]]}, "seeds.s[0]: complex entries must be [re, im] number pairs"),
    ],
    ids=["dimension-bool", "dimension-float", "cap-bool", "cap-float", "tolerance-bool", "projector-bool", "ket-bool"],
)
def test_parse_quantum_refuses_a_number_of_the_wrong_type(key, value, message):
    doc = {"dimension": 1, "seeds": {"s": [[1, 0]]}, "propositions": {"P": [[[1, 0]]]}, key: value}
    with pytest.raises(StructuralError) as exc:
        modelio.parse_quantum(json.dumps(doc))
    assert str(exc.value) == message


@pytest.mark.parametrize("name", core.RESERVED_PROPOSITION_NAMES)
def test_parse_quantum_refuses_a_builtin_projector_name(name):
    # With the message of a model document, before the name's matrix is
    # read and after the projectors written before it.
    message = rf"^propositions\.{name}: {name} is a builtin proposition and cannot be redefined$"
    projector = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
    for propositions in ({"P": projector, name: projector}, {name: "not a matrix"}):
        with pytest.raises(StructuralError, match=message):
            modelio.parse_quantum(quantum_doc(propositions=propositions))
    with pytest.raises(StructuralError, match=r"^propositions\.P: matrix must have 2 rows$"):
        modelio.parse_quantum(quantum_doc(propositions={"P": [], name: projector}))


def test_parse_quantum_rejects_entries_too_large_for_a_float():
    huge = 10**400
    cases = [
        (quantum_doc(seeds={"s": [[1, 0], [0, huge]]}), r"^seeds\.s\[1\]: complex entries must fit in a float$"),
        (
            quantum_doc(propositions={"P": [[[1, 0], [0, 0]], [[0, 0], [huge, 0]]]}),
            r"^propositions\.P\[1\]\[1\]: complex entries must fit in a float$",
        ),
    ]
    for text, message in cases:
        with pytest.raises(StructuralError, match=message):
            modelio.parse_quantum(text)


@pytest.mark.parametrize("number", ["1e400", "-1e400", "Infinity", "-Infinity", "NaN"])
def test_parse_quantum_rejects_non_finite_entries(number):
    # Each reads as a float inf or nan; the integer 10**400 keeps its own message.
    for text, path in (
        (quantum_doc(seeds={"s": [[1, 0], [0, "X"]]}), r"seeds\.s\[1\]"),
        (quantum_doc(seeds={"m": [[[1, 0], [0, 0]], [[0, 0], ["X", 0]]]}), r"seeds\.m\[1\]\[1\]"),
        (quantum_doc(propositions={"P": [[[1, 0], [0, 0]], [[0, 0], [0, "X"]]]}), r"propositions\.P\[1\]\[1\]"),
    ):
        with pytest.raises(StructuralError, match=rf"^{path}: complex entries must be finite$"):
            modelio.parse_quantum(text.replace('"X"', number))


def test_integer_past_the_digit_limit_is_a_parse_error():
    with pytest.raises(StructuralError, match="^not valid JSON: an integer has too many digits$"):
        modelio.parse_quantum(quantum_doc(dimension=2).replace("2", "9" * 5000, 1))


def test_quantum_annotations_resolve_for_a_type_checker(monkeypatch):
    # modelio imports numpy for its annotations only when TYPE_CHECKING is
    # true, so that parsing model documents never loads it.  A fresh copy
    # of the module, run as a type checker reads it, resolves every hint.
    monkeypatch.setattr(typing, "TYPE_CHECKING", True)
    spec = importlib.util.find_spec("gqt.modelio")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    hints = typing.get_type_hints(module.QuantumDocument.__init__)
    assert hints["seeds"] == hints["propositions"] == tuple[tuple[str, np.ndarray], ...]
    for name in ("_parse_vector", "_parse_matrix", "_parse_state_entry"):
        assert typing.get_type_hints(getattr(module, name))["return"] is np.ndarray
