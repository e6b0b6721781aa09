"""Model and quantum document parsing, canonical serialization."""

import json

import numpy as np
import pytest

from gqt import core, modelio
from gqt.errors import StructuralError

from conftest import FIXTURES, make_bell, make_bistable, make_qzx


def read_fixture(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


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
    for spectrum, message in ((["v", "v"], "duplicate spectrum value 'v'"), (["", "v"], "non-empty strings")):
        family = {v: "P" for v in spectrum}
        with pytest.raises(StructuralError, match=rf"^observables\.Z: observable 'Z': .*{message}"):
            modelio.parse_quantum(quantum_doc(observables={"Z": {"spectrum": spectrum, "family": family}}))
    with pytest.raises(StructuralError, match="at least one seed"):
        modelio.parse_quantum(quantum_doc(seeds={}))
