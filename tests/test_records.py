"""Record semantics: every record type is an immutable `__slots__` class
compared, hashed and shown by its declared fields only."""

import copy
import pickle

import numpy as np
import pytest

from gqt import checker, core, modelio, quantum

from conftest import FIXTURES

SPACE = core.StateSpace(("a", "b"))
OTHER_SPACE = core.StateSpace(("a", "c"))
YES = core.PropMap(SPACE, (0, 2, 2))
NO = core.PropMap(SPACE, (2, 1, 2))
P = core.Proposition("P", YES, NO)
Q = core.Proposition("Q", core.PropMap(SPACE, (2, 1, 2)), core.PropMap(SPACE, (0, 2, 2)))
VIOLATION = core.Violation("law", ("P",), ("a",), "detail")
WITNESS = core.CommutationWitness("P", "Q", "yes", "no", "a", "b", "a")
OBSERVABLE = core.observable_from_proposition(P, "A")
PARTITION = core.Partition(("L", "R"), {"A": "L"}, ("B",))
MODEL = core.Model.build(SPACE, [P, core.negate(P)], [OBSERVABLE])
PARAMS = checker.GeneratorParams(5, 2, 1, 4, 9)
SPEC = modelio.ObservableSpec("O", ("0", "1"), {"0": "Z0", "1": "Z1"})
# Records compare arrays by value, so equal copies of a 2x2 matrix are equal.
MATRIX = np.array([[0.5, 0.5j], [-0.5j, 0.5]])

MODEL_ARGS = (SPACE, MODEL.propositions, MODEL.observables, None)
# A model holds only parts over its own space and only its own members, so
# no one model takes every one-field change: per field, two valid models'
# arguments that differ in that field alone.
MODEL_VARIANTS = [
    ((SPACE, {}, {}, None), (OTHER_SPACE, {}, {}, None)),
    (MODEL_ARGS, (SPACE, {**MODEL.propositions, "Q": Q}, MODEL.observables, None)),
    (MODEL_ARGS, (SPACE, MODEL.propositions, {}, None)),
    (MODEL_ARGS, (SPACE, MODEL.propositions, MODEL.observables, PARTITION)),
]

# Per record type: its constructor arguments, in field order, and for
# each field a value that makes an unequal record (for Model, a pair of
# argument tuples).
CASES = {
    core.StateSpace: ((("a", "b"),), [("a", "c")]),
    core.PropMap: ((SPACE, (0, 2, 2)), [OTHER_SPACE, (0, 1, 2)]),
    core.Proposition: (("P", YES, NO), ["Q", NO, YES]),
    core.DerivedProposition: (("yes", YES, "P AND P"), ["no", NO, "P OR P"]),
    core.Violation: (("law", ("P",), ("a",), "detail"), ["other", ("Q",), ("b",), ""]),
    core.CommutationWitness: (
        ("P", "Q", "yes", "no", "a", "b", "a"),
        ["R", "R", "no", "yes", "b", core.ZERO, core.ZERO],
    ),
    core.PairEvidence: ((None, (("a", "yes", "yes"),)), [WITNESS, ()]),
    core.Observable: (
        ("A", ("yes", "no"), {"yes": P, "no": core.negate(P)}),
        ["B", ("no", "yes"), {"yes": Q, "no": core.negate(Q)}],
    ),
    core.Partition: ((("L", "R"), {"A": "L"}, ("B",)), [("L",), {"A": "R"}, ()]),
    core.Model: (MODEL_ARGS, MODEL_VARIANTS),
    modelio.ObservableSpec: (("O", ("0", "1"), {"0": "Z0", "1": "Z1"}), ["X", ("1", "0"), {"0": "Z1", "1": "Z0"}]),
    modelio.QuantumDocument: (
        (2, (("s", MATRIX),), (("Z0", MATRIX),), (SPEC,), 8, 1e-9, PARTITION),
        [3, (), (), (), None, None, None],
    ),
    checker.GeneratorParams: ((5, 2, 1, 4, 9), [6, 3, 2, 5, 10]),
    checker.FuzzCounterexample: (("law", 3, VIOLATION, MODEL), ["other", 4, core.Violation("law", (), ()), None]),
    checker.FuzzSummary: ((PARAMS, 1, 0, {"law": None}), [checker.GeneratorParams(6), 2, 1, {}]),
    quantum.Orbit: ((MODEL, (MATRIX,), 0.0, 1.0, 16, 1e-9), [None, (), 0.5, 2.0, 32, 1e-6]),
}

HASHABLE = {
    core.StateSpace,
    core.PropMap,
    core.Proposition,
    core.DerivedProposition,
    core.Violation,
    core.CommutationWitness,
    core.PairEvidence,
    checker.GeneratorParams,
}

DERIVED = {
    core.StateSpace: {"index": {}, "by_name": ()},
    core.Observable: {"space": None, "_eigenvalues": ()},
}

RECORDS = sorted(CASES, key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")
IDS = [cls.__qualname__ for cls in RECORDS]


def test_every_record_type_is_covered():
    assert len(CASES) == 16
    for module in (core, modelio, checker, quantum):
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, core._Record) and value is not core._Record:
                assert value in CASES


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records(cls):
    args, _ = CASES[cls]
    a, b = cls(*args), cls(*args)
    assert a is not b
    assert a == b and not a != b
    assert a != "not a record"
    assert repr(a) == repr(b) == f"{cls.__qualname__}({', '.join(f'{f}={getattr(a, f)!r}' for f in cls._fields)})"
    if cls in HASHABLE:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_each_field_is_compared(cls):
    args, variants = CASES[cls]
    assert len(args) == len(variants) == len(cls._fields)
    if cls is not core.Model:
        variants = [(args, (*args[:i], value, *args[i + 1 :])) for i, value in enumerate(variants)]
    for field, (base_args, other_args) in zip(cls._fields, variants):
        assert [f for f, a, b in zip(cls._fields, base_args, other_args) if a is not b and a != b] == [field]
        base, other = cls(*base_args), cls(*other_args)
        assert other != base and not other == base, field


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_records_are_immutable_and_have_no_dict(cls):
    r = cls(*CASES[cls][0])
    assert not hasattr(r, "__dict__")
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert cls(*CASES[cls][0]) == r


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_copies_are_equal_and_complete(cls):
    r = cls(*CASES[cls][0])
    for clone in (copy.copy(r), pickle.loads(pickle.dumps(r))):
        assert type(clone) is cls and clone == r
        for name in cls.__slots__:
            getattr(clone, name)


@pytest.mark.parametrize("cls", sorted(DERIVED, key=lambda c: c.__qualname__), ids=lambda c: c.__qualname__)
def test_derived_fields_are_not_compared_or_shown(cls):
    args, _ = CASES[cls]
    a, b = cls(*args), cls(*args)
    for name, value in DERIVED[cls].items():
        assert name not in cls._fields and name in cls.__slots__
        object.__setattr__(b, name, value)
        assert getattr(a, name) != value
    assert a == b
    assert repr(a) == repr(b)
    if cls in HASHABLE:
        assert hash(a) == hash(b)


def test_map_table_type_follows_size():
    # Bytes while every index fits in a byte (up to 255 states), a tuple beyond.
    assert YES.table == bytes((0, 2, 2))
    assert YES.__reduce__() == (core.PropMap, (SPACE, YES.table))
    space = core.StateSpace(tuple(f"s{i}" for i in range(256)))
    big = core.identity_map(space)
    assert big.table == tuple(range(257)) and core.PropMap(space, big.table) == big
    for m in (YES, big):
        for clone in (copy.copy(m), pickle.loads(pickle.dumps(m))):
            assert clone == m and type(clone.table) is type(m.table)


def test_defaults():
    assert core.Violation("law", (), ()).detail == ""
    assert core.Model(SPACE, {}, {}).partition is None
    params = checker.GeneratorParams(3)
    assert (params.n_props, params.n_obs, params.max_spectrum, params.seed) == (0, 0, 4, 0)
    doc = modelio.QuantumDocument(1, (), (), ())
    assert (doc.cap, doc.tolerance, doc.partition) == (None, None, None)


def test_model_build_stays_a_classmethod():
    assert isinstance(vars(core.Model)["build"], classmethod)


def test_models_stay_equal_through_modelio():
    texts = [(FIXTURES / name).read_text(encoding="utf-8") for name in ("qzx.json", "bell.json", "bistable.json")]
    models = [modelio.parse_model(text) for text in texts]
    for name in ("qzx_quantum.json", "bell_quantum.json"):
        models.append(quantum.document_model(modelio.parse_quantum((FIXTURES / name).read_text(encoding="utf-8"))))
    models += [checker.generate_model(checker.GeneratorParams(n, 6, 3, seed=n)) for n in (1, 8, 24)]
    for model in models:
        again = modelio.parse_model(modelio.serialize_model(model))
        assert again is not model
        assert again == model
        assert (again.space.index, again.space.by_name) == (model.space.index, model.space.by_name)
        for name, observable in model.observables.items():
            assert again.observables[name].eigenvalues == observable.eigenvalues


def test_arrays_are_compared_by_value():
    # Distinct arrays with equal dtype, shape and bytes are equal; each of
    # the three differing makes an unequal record.
    zeros = np.zeros((2, 2))
    makers = [
        lambda m: modelio.QuantumDocument(2, (("s", m),), (("Z0", m),), (SPEC,)),
        lambda m: quantum.Orbit(MODEL, (m,), 0.0, 1.0, 16, 1e-9),
    ]
    for make in makers:
        assert make(MATRIX.copy()) == make(MATRIX.copy())
        assert make(zeros) == make(zeros.copy())
        for other in (zeros.astype(np.int64), zeros.reshape(4, 1), zeros + np.eye(2)):
            assert make(other) != make(zeros) and not make(other) == make(zeros)


def test_two_closures_of_one_system_give_equal_orbits():
    doc = modelio.parse_quantum((FIXTURES / "bell_quantum.json").read_text(encoding="utf-8"))
    first, second = quantum.document_orbit(doc), quantum.document_orbit(doc)
    assert first.matrices[0] is not second.matrices[0]
    assert first == second and not first != second
    assert first != quantum.document_orbit(doc, tol=1e-6)


def test_zero_survives_copy_and_pickle():
    assert pickle.loads(pickle.dumps(core.ZERO)) is core.ZERO
    assert copy.copy(core.ZERO) is core.ZERO and copy.deepcopy(core.ZERO) is core.ZERO
    witness = core.CommutationWitness("P", "Q", "yes", "no", "a", core.ZERO, "b")
    for clone in (copy.deepcopy(witness), pickle.loads(pickle.dumps(witness))):
        assert clone.pq is core.ZERO and core.show_state(clone.pq) == "null"
        assert clone == witness
