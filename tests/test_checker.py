"""Random model generator, law checker, and fuzz loop."""

import pytest

from gqt import checker, core, modelio
from gqt.checker import GeneratorParams
from gqt.core import ZERO
from gqt.errors import StructuralError

from conftest import force_every_pair_compatible, make_bell, make_bistable, make_qzx, mutate_entry, violation_holds


@pytest.mark.parametrize("field, low, high", [("n_states", 1, 64), ("n_props", 0, 16), ("n_obs", 0, 8), ("max_spectrum", 2, 8)])
def test_generator_params_take_each_count_bound_and_refuse_one_past_it(field, low, high):
    good = {"n_states": 4, "n_props": 2, "n_obs": 1, "max_spectrum": 3}
    for value in (low, high):
        assert getattr(GeneratorParams(**{**good, field: value}), field) == value
    for value in (low - 1, high + 1):
        with pytest.raises(StructuralError, match=f"^{field} must be in {low}\\.\\.{high}, got {value}$"):
            GeneratorParams(**{**good, field: value})


def test_params_validation():
    # The count bounds, one field at a time, are held by the test above.
    GeneratorParams(n_states=1)
    GeneratorParams(n_states=64, n_props=16, n_obs=8, max_spectrum=8, seed=2**64 - 1)
    with pytest.raises(StructuralError):
        GeneratorParams(n_states=4, seed=-1)
    with pytest.raises(StructuralError):
        GeneratorParams(n_states=4, seed=2**64)


# A float or a bool in range for each field, and for `fuzz`'s model count.
@pytest.mark.parametrize("field", [*GeneratorParams._fields, "n_models"])
def test_generator_params_and_fuzz_refuse_a_field_that_is_not_an_integer(field):
    good = {"n_states": 4, "n_props": 2, "n_obs": 1, "max_spectrum": 3, "seed": 1}
    for bad in (float(good.get(field, 2)), True):
        with pytest.raises(StructuralError, match=f"^{field} must be an integer, got {bad!r}$"):
            if field == "n_models":
                checker.fuzz(GeneratorParams(**good), bad)
            else:
                GeneratorParams(**{**good, field: bad})


def test_generated_models_are_valid():
    for seed in range(120):
        params = GeneratorParams(n_states=6, n_props=4, n_obs=2, seed=seed)
        model = checker.generate_model(params)
        assert core.validate_model(model) == [], f"seed {seed}"


def test_generated_models_with_extremes():
    for seed in range(20):
        tiny = checker.generate_model(GeneratorParams(n_states=1, n_props=3, n_obs=2, seed=seed))
        assert core.validate_model(tiny) == []
        # single state: every proposition fixes it on exactly one side
        (z,) = tiny.space.states
        for name, p in tiny.propositions.items():
            if name in core.RESERVED_PROPOSITION_NAMES:
                continue
            assert (p.yes(z) == z) != (p.no(z) == z)
        big = checker.generate_model(GeneratorParams(n_states=24, n_props=8, n_obs=4, seed=seed))
        assert core.validate_model(big) == []
        bare = checker.generate_model(GeneratorParams(n_states=5, n_props=0, n_obs=2, seed=seed))
        assert core.validate_model(bare) == []


def test_generator_is_deterministic():
    params = GeneratorParams(n_states=9, n_props=5, n_obs=3, seed=123)
    a = checker.generate_model(params)
    b = checker.generate_model(params)
    assert a == b
    assert modelio.serialize_model(a) == modelio.serialize_model(b)
    c = checker.generate_model(GeneratorParams(n_states=9, n_props=5, n_obs=3, seed=124))
    assert modelio.serialize_model(c) != modelio.serialize_model(a)


def test_observable_spectra_within_bounds():
    for seed in range(30):
        model = checker.generate_model(GeneratorParams(n_states=10, n_props=6, n_obs=3, max_spectrum=5, seed=seed))
        for obs in model.observables.values():
            assert 1 <= len(obs.spectrum) <= 5


def test_check_laws_clean_on_references():
    for model in (make_qzx(), make_bell(), make_bistable()):
        assert checker.check_laws(model) == []


def test_check_laws_clean_on_generated():
    for seed in range(40):
        model = checker.generate_model(GeneratorParams(n_states=7, n_props=5, n_obs=3, seed=seed))
        assert checker.check_laws(model) == []


def rows(report):
    return [(v.law, v.subjects, v.witness, v.detail) for v in report]


def broken_one():
    # ONE that maps every state to z0.
    qzx = make_qzx()
    const_z0 = core.PropMap.from_names(qzx.space, {z: "z0" for z in qzx.space.states})
    one = core.Proposition("ONE", const_z0, core.constant_zero_map(qzx.space))
    return core.Model(qzx.space, {**qzx.propositions, "ONE": one}, qzx.observables)


def broken_qzx():
    broken = mutate_entry(make_qzx(), "Z0", "yes", "z0", ZERO)
    broken = mutate_entry(broken, "Z0", "yes", "zp", "zp")
    return mutate_entry(broken, "X0", "yes", "zm", "z0")


def test_check_laws_flags_redirected_entry():
    qzx = make_qzx()
    # yes(z1) pointed at zp, which is not a yes-eigenstate: idempotence breaks
    broken = mutate_entry(qzx, "Z0", "yes", "z1", "zp")
    report = checker.check_laws(broken)
    assert report
    laws = {v.law for v in report}
    assert "PP=P" in laws
    for v in report:
        assert violation_holds(broken, v), v


def test_check_laws_flags_annihilation_break():
    qzx = make_qzx()
    broken = mutate_entry(qzx, "Z0", "yes", "zp", "zp")
    report = checker.check_laws(broken)
    laws = {v.law for v in report}
    assert "P·negP=0" in laws
    for v in report:
        assert violation_holds(broken, v), v


def test_check_laws_flags_broken_builtin():
    laws = {v.law for v in checker.check_laws(broken_one())}
    assert "1P=P1=P" in laws and "1ANDP=P" in laws


def test_idempotent_one_that_is_not_the_identity_breaks_one_identity():
    # P after ONE is P's yes map, but ONE after P sends a and c to c, not a.
    space = core.StateSpace(("a", "b", "c"))
    p_yes = core.PropMap.from_names(space, {"a": "a", "b": ZERO, "c": "a"})
    p_no = core.PropMap.from_names(space, {"a": ZERO, "b": "b", "c": ZERO})
    one_yes = core.PropMap.from_names(space, {"a": "c", "b": "b", "c": "c"})
    one = core.Proposition("ONE", one_yes, core.constant_zero_map(space))
    model = core.Model(space, {"P": core.Proposition("P", p_yes, p_no), "ONE": one, "ZERO": core.make_zero(space)}, {})
    report = [v for v in checker.check_laws(model) if v.law == "1P=P1=P"]
    assert [(v.subjects, v.witness) for v in report] == [(("P",), ("a",)), (("P",), ("c",))]
    for v in report:
        assert violation_holds(model, v), v


def test_check_laws_flags_exclusion_break():
    qzx = make_qzx()
    # make Z1 claim z0 as well: Z family loses mutual exclusion
    broken = mutate_entry(qzx, "Z1", "yes", "z0", "z1")
    report = checker.check_laws(broken)
    laws = {v.law for v in report}
    assert "mutual-exclusion" in laws
    for v in report:
        assert violation_holds(broken, v), v


def test_check_laws_flags_completeness_break():
    qzx = make_qzx()
    broken = mutate_entry(qzx, "Z0", "yes", "zp", ZERO)
    # zp now has no possible Z value on the yes side of Z0... Z1 still
    # fires on zp, so instead break both branches
    broken = mutate_entry(broken, "Z1", "yes", "zp", ZERO)
    report = checker.check_laws(broken)
    laws = {v.law for v in report}
    assert "completeness" in laws


def test_violation_holds_rejects_fabricated_violation():
    qzx = make_qzx()
    fake = core.Violation("PP=P", ("Z0", "yes"), ("z0",), "fabricated")
    assert not violation_holds(qzx, fake)
    with pytest.raises(StructuralError):
        violation_holds(qzx, core.Violation("no-such-law", ("Z0",), ("z0",)))


def test_violation_holds_replays_the_report():
    # ONE sends b to a, so P after ONE differs from P at b but ONE after P
    # does not: check_laws reports 1P=P1=P at b and no 1ANDP=P.
    space = core.StateSpace(("a", "b"))
    one = core.Proposition("ONE", core.PropMap.from_names(space, {"a": "a", "b": "a"}), core.constant_zero_map(space))
    p = core.Proposition(
        "P", core.PropMap.from_names(space, {"a": "a", "b": ZERO}), core.PropMap.from_names(space, {"a": ZERO, "b": "b"})
    )
    model = core.Model(space, {"ONE": one, "ZERO": core.make_zero(space), "P": p}, {})
    report = checker.check_laws(model)
    assert ("1P=P1=P", ("P",), ("b",)) in {(v.law, v.subjects, v.witness) for v in report}
    assert not any(v.law == "1ANDP=P" and v.subjects == ("P",) for v in report)
    assert not violation_holds(model, core.Violation("1ANDP=P", ("P",), ("b",)))
    for v in report:
        assert violation_holds(model, v), v


def test_check_laws_report_golden():
    assert rows(checker.check_laws(broken_qzx())) == [
        ("PP=P", ("X0", "yes"), ("zm",), "yes map is not idempotent at zm"),
        ("P·negP=0", ("X0",), ("z0",), "outcome maps do not annihilate at z0"),
        ("P·negP=0", ("X0",), ("zm",), "outcome maps do not annihilate at zm"),
        ("P·negP=0", ("X0",), ("z1",), "outcome maps do not annihilate at z1"),
        ("PP=P", ("Z0", "yes"), ("zm",), "yes map is not idempotent at zm"),
        ("P·negP=0", ("Z0",), ("zp",), "outcome maps do not annihilate at zp"),
        ("consistency", ("Z0",), ("z0",), "both outcomes are impossible at z0"),
        ("mutual-exclusion", ("X", "+", "-"), ("z0",), "value + stays possible after - at z0"),
        ("mutual-exclusion", ("X", "+", "-"), ("zm",), "value + stays possible after - at zm"),
        ("mutual-exclusion", ("X", "-", "+"), ("zm",), "value - stays possible after + at zm"),
        ("mutual-exclusion", ("X", "+", "-"), ("z1",), "value + stays possible after - at z1"),
        ("mutual-exclusion", ("Z", "1", "0"), ("zp",), "value 1 stays possible after 0 at zp"),
        ("completeness", ("Z",), ("z0",), "every value is impossible at z0"),
    ]


def test_law_ids_frozen():
    assert checker.LAW_IDS == (
        "PP=P",
        "P·negP=0",
        "consistency",
        "0P=P0=0",
        "1P=P1=P",
        "1ANDP=P",
        "mutual-exclusion",
        "completeness",
        "compat-implies-joint-eigenstate",
        "strongcomp-implies-comp",
        "compat-order-independence",
    )


def zero_keeps_a_state():
    # A raw model whose ZERO yes-map keeps a: nothing composed with it vanishes there.
    space = core.StateSpace(("a", "b"))
    zero = core.Proposition(
        "ZERO",
        core.PropMap.from_names(space, {"a": "a", "b": ZERO}),
        core.PropMap.from_names(space, {"a": ZERO, "b": "b"}),
    )
    return core.Model(space, {"ONE": core.make_one(space), "ZERO": zero}, {})


def test_zero_that_keeps_a_state_breaks_zero_absorption():
    assert rows(checker.check_laws(zero_keeps_a_state())) == [
        ("0P=P0=0", ("ONE",), ("a",), "composition with ZERO is not ZERO at a"),
        ("0P=P0=0", ("ZERO",), ("a",), "composition with ZERO is not ZERO at a"),
    ]


def zero_and_one_observables():
    # {v: ZERO} and {w: ONE} commute, and ZERO fixes no state, so they are
    # compatible with no common eigenstate.
    space = core.StateSpace(("a", "b"))
    v = core.Observable("V", ("v",), {"v": core.make_zero(space)})
    w = core.Observable("W", ("w",), {"w": core.make_one(space)})
    return core.Model.build(space, [], [v, w])


def test_compatible_pair_without_common_eigenstate_is_reported():
    model = zero_and_one_observables()
    assert core.classify_pair(*model.observables.values()) == (core.PairClass.COMPATIBLE, core.PairEvidence(None, ()))
    # Per pair, strongcomp-implies-comp comes before compat-implies-joint-eigenstate.
    no_common = "pair has no common eigenstate yet classifies as compatible"
    unreached = "no common eigenstate reachable by one measurement of each"
    assert rows(checker.check_laws(model)) == [
        ("completeness", ("V",), ("a",), "every value is impossible at a"),
        ("completeness", ("V",), ("b",), "every value is impossible at b"),
        ("strongcomp-implies-comp", ("V", "V"), (), no_common),
        ("compat-implies-joint-eigenstate", ("V", "V"), ("a",), unreached),
        ("compat-implies-joint-eigenstate", ("V", "V"), ("b",), unreached),
        ("strongcomp-implies-comp", ("V", "W"), (), no_common),
        ("compat-implies-joint-eigenstate", ("V", "W"), ("a",), unreached),
        ("compat-implies-joint-eigenstate", ("V", "W"), ("b",), unreached),
    ]


def test_noncommuting_pair_called_compatible_breaks_order_independence(monkeypatch):
    # The order law fires only on a pair that does not commute, so only
    # when the compatibility decision is wrong.
    force_every_pair_compatible(monkeypatch)
    states = ("z0", "zp", "zm", "z1")
    # Z and X share no eigenstate, so all three pair laws fire, in report order.
    assert rows(checker.check_laws(make_qzx())) == [
        ("strongcomp-implies-comp", ("X", "Z"), (), "pair has no common eigenstate yet classifies as compatible"),
        *(
            ("compat-implies-joint-eigenstate", ("X", "Z"), (z,), "no common eigenstate reachable by one measurement of each")
            for z in states
        ),
        *(
            ("compat-order-independence", ("X", vx, "Z", vz), (z,), f"measurement order changes the outcome at {z}")
            for vx in "+-"
            for vz in "01"
            for z in states
        ),
    ]


# One model per law id on which check_laws reports that law.
LAW_MODELS = {
    "PP=P": broken_qzx,
    "P·negP=0": broken_qzx,
    "consistency": broken_qzx,
    "0P=P0=0": zero_keeps_a_state,
    "1P=P1=P": broken_one,
    "1ANDP=P": broken_one,
    "mutual-exclusion": broken_qzx,
    "completeness": broken_qzx,
    "compat-implies-joint-eigenstate": zero_and_one_observables,
    "strongcomp-implies-comp": zero_and_one_observables,
    "compat-order-independence": make_qzx,
}


@pytest.mark.parametrize("law", checker.LAW_IDS)
def test_every_law_id_is_reported_on_some_model(monkeypatch, law):
    if law == "compat-order-independence":
        force_every_pair_compatible(monkeypatch)
    assert law in {v.law for v in checker.check_laws(LAW_MODELS[law]())}


def test_minimize_counterexample():
    qzx = make_qzx()
    broken = mutate_entry(qzx, "Z0", "yes", "z1", "zp")
    report = checker.check_laws(broken)
    v = next(v for v in report if v.law == "PP=P")
    small = checker.minimize_counterexample(broken, v)
    assert set(small.space.states) <= set(broken.space.states)
    assert v.witness[0] in small.space
    # the violation replays against the minimized model too
    assert violation_holds(small, v)


def test_fuzz_small_run_is_clean_and_deterministic():
    params = GeneratorParams(n_states=6, n_props=4, n_obs=2, seed=42)
    summary = checker.fuzz(params, 25)
    assert summary.n_models == 25
    assert summary.n_violations == 0
    assert summary.first_by_law == {}
    again = checker.fuzz(params, 25)
    assert again == summary
    empty = checker.fuzz(params, 0)
    assert empty.n_models == 0 and empty.n_violations == 0
    with pytest.raises(StructuralError):
        checker.fuzz(params, -1)


def test_fuzz_seed_wraparound():
    params = GeneratorParams(n_states=3, n_props=2, n_obs=1, seed=2**64 - 2)
    summary = checker.fuzz(params, 4)
    assert summary.n_models == 4
    assert summary.n_violations == 0
