"""Random model generator, law checker, and fuzz loop."""

import pytest

from gqt import checker, core, modelio
from gqt.checker import GeneratorParams
from gqt.core import ZERO
from gqt.errors import StructuralError

from conftest import make_bell, make_bistable, make_qzx, mutate_entry, violation_holds


def test_params_validation():
    GeneratorParams(n_states=1)
    GeneratorParams(n_states=64, n_props=16, n_obs=8, max_spectrum=8, seed=2**64 - 1)
    with pytest.raises(StructuralError):
        GeneratorParams(n_states=0)
    with pytest.raises(StructuralError):
        GeneratorParams(n_states=65)
    with pytest.raises(StructuralError):
        GeneratorParams(n_states=4, n_props=17)
    with pytest.raises(StructuralError):
        GeneratorParams(n_states=4, n_obs=9)
    with pytest.raises(StructuralError):
        GeneratorParams(n_states=4, max_spectrum=1)
    with pytest.raises(StructuralError):
        GeneratorParams(n_states=4, seed=-1)
    with pytest.raises(StructuralError):
        GeneratorParams(n_states=4, seed=2**64)


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
    qzx = make_qzx()
    broken_props = dict(qzx.propositions)
    # ONE that maps everything to z0 breaks 1P=P1=P and 1ANDP=P
    space = qzx.space
    const_z0 = core.PropMap.from_names(space, {z: "z0" for z in space.states})
    broken_props["ONE"] = core.Proposition("ONE", const_z0, core.constant_zero_map(space))
    model = core.Model(space, broken_props, qzx.observables)
    laws = {v.law for v in checker.check_laws(model)}
    assert "1P=P1=P" in laws and "1ANDP=P" in laws


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
    broken = mutate_entry(make_qzx(), "Z0", "yes", "z0", ZERO)
    broken = mutate_entry(broken, "Z0", "yes", "zp", "zp")
    broken = mutate_entry(broken, "X0", "yes", "zm", "z0")
    assert [(v.law, v.subjects, v.witness, v.detail) for v in checker.check_laws(broken)] == [
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
