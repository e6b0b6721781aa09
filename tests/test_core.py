"""Core calculus: propositions, observables, classification, entanglement."""

import pickle

import numpy as np
import pytest

from gqt import checker, core, quantum
from gqt.core import ZERO, ModalStatus, PairClass
from gqt.errors import (
    AmbiguousRealization,
    DomainError,
    EntanglementPreconditionError,
    IncompatibleOperands,
    StructuralError,
)

from conftest import eigenstates_of_proposition, make_bell, make_bistable, make_qzx, mutate_entry


def space4():
    return core.StateSpace(("a", "b", "c", "d"))


# ---------------------------------------------------------------------------
# Construction and structural errors


def test_state_space_rejects_duplicates_and_zero_token():
    with pytest.raises(StructuralError):
        core.StateSpace(("a", "a"))
    with pytest.raises(StructuralError):
        core.StateSpace(())
    with pytest.raises(StructuralError):
        core.StateSpace(("a", "null"))
    with pytest.raises(StructuralError):
        core.StateSpace(("a", ""))


def test_state_space_membership():
    space = space4()
    assert "a" in space and "d" in space
    assert "e" not in space and "null" not in space
    # non-string arguments, hashable or not, are never states
    for other in (ZERO, None, 1, ("a",), ["a"], {"a"}):
        assert other not in space
    assert space == core.StateSpace(("a", "b", "c", "d"))
    assert hash(space) == hash(core.StateSpace(("a", "b", "c", "d")))
    assert space != core.StateSpace(("d", "c", "b", "a"))


def test_prop_map_must_be_total():
    space = space4()
    with pytest.raises(StructuralError, match="not total"):
        core.PropMap.from_names(space, {"a": "a", "b": ZERO, "c": "a"})
    with pytest.raises(StructuralError, match="unknown state"):
        core.PropMap.from_names(space, {"a": "a", "b": ZERO, "c": "a", "d": "zz"})
    with pytest.raises(StructuralError):
        core.PropMap.from_names(space, {"a": "a", "b": ZERO, "c": "a", "d": "d", "e": "a"})


@pytest.mark.parametrize(
    "table",
    [
        (0, 1, 2, 3),  # no zero slot
        (0, 1, 2, 3, 4, 4),  # one entry too many
        (0, 1, 2, 5, 4),  # past the zero index
        (0, -1, 2, 3, 4),  # negative
        (0, 1, 2, 3, 3),  # zero slot not fixed
        (0, 1, 2.0, 3, 4),  # not an int
        (0, True, 2, 3, 4),  # a bool
        ("a", "b", "c", "d", 4),  # names
    ],
)
def test_prop_map_rejects_bad_table(table):
    with pytest.raises(StructuralError):
        core.PropMap(space4(), table)


def _fixture_and_generated_models():
    yield from (make_qzx(), make_bell(), make_bistable())
    for seed in range(3):
        yield checker.generate_model(checker.GeneratorParams(n_states=9, n_props=5, n_obs=3, seed=seed))


@pytest.mark.parametrize("model", list(_fixture_and_generated_models()))
def test_every_map_fixes_its_zero_slot(model):
    n = len(model.space)
    for p in model.propositions.values():
        for m in (p.yes, p.no):
            assert len(m.table) == n + 1 and m.table[n] == n


def test_prop_map_zero_is_absorbing():
    m = core.identity_map(space4())
    assert m(ZERO) is ZERO
    assert m("a") == "a"
    with pytest.raises(StructuralError):
        m("zz")


@pytest.mark.parametrize("n", [1, 2, 5, 256])
def test_builtin_maps_equal_those_of_the_public_constructor(n):
    # identity_map and constant_zero_map skip the table check, as valid by
    # construction; each must be the map PropMap(space, table) checks and builds.
    space = core.StateSpace(tuple(f"s{i}" for i in range(n)))
    for got, table in ((core.identity_map(space), range(n + 1)), (core.constant_zero_map(space), [n] * (n + 1))):
        want = core.PropMap(space, table)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert type(got.table) is (bytes if n <= 255 else tuple) and pickle.loads(pickle.dumps(got)) == want


def test_proposition_requires_matching_spaces():
    s1, s2 = space4(), core.StateSpace(("x", "y"))
    with pytest.raises(StructuralError):
        core.Proposition("P", core.identity_map(s1), core.constant_zero_map(s2))


def test_observable_family_must_cover_spectrum():
    qzx = make_qzx()
    z0 = qzx.propositions["Z0"]
    with pytest.raises(StructuralError, match="no proposition for value"):
        core.Observable("A", ("0", "1"), {"0": z0})
    with pytest.raises(StructuralError, match="unknown value"):
        core.Observable("A", ("0",), {"0": z0, "1": z0})
    with pytest.raises(StructuralError, match="duplicate spectrum value"):
        core.Observable("A", ("0", "0"), {"0": z0})


def test_model_build_injects_builtins_and_rejects_redefinition(qzx):
    assert set(core.RESERVED_PROPOSITION_NAMES) <= set(qzx.propositions)
    assert qzx.propositions["ONE"] == core.make_one(qzx.space)
    space = qzx.space
    rogue = core.Proposition("ONE", core.constant_zero_map(space), core.identity_map(space))
    with pytest.raises(StructuralError, match="reserved"):
        core.Model.build(space, [rogue])
    # passing the genuine builtin through is allowed (idempotent rebuild)
    rebuilt = core.Model.build(space, qzx.propositions.values(), qzx.observables.values())
    assert rebuilt == qzx


def test_model_build_rejects_foreign_family_member(qzx):
    foreign = core.Proposition("F", core.identity_map(qzx.space), core.constant_zero_map(qzx.space))
    obs = core.Observable("A", ("v",), {"v": foreign})
    with pytest.raises(StructuralError, match="not a proposition of the model"):
        core.Model.build(qzx.space, [], [obs])


def _unchecked_model(space, propositions, observables):
    """A Model made without its constructor, so without its checks."""
    model = object.__new__(core.Model)
    model._assign(space, dict(propositions), dict(observables), None)
    return model


DANGLING_MESSAGE = "observable 'Z': family member 'Z0' is not a proposition of the model"


def _model_fault_cases():
    """Per fault a model refuses: the raw constructor's arguments, the
    message, and `Model.build`'s arguments where build can make the fault."""
    qzx = make_qzx()
    space, props, observables = qzx.space, qzx.propositions, qzx.observables
    abc, wide = core.StateSpace(("a", "b", "c")), core.StateSpace(("x", "y", "z", "u", "v"))
    builtins = {"ONE": core.make_one(abc), "ZERO": core.make_zero(abc)}
    # Over another space: before the constructor refused this model,
    # validate_model raised on it, check_laws reported laws broken at x, y,
    # z, u and v, and reachable_submodel raised IndexError.
    p_wide = core.Proposition("P", core.identity_map(wide), core.constant_zero_map(wide))
    foreign_obs = core.observable_from_proposition(core.Proposition("F", p_wide.yes, p_wide.no), "A")
    # Under another name: validate_model reported nothing, and
    # serialize_model wrote P as Q.
    p_abc = core.Proposition("P", core.identity_map(abc), core.constant_zero_map(abc))
    # Observable Z's "0" member named Z0 but not the model's Z0 (a missing
    # member has tests of its own below).
    z, other_z0 = observables["Z"], mutate_entry(qzx, "Z0", "yes", "zp", "zp").propositions["Z0"]
    other_member = {**observables, "Z": core.Observable("Z", z.spectrum, {**z.family, "0": other_z0})}
    return {
        "proposition-over-another-space": (
            (abc, {**builtins, "P": p_wide}, {}),
            "proposition 'P' is over a different state space",
            (abc, [p_wide]),
        ),
        "observable-over-another-space": (
            (space, props, {"A": foreign_obs}),
            "observable 'A' is over a different state space",
            (space, props.values(), [foreign_obs]),
        ),
        "proposition-under-another-name": (
            (abc, {**builtins, "Q": p_abc}, {}),
            "proposition 'P' is stored under 'Q'",
            None,
        ),
        "observable-under-another-name": ((space, props, {"Y": z}), "observable 'Z' is stored under 'Y'", None),
        "member-with-other-maps": (
            (space, props, other_member),
            DANGLING_MESSAGE,
            (space, props.values(), other_member.values()),
        ),
    }


MODEL_FAULT_CASES = _model_fault_cases()


@pytest.mark.parametrize("case", list(MODEL_FAULT_CASES))
def test_a_model_holds_only_its_own_parts(case):
    # Every way to make a model refuses the fault, so no report or rebuild
    # ever meets one.
    args, message, build_args = MODEL_FAULT_CASES[case]
    calls = [lambda: core.Model(*args), lambda: pickle.loads(pickle.dumps(_unchecked_model(*args)))]
    if build_args is not None:
        calls.append(lambda: core.Model.build(*build_args))
    for call in calls:
        with pytest.raises(StructuralError) as info:
            call()
        assert str(info.value) == message


def _structural_error_cases():
    qzx = make_qzx()
    space, other = qzx.space, core.StateSpace(("x", "y"))
    z0, z = qzx.propositions["Z0"], qzx.observables["Z"]
    foreign = core.Proposition("F", core.identity_map(other), core.constant_zero_map(other))
    foreign_obs = core.observable_from_proposition(foreign, "A")
    qubit, qutrit = quantum.DensityState(np.eye(2) / 2), quantum.DensityState(np.eye(3) / 3)
    return {
        "proposition-name": (lambda: core.Proposition("", z0.yes, z0.no), "proposition name must be a non-empty string"),
        "derived-side": (
            lambda: core.DerivedProposition("maybe", z0.yes, "Z0"),
            "known_side must be 'yes' or 'no', got 'maybe'",
        ),
        "observable-spaces": (
            lambda: core.Observable("A", ("0", "1"), {"0": z0, "1": foreign}),
            "observable 'A': family members use different state spaces",
        ),
        "build-foreign-proposition": (
            lambda: core.Model.build(space, [foreign]),
            "proposition 'F' is over a different state space",
        ),
        "build-duplicate-proposition": (lambda: core.Model.build(space, [z0, z0]), "duplicate proposition name 'Z0'"),
        "build-duplicate-observable": (
            lambda: core.Model.build(space, qzx.propositions.values(), [z, z]),
            "duplicate observable name 'Z'",
        ),
        "build-foreign-observable": (
            lambda: core.Model.build(space, [], [foreign_obs]),
            "observable 'A' is over a different state space",
        ),
        "compatible-spaces": (
            lambda: core.is_compatible_propositions(z0, foreign),
            "propositions are over different state spaces",
        ),
        "realize-space": (
            lambda: core.realize(qzx, core.DerivedProposition("yes", foreign.yes, "F")),
            "derived proposition is over a different state space",
        ),
        "common-eigenstates-spaces": (
            lambda: core.common_eigenstates(z, foreign_obs),
            "observables are over different state spaces",
        ),
        "classify-pair-spaces": (lambda: core.classify_pair(z, foreign_obs), "observables are over different state spaces"),
        "pair-class-spaces": (lambda: core.pair_class(z, foreign_obs), "observables are over different state spaces"),
        "act-projector-dimension": (
            lambda: quantum.close_orbit([qubit], [("P", quantum.Projector(np.eye(3)))]),
            "projector 'P' dimension does not match the seeds",
        ),
        "close-orbit-seeds": (
            lambda: quantum.close_orbit([qubit, qutrit], [("P", quantum.Projector(np.eye(2)))]),
            "seed states have mixed dimensions",
        ),
    }


STRUCTURAL_ERROR_CASES = _structural_error_cases()


@pytest.mark.parametrize("case", list(STRUCTURAL_ERROR_CASES))
def test_structural_errors_name_their_cause(case):
    call, message = STRUCTURAL_ERROR_CASES[case]
    with pytest.raises(StructuralError) as info:
        call()
    assert str(info.value) == message


def test_an_equal_space_passes_every_space_check(qzx):
    # The space checks look at identity first; parts over an equal space
    # that is another object still pass them, with the same results.
    twin = pickle.loads(pickle.dumps(qzx))
    assert twin.space == qzx.space and twin.space is not qzx.space
    z0, z1, x0 = qzx.propositions["Z0"], twin.propositions["Z1"], twin.propositions["X0"]
    z, x = qzx.observables["Z"], twin.observables["X"]
    same_x0, same_x = qzx.propositions["X0"], qzx.observables["X"]
    assert core.Proposition("Z0", z0.yes, twin.propositions["Z0"].no) == z0
    assert core.Observable("Z", z.spectrum, {"0": z0, "1": z1}) == z
    assert core.Model(qzx.space, twin.propositions, twin.observables) == twin
    assert core.compose(z0.yes, x0.yes) == core.compose(z0.yes, same_x0.yes)
    assert core.is_compatible_propositions(z0, x0) == core.is_compatible_propositions(z0, same_x0)
    assert core.realize(twin, core.DerivedProposition("yes", z0.yes, "Z0")) == z0
    assert core.common_eigenstates(z, x) == core.common_eigenstates(z, same_x)
    assert core.pair_class(z, x) == core.pair_class(z, same_x)


# ---------------------------------------------------------------------------
# The per-part laws


def proposition_report(p):
    return [v for law in core.PROPOSITION_LAWS for v in law(p)]


def observable_report(a):
    return [v for law in core.OBSERVABLE_LAWS for v in law(a)]


def test_builtins_validate_clean(qzx):
    assert proposition_report(qzx.propositions["ONE"]) == []
    assert proposition_report(qzx.propositions["ZERO"]) == []


def test_qzx_propositions_validate_clean(qzx):
    for name in ("Z0", "Z1", "X0", "X1"):
        assert proposition_report(qzx.propositions[name]) == []


def test_redirected_entry_breaks_annihilation(qzx):
    # send Z0.yes(zp) to zp itself: zp is not a yes-eigenstate, so the
    # no-map no longer annihilates the yes-image
    broken = mutate_entry(qzx, "Z0", "yes", "zp", "zp")
    report = proposition_report(broken.propositions["Z0"])
    laws = {(v.law, v.witness) for v in report}
    assert ("annihilation", ("zp",)) in laws


def test_idempotence_violation_witness():
    space = core.StateSpace(("a", "b"))
    yes = core.PropMap.from_names(space, {"a": "b", "b": ZERO})
    no = core.PropMap.from_names(space, {"a": ZERO, "b": "b"})
    # yes(a) = b but yes(b) = ZERO: not idempotent at a; also b claims
    # both outcomes in a tangled way, caught separately
    p = core.Proposition("P", yes, no)
    report = proposition_report(p)
    assert any(v.law == "idempotence-yes" and v.witness == ("a",) for v in report)


def test_consistency_violation():
    space = core.StateSpace(("a",))
    p = core.Proposition("P", core.constant_zero_map(space), core.constant_zero_map(space))
    report = proposition_report(p)
    assert [v.law for v in report] == ["consistency"]
    assert report[0].witness == ("a",)


# ---------------------------------------------------------------------------
# negate / side / compose / modal status


def test_negate_is_involutive(qzx):
    for name in ("Z0", "X1"):
        p = qzx.propositions[name]
        n = core.negate(p)
        assert n.name == "¬" + name
        assert n.yes == p.no and n.no == p.yes
        assert core.negate(n) == p


def test_negate_swaps_builtins(qzx):
    one = qzx.propositions["ONE"]
    assert core.negate(one) == qzx.propositions["ZERO"]
    assert core.negate(qzx.propositions["ZERO"]) == one


def test_apply_matches_tables(qzx):
    # Asking a proposition and getting an outcome is `p.side(outcome)(z)`.
    z0 = qzx.propositions["Z0"]
    assert z0.side("yes") is z0.yes and z0.side("no") is z0.no
    assert z0.side("yes")("zp") == "z0"
    assert z0.side("no")("zp") == "z1"
    assert z0.side("yes")("z1") is ZERO
    assert z0.side("yes")(ZERO) is ZERO
    with pytest.raises(StructuralError, match="outcome must be 'yes' or 'no', got 'maybe'"):
        z0.side("maybe")
    with pytest.raises(StructuralError, match="unknown state 'nope'"):
        z0.side("yes")("nope")


def test_compose_is_associative_action(qzx):
    z0, x0 = qzx.propositions["Z0"], qzx.propositions["X0"]
    assert core.compose(z0.yes, z0.yes) == z0.yes
    assert core.compose(z0.yes, z0.no) == core.constant_zero_map(qzx.space)
    one = qzx.propositions["ONE"]
    assert core.compose(one.yes, x0.yes) == x0.yes
    assert core.compose(x0.yes, one.yes) == x0.yes
    with pytest.raises(StructuralError):
        core.compose(z0.yes, core.identity_map(core.StateSpace(("q",))))


def test_modal_status(qzx):
    z0 = qzx.propositions["Z0"]
    assert core.modal_status(z0, "z0") is ModalStatus.CERTAIN
    assert core.modal_status(z0, "z1") is ModalStatus.IMPOSSIBLE
    assert core.modal_status(z0, "zp") is ModalStatus.POSSIBLE
    assert core.modal_status(qzx.propositions["ZERO"], "z0") is ModalStatus.IMPOSSIBLE
    assert core.modal_status(qzx.propositions["ONE"], "zm") is ModalStatus.CERTAIN
    with pytest.raises(DomainError):
        core.modal_status(z0, ZERO)


def test_eigenstates_of_proposition(qzx):
    z0 = qzx.propositions["Z0"]
    assert eigenstates_of_proposition(z0) == [("z0", "yes"), ("z1", "no")]
    neg = core.negate(z0)
    assert eigenstates_of_proposition(neg) == [("z0", "no"), ("z1", "yes")]
    one = qzx.propositions["ONE"]
    assert eigenstates_of_proposition(one) == [(z, "yes") for z in sorted(qzx.space.states)]


def test_negation_of_a_bare_negation_sign():
    space = core.StateSpace(("a",))
    p = core.Proposition("¬", core.identity_map(space), core.constant_zero_map(space))
    assert core.negate(p).name == "¬¬"
    assert core.negate(core.negate(p)) == p
    assert eigenstates_of_proposition(p) == [("a", "yes")]


# ---------------------------------------------------------------------------
# Compatibility, conjunction, realization


def test_compatibility_with_negation_and_builtins(qzx):
    for name, p in qzx.propositions.items():
        ok, witness = core.is_compatible_propositions(p, core.negate(p))
        assert ok and witness is None, name
        ok, _ = core.is_compatible_propositions(p, qzx.propositions["ONE"])
        assert ok
        ok, _ = core.is_compatible_propositions(p, qzx.propositions["ZERO"])
        assert ok


def test_z_and_x_are_incompatible(qzx):
    z0, x0 = qzx.propositions["Z0"], qzx.propositions["X0"]
    ok, witness = core.is_compatible_propositions(z0, x0)
    assert not ok
    # replay the witness on the raw maps
    mp = z0.side(witness.p_side)
    mq = x0.side(witness.q_side)
    z = witness.state
    pq = mp(mq(z))
    qp = mq(mp(z))
    assert pq == witness.pq and qp == witness.qp and pq != qp


def test_conjunction_with_one_reproduces_yes_map(qzx):
    z0 = qzx.propositions["Z0"]
    d = core.conjunction(qzx.propositions["ONE"], z0)
    assert d.known_side == "yes"
    assert d.known_map == z0.yes
    assert core.realize(qzx, d) == z0


def test_conjunction_with_own_negation_is_never(qzx):
    z0 = qzx.propositions["Z0"]
    d = core.conjunction(z0, core.negate(z0))
    assert d.known_map == core.constant_zero_map(qzx.space)
    assert core.realize(qzx, d) == qzx.propositions["ZERO"]


def test_conjunction_of_incompatible_raises(qzx):
    with pytest.raises(IncompatibleOperands) as exc:
        core.conjunction(qzx.propositions["Z0"], qzx.propositions["X0"])
    assert exc.value.witness is not None
    with pytest.raises(IncompatibleOperands):
        core.adjunction(qzx.propositions["Z0"], qzx.propositions["X0"])


def test_adjunction_with_negation_is_always(qzx):
    z0 = qzx.propositions["Z0"]
    d = core.adjunction(z0, core.negate(z0))
    assert d.known_side == "no"
    assert d.known_map == core.constant_zero_map(qzx.space)
    assert core.realize(qzx, d) == qzx.propositions["ONE"]


def test_realize_returns_none_when_unmatched(qzx):
    space = qzx.space
    const_zp = core.PropMap.from_names(space, {z: "zp" for z in space.states})
    d = core.DerivedProposition("yes", const_zp, "synthetic")
    assert core.realize(qzx, d) is None


def test_realize_ambiguity(bell):
    # PsiP, PsiM, and builtin ZERO all share the constant-zero yes map
    d = core.conjunction(bell.propositions["PsiP"], bell.propositions["PsiM"])
    with pytest.raises(AmbiguousRealization) as exc:
        core.realize(bell, d)
    assert set(exc.value.candidates) == {"PsiP", "PsiM", "ZERO"}


def test_realize_ambiguity_between_exactly_two_propositions(qzx):
    # W is Z0 under another name; no builtin shares their yes map.
    z0 = qzx.propositions["Z0"]
    twice = core.Model(qzx.space, {**qzx.propositions, "W": core.Proposition("W", z0.yes, z0.no)}, qzx.observables)
    with pytest.raises(AmbiguousRealization, match="^Z0: 2 propositions share the yes-map$") as exc:
        core.realize(twice, core.DerivedProposition("yes", z0.yes, "Z0"))
    assert exc.value.candidates == ("W", "Z0")


def test_derived_proposition_must_be_idempotent(qzx):
    space = qzx.space
    bad = core.PropMap.from_names(space, {"z0": "zp", "zp": "zm", "zm": "zm", "z1": ZERO})
    with pytest.raises(StructuralError, match="idempotent"):
        core.DerivedProposition("yes", bad, "bad")


# ---------------------------------------------------------------------------
# Observables


def test_validate_observable_clean(qzx, bell, bistable):
    for model in (qzx, bell, bistable):
        for obs in model.observables.values():
            assert observable_report(obs) == []


def test_observable_from_proposition_validates(qzx):
    z0 = qzx.propositions["Z0"]
    obs = core.observable_from_proposition(z0)
    assert observable_report(obs) == []
    assert (obs.name, obs.spectrum, obs.family) == ("Z0", ("yes", "no"), {"yes": z0, "no": core.negate(z0)})
    assert core.observable_from_proposition(z0, "A").name == "A"


def test_mutual_exclusion_violation(qzx):
    z0 = qzx.propositions["Z0"]
    obs = core.Observable("BAD", ("0", "1"), {"0": z0, "1": z0})
    report = observable_report(obs)
    assert any(v.law == "mutual-exclusion" for v in report)
    v = next(v for v in report if v.law == "mutual-exclusion")
    assert v.subjects[0] == "BAD"
    assert v.witness[0] in qzx.space.states


def test_completeness_violation():
    space = core.StateSpace(("a", "b"))
    only_a = core.Proposition(
        "OA",
        core.PropMap.from_names(space, {"a": "a", "b": ZERO}),
        core.PropMap.from_names(space, {"a": ZERO, "b": "b"}),
    )
    never = core.Proposition("NV", core.constant_zero_map(space), core.identity_map(space))
    obs = core.Observable("A", ("hit", "miss"), {"hit": only_a, "miss": never})
    report = observable_report(obs)
    assert [(v.law, v.witness) for v in report] == [("completeness", ("b",))]


def test_eigenstates_of_observable(qzx, bell):
    assert core.eigenstates_of_observable(qzx.observables["Z"]) == [("z0", "0"), ("z1", "1")]
    assert core.eigenstates_of_observable(qzx.observables["X"]) == [("zm", "-"), ("zp", "+")]
    assert core.eigenstates_of_observable(bell.observables["BELL"]) == [("phiM", "phi-"), ("phiP", "phi+")]


def test_classify_qzx_pairs(qzx):
    z, x = qzx.observables["Z"], qzx.observables["X"]
    cls_, ev = core.classify_pair(z, x)
    assert cls_ is PairClass.STRONGLY_COMPLEMENTARY
    assert ev.common == ()
    assert ev.witness is not None
    cls_, ev = core.classify_pair(z, z)
    assert cls_ is PairClass.COMPATIBLE
    assert ev.witness is None
    assert core.common_eigenstates(z, x) == []


def test_classify_bell_pairs(bell):
    za, zb, bell_obs = bell.observables["ZA"], bell.observables["ZB"], bell.observables["BELL"]
    cls_, ev = core.classify_pair(za, zb)
    assert cls_ is PairClass.COMPATIBLE
    assert list(ev.common) == [("s00", "0", "0"), ("s11", "1", "1")]
    for local in (za, zb):
        cls_, ev = core.classify_pair(bell_obs, local)
        assert cls_ is PairClass.STRONGLY_COMPLEMENTARY
        assert ev.common == ()


def test_complementary_with_common_eigenstate():
    # Two observables sharing the eigenstate "e" but disagreeing on the
    # contingent state "c": complementary, not strongly complementary.
    space = core.StateSpace(("e", "f", "c"))
    pa = core.Proposition(
        "PA",
        core.PropMap.from_names(space, {"e": "e", "f": ZERO, "c": "e"}),
        core.PropMap.from_names(space, {"e": ZERO, "f": "f", "c": "f"}),
    )
    pb = core.Proposition(
        "PB",
        core.PropMap.from_names(space, {"e": "e", "f": ZERO, "c": ZERO}),
        core.PropMap.from_names(space, {"e": ZERO, "f": "f", "c": "f"}),
    )
    a = core.observable_from_proposition(pa, "A")
    b = core.observable_from_proposition(pb, "B")
    assert observable_report(a) == []
    assert observable_report(b) == []
    cls_, ev = core.classify_pair(a, b)
    assert cls_ is PairClass.COMPLEMENTARY
    assert ("e", "yes", "yes") in ev.common
    assert ev.witness is not None


def test_zero_slot_is_nobodys_eigenstate():
    # The yes-branches of P and Q fix "e", and every branch sends "f" to the
    # zero state, so A and B commute but no measurement from "f" reaches a
    # proper state.
    # Were the zero slot listed as an eigenstate of every value, "f" would
    # reach a joint eigenstate through it and the law would go quiet.
    space = core.StateSpace(("f", "e"))
    maps = {"yes": {"f": ZERO, "e": "e"}, "no": {"f": ZERO, "e": ZERO}}
    pp, pq = (core.Proposition(n, *(core.PropMap.from_names(space, maps[s]) for s in ("yes", "no"))) for n in "PQ")
    a = core.observable_from_proposition(pp, "A")
    b = core.observable_from_proposition(pq, "B")
    assert a.eigenvalues == ((), ("yes",), ())
    assert space.by_name == (1, 0)
    cls_, ev = core.classify_pair(a, b)
    assert cls_ is PairClass.COMPATIBLE
    assert ev.common == (("e", "yes", "yes"),)
    report = core.compatible_reaches_joint_eigenstate(a, b)
    assert [(v.law, v.witness) for v in report] == [("compat-implies-joint-eigenstate", ("f",))]
    model = core.Model.build(space, [*a.family.values(), *b.family.values()], (a, b))
    assert ("compat-implies-joint-eigenstate", ("A", "B"), ("f",)) in {
        (v.law, v.subjects, v.witness) for v in checker.check_laws(model)
    }
    # The derived tables are neither compared nor shown.
    again = core.observable_from_proposition(pp, "A")
    assert again == a
    assert repr(a) == f"Observable(name='A', spectrum=('yes', 'no'), family={a.family!r})"
    assert repr(space) == "StateSpace(states=('f', 'e'))"


@pytest.mark.parametrize("n", [3, 255, 256])
@pytest.mark.parametrize("shared", [False, True], ids=["no-common", "common-at-last"])
def test_one_shared_eigenstate_splits_the_complementary_classes(n, shared):
    # P's yes-branch sends every state to s0 and Q's to s1, so the two
    # never commute.  With `shared`, both no-branches fix the last state
    # and nothing else, so that state, just before the zero slot, is the
    # pair's one common eigenstate; otherwise they fix nothing.
    space = core.StateSpace(tuple(f"s{i}" for i in range(n)))
    last = n - 1
    no = [n] * (n + 1)
    if shared:
        no[last] = last
    pp = core.Proposition("P", core.PropMap(space, [0] * n + [n]), core.PropMap(space, no))
    pq = core.Proposition("Q", core.PropMap(space, [1] * n + [n]), core.PropMap(space, no))
    a, b = core.observable_from_proposition(pp, "A"), core.observable_from_proposition(pq, "B")
    witness = core.CommutationWitness("P", "Q", "yes", "yes", "s0", "s0", "s1")
    cls_ = PairClass.COMPLEMENTARY if shared else PairClass.STRONGLY_COMPLEMENTARY
    common = ((f"s{last}", "no", "no"),) if shared else ()
    assert core.pair_class(a, b) == (cls_, witness)
    assert core.classify_pair(a, b) == (cls_, core.PairEvidence(witness, common))


def test_bistable_is_strongly_complementary(bistable):
    cls_, ev = core.classify_pair(bistable.observables["PERCEPT"], bistable.observables["ATTENTION"])
    assert cls_ is PairClass.STRONGLY_COMPLEMENTARY
    assert ev.common == ()


# ---------------------------------------------------------------------------
# Measurement sequences


def test_measure_sequence_bell(bell):
    assert core.measure_sequence(bell, "phiP", [("ZA", "0"), ("BELL", "phi+")]) == "phiP"
    assert core.measure_sequence(bell, "phiP", [("BELL", "phi+"), ("ZA", "0")]) == "s00"
    assert core.measure_sequence(bell, "phiP", []) == "phiP"
    assert core.measure_sequence(bell, "phiP", [("ZA", "0"), ("ZA", "1")]) is ZERO
    # zero absorbs everything afterwards
    assert core.measure_sequence(bell, "phiP", [("ZA", "0"), ("ZA", "1"), ("BELL", "phi+")]) is ZERO


def test_measure_sequence_errors(bell):
    with pytest.raises(StructuralError):
        core.measure_sequence(bell, "nope", [("ZA", "0")])
    with pytest.raises(StructuralError):
        core.measure_sequence(bell, "phiP", [("NOPE", "0")])
    with pytest.raises(StructuralError):
        core.measure_sequence(bell, "phiP", [("ZA", "7")])


def test_order_independence_for_compatible_pair(bell):
    za, zb = bell.observables["ZA"], bell.observables["ZB"]
    for z in bell.space.states:
        for va in za.spectrum:
            for vb in zb.spectrum:
                left = core.measure_sequence(bell, z, [("ZA", va), ("ZB", vb)])
                right = core.measure_sequence(bell, z, [("ZB", vb), ("ZA", va)])
                assert left == right


# ---------------------------------------------------------------------------
# Entanglement


def test_bell_entangled_states(bell):
    assert core.check_entanglement_preconditions(bell, "BELL", ["ZA", "ZB"]) == []
    assert core.entangled_states(bell, "BELL", ["ZA", "ZB"]) == ["phiM", "phiP"]


def test_entangled_states_subset_property(bell):
    states = core.entangled_states(bell, "BELL", ["ZA", "ZB"])
    global_eigen = {z for z, _ in core.eigenstates_of_observable(bell.observables["BELL"])}
    assert set(states) <= global_eigen
    for name in ("ZA", "ZB"):
        local_eigen = {z for z, _ in core.eigenstates_of_observable(bell.observables[name])}
        assert not (set(states) & local_eigen)


def test_entanglement_structural_errors(bell, qzx):
    with pytest.raises(StructuralError, match="no partition"):
        core.check_entanglement_preconditions(qzx, "Z", ["X"])
    with pytest.raises(StructuralError, match="unknown observable"):
        core.check_entanglement_preconditions(bell, "NOPE", ["ZA"])
    with pytest.raises(StructuralError, match="not tagged local"):
        core.check_entanglement_preconditions(bell, "BELL", ["ZA", "BELL"])
    with pytest.raises(StructuralError, match="not tagged global"):
        core.check_entanglement_preconditions(bell, "ZA", ["ZB"])


def test_entanglement_precondition_violations(bell):
    # tag BELL local on subsystem A as well: global vs local BELL is
    # self-compatible, which the report must call out
    part = core.Partition(("A", "B"), {"ZA": "A", "ZB": "B", "BELL": "A"}, ("BELL",))
    model = core.Model(bell.space, bell.propositions, bell.observables, part)
    report = core.check_entanglement_preconditions(model, "BELL", ["BELL", "ZB"])
    laws = {v.law for v in report}
    assert "entangle-global-complementary" in laws
    with pytest.raises(EntanglementPreconditionError) as exc:
        core.entangled_states(model, "BELL", ["BELL", "ZB"])
    assert exc.value.report


def test_locals_must_commute_across_subsystems(bell):
    # pretend the Bell-basis observable is a local of subsystem B and ask
    # for entanglement relative to it: ZA vs BELL do not commute
    part = core.Partition(("A", "B"), {"ZA": "A", "BELL": "B"}, ("BELL",))
    model = core.Model(bell.space, bell.propositions, bell.observables, part)
    report = core.check_entanglement_preconditions(model, "BELL", ["ZA", "BELL"])
    laws = {v.law for v in report}
    assert "entangle-locals-compatible" in laws


# ---------------------------------------------------------------------------
# Whole-model validation and plumbing


def test_validate_model_clean(qzx, bell, bistable):
    for model in (qzx, bell, bistable):
        assert core.validate_model(model) == []


def test_validate_model_flags_broken_builtin(qzx):
    broken = dict(qzx.propositions)
    broken["ONE"] = core.Proposition("ONE", core.constant_zero_map(qzx.space), core.constant_zero_map(qzx.space))
    model = core.Model(qzx.space, broken, qzx.observables)
    report = core.validate_model(model)
    assert any(v.law == "builtin-structure" and v.subjects == ("ONE",) for v in report)
    del broken["ONE"]
    report = core.validate_model(core.Model(qzx.space, broken, qzx.observables))
    assert report == [core.Violation("builtin-structure", ("ONE",), (), "builtin proposition ONE is missing")]


def test_validate_model_flags_partition_problems(bell):
    part = core.Partition(("A",), {"ZA": "A", "GHOST": "A"}, ("BELL", "PHANTOM"))
    model = core.Model(bell.space, bell.propositions, bell.observables, part)
    report = core.validate_model(model)
    laws = [v.law for v in report]
    assert laws.count("partition-reference") >= 2
    part = core.Partition(("A", "B"), {"ZA": "A", "BELL": "B"}, ("BELL",))
    model = core.Model(bell.space, bell.propositions, bell.observables, part)
    assert any(v.law == "partition-overlap" for v in core.validate_model(model))


@pytest.mark.parametrize(
    "local_tags, global_tags, message",
    [
        ({"Z": 7}, (), "local tags must map observable names to subsystem names"),
        ({7: "A"}, (), "local tags must map observable names to subsystem names"),
        ({}, ("Z", 3), "global tags must be observable names"),
    ],
    ids=["local-subsystem", "local-observable", "global"],
)
def test_partition_refuses_a_tag_that_is_not_a_string(local_tags, global_tags, message):
    # Unrefused, `serialize_model` would raise a TypeError on the model.
    with pytest.raises(StructuralError) as exc:
        core.Partition(("A", "B"), local_tags, global_tags)
    assert str(exc.value) == message
    # An empty global tag stays a partition-reference report, not a refusal.
    assert core.Partition(("A",), {}, ("",)).global_tags == ("",)


def test_rename_states_roundtrip(qzx):
    fwd = {"z0": "a", "zp": "b", "zm": "c", "z1": "d"}
    renamed = core.rename_states(qzx, fwd)
    assert renamed.space.states == ("a", "b", "c", "d")
    assert core.validate_model(renamed) == []
    assert renamed.propositions["Z0"].yes("b") == "a"
    back = core.rename_states(renamed, {v: k for k, v in fwd.items()})
    assert back == qzx
    with pytest.raises(StructuralError):
        core.rename_states(qzx, {"z0": "a"})
    with pytest.raises(StructuralError):
        core.rename_states(qzx, {"z0": "a", "zp": "a", "zm": "c", "z1": "d"})


def _dangling_model_makers(qzx):
    """Every way to make the model whose observable Z names a member, Z0,
    that is not one of its propositions."""
    props = {name: p for name, p in qzx.propositions.items() if name != "Z0"}
    args = (qzx.space, props, qzx.observables)
    return [
        lambda: core.Model(*args),
        lambda: pickle.loads(pickle.dumps(_unchecked_model(*args))),
        lambda: core.Model.build(qzx.space, props.values(), qzx.observables.values()),
    ]


def test_rebuild_over_a_dangling_observable_member_is_structural(qzx):
    # The rebuilds never meet the dangling model: every way to make it
    # raises.  Their own output goes through the constructor, and each
    # member of a rebuilt observable is the rebuilt model's proposition.
    identity = {z: z for z in qzx.space.states}
    for rebuild in (lambda m: core.rename_states(m, identity), lambda m: core.reachable_submodel(m, ["z0"])):
        for make in _dangling_model_makers(qzx):
            with pytest.raises(StructuralError) as info:
                rebuild(make())
            assert str(info.value) == DANGLING_MESSAGE
        rebuilt = rebuild(qzx)
        for o in rebuilt.observables.values():
            assert all(rebuilt.propositions[m.name] is m for m in o.family.values())


@pytest.mark.parametrize("report", [core.validate_model, checker.check_laws], ids=["validate_model", "check_laws"])
def test_reports_over_a_dangling_observable_member_are_structural(qzx, report):
    # No report can name the laws of a branch that is not there: the model
    # is refused wherever it could be made, so the report raises as the
    # rebuilds do, and over the whole model it finds nothing.
    for make in _dangling_model_makers(qzx):
        with pytest.raises(StructuralError) as info:
            report(make())
        assert str(info.value) == DANGLING_MESSAGE
    assert report(qzx) == []


def test_reachable_submodel(bell):
    sub = core.reachable_submodel(bell, ["s00"])
    # from s00: PhiP.yes -> phiP, PhiP.no -> phiM, ZA0.no -> ZERO...
    # phiP and phiM then reach s11, so everything is reachable here
    assert set(sub.space.states) == set(bell.space.states)
    # a state with no outgoing discovery: the uniform never-proposition
    space = core.StateSpace(("a", "b"))
    p = core.Proposition(
        "P",
        core.PropMap.from_names(space, {"a": "a", "b": ZERO}),
        core.PropMap.from_names(space, {"a": ZERO, "b": "b"}),
    )
    model = core.Model.build(space, [p])
    sub = core.reachable_submodel(model, ["a"])
    assert sub.space.states == ("a",)
    assert core.validate_model(sub) == []
    with pytest.raises(StructuralError):
        core.reachable_submodel(model, ["zz"])
    with pytest.raises(StructuralError):
        core.reachable_submodel(model, [])


def test_model_lookup_errors(qzx):
    with pytest.raises(StructuralError):
        qzx.observable("NOPE")
    with pytest.raises(StructuralError):
        qzx.observables["Z"].branch("7")
