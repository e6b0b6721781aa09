"""Shared fixtures: frozen reference models and paths.

The reference tables below were derived by hand from projector algebra
(2x2 for the qubit model, 4x4 for the Bell model) and are frozen here on
purpose: the shipped fixture files and the orbit-closure backend must
both reproduce them, which keeps the two implementations honest about
each other.
"""

from pathlib import Path

import pytest

from gqt import checker, core
from gqt.core import ZERO
from gqt.errors import StructuralError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def build_model(state_names, prop_tables, observables, partition=None):
    """prop_tables: name -> (yes_table, no_table); observables: name -> (spectrum, {value: prop})."""
    space = core.StateSpace(tuple(state_names))
    props = {
        name: core.Proposition(name, core.PropMap.from_names(space, yes), core.PropMap.from_names(space, no))
        for name, (yes, no) in prop_tables.items()
    }
    obs = [
        core.Observable(name, tuple(spectrum), {v: props[family[v]] for v in spectrum})
        for name, (spectrum, family) in observables.items()
    ]
    return core.Model.build(space, props.values(), obs, partition)


# Qubit model: Z eigenstates z0/z1, X eigenstates zp/zm, declaration order
# matches orbit discovery order from z0.
QZX_STATES = ("z0", "zp", "zm", "z1")

QZX_Z0_YES = {"z0": "z0", "zp": "z0", "zm": "z0", "z1": ZERO}
QZX_Z0_NO = {"z0": ZERO, "zp": "z1", "zm": "z1", "z1": "z1"}
QZX_X0_YES = {"z0": "zp", "zp": "zp", "zm": ZERO, "z1": "zp"}
QZX_X0_NO = {"z0": "zm", "zp": ZERO, "zm": "zm", "z1": "zm"}

QZX_TABLES = {
    "Z0": (QZX_Z0_YES, QZX_Z0_NO),
    "Z1": (QZX_Z0_NO, QZX_Z0_YES),
    "X0": (QZX_X0_YES, QZX_X0_NO),
    "X1": (QZX_X0_NO, QZX_X0_YES),
}

QZX_OBSERVABLES = {
    "Z": (("0", "1"), {"0": "Z0", "1": "Z1"}),
    "X": (("+", "-"), {"+": "X0", "-": "X1"}),
}


def make_qzx():
    return build_model(QZX_STATES, QZX_TABLES, QZX_OBSERVABLES)


# Bell model on four states: both Bell phi-states plus the two product
# states reachable from them by local Z measurements.  The psi branches
# never fire on this orbit.
BELL_STATES = ("phiP", "s00", "s11", "phiM")

BELL_PHIP_YES = {"phiP": "phiP", "s00": "phiP", "s11": "phiP", "phiM": ZERO}
BELL_PHIP_NO = {"phiP": ZERO, "s00": "phiM", "s11": "phiM", "phiM": "phiM"}
BELL_ZA0_YES = {"phiP": "s00", "s00": "s00", "s11": ZERO, "phiM": "s00"}
BELL_ZA0_NO = {"phiP": "s11", "s00": ZERO, "s11": "s11", "phiM": "s11"}
BELL_NEVER = {z: ZERO for z in BELL_STATES}
BELL_ID = {z: z for z in BELL_STATES}

BELL_TABLES = {
    "PhiP": (BELL_PHIP_YES, BELL_PHIP_NO),
    "PhiM": (BELL_PHIP_NO, BELL_PHIP_YES),
    "PsiP": (BELL_NEVER, BELL_ID),
    "PsiM": (BELL_NEVER, BELL_ID),
    "ZA0": (BELL_ZA0_YES, BELL_ZA0_NO),
    "ZA1": (BELL_ZA0_NO, BELL_ZA0_YES),
    "ZB0": (BELL_ZA0_YES, BELL_ZA0_NO),
    "ZB1": (BELL_ZA0_NO, BELL_ZA0_YES),
}

BELL_OBSERVABLES = {
    "BELL": (("phi+", "phi-", "psi+", "psi-"), {"phi+": "PhiP", "phi-": "PhiM", "psi+": "PsiP", "psi-": "PsiM"}),
    "ZA": (("0", "1"), {"0": "ZA0", "1": "ZA1"}),
    "ZB": (("0", "1"), {"0": "ZB0", "1": "ZB1"}),
}

BELL_PARTITION = core.Partition(("A", "B"), {"ZA": "A", "ZB": "B"}, ("BELL",))


def make_bell():
    return build_model(BELL_STATES, BELL_TABLES, BELL_OBSERVABLES, BELL_PARTITION)


# Bistable-perception model: no quantum document behind it.
BISTABLE_STATES = ("pA", "pB", "u")

BISTABLE_TABLES = {
    "SEE_A": ({"pA": "pA", "pB": ZERO, "u": "pA"}, {"pA": ZERO, "pB": "pB", "u": "pB"}),
    "SEE_B": ({"pA": ZERO, "pB": "pB", "u": "pB"}, {"pA": "pA", "pB": ZERO, "u": "pA"}),
    "ATTEND": ({"pA": "u", "pB": "u", "u": "u"}, {"pA": ZERO, "pB": ZERO, "u": ZERO}),
    "UNATTEND": ({"pA": ZERO, "pB": ZERO, "u": ZERO}, {"pA": "u", "pB": "u", "u": "u"}),
}

BISTABLE_OBSERVABLES = {
    "PERCEPT": (("A", "B"), {"A": "SEE_A", "B": "SEE_B"}),
    "ATTENTION": (("on", "off"), {"on": "ATTEND", "off": "UNATTEND"}),
}


def make_bistable():
    return build_model(BISTABLE_STATES, BISTABLE_TABLES, BISTABLE_OBSERVABLES)


@pytest.fixture(scope="session")
def qzx():
    return make_qzx()


@pytest.fixture(scope="session")
def bell():
    return make_bell()


@pytest.fixture(scope="session")
def bistable():
    return make_bistable()


def mutate_entry(model, prop_name, side, state, target):
    """Copy of the model with one outcome-map entry redirected."""
    p = model.propositions[prop_name]
    m = p.side(side)
    table = {z: m(z) for z in model.space.states}
    table[state] = target
    new_map = core.PropMap.from_names(model.space, table)
    new_prop = core.Proposition(
        prop_name,
        new_map if side == "yes" else p.yes,
        new_map if side == "no" else p.no,
    )
    props = [new_prop if n == prop_name else q
             for n, q in model.propositions.items()
             if n not in core.RESERVED_PROPOSITION_NAMES]
    by_name = {q.name: q for q in props}
    by_name["ONE"] = core.make_one(model.space)
    by_name["ZERO"] = core.make_zero(model.space)
    observables = [
        core.Observable(o.name, o.spectrum, {v: by_name[o.family[v].name] for v in o.spectrum})
        for o in model.observables.values()
    ]
    return core.Model.build(model.space, props, observables, model.partition)


def eigenstates_of_proposition(p):
    """The eigenstates of `p`: those of the observable asking `p` itself."""
    return core.eigenstates_of_observable(core.observable_from_proposition(p))


def force_every_pair_compatible(monkeypatch):
    """Make every observable pair read as compatible, so that `check_laws`
    hands each one to the pair laws.  The one commutation scan,
    `core._first_noncommuting`, finds no failure anywhere, so `check_laws`
    and `core.pair_class` agree: every pair is compatible, with no witness."""
    monkeypatch.setattr(core, "_first_noncommuting", lambda ps, qs: None)


# Laws that only core.validate_model reports, under its own ids.
_VALIDATE_LAW_IDS = ("idempotence-yes", "idempotence-no", "annihilation")


def violation_holds(model, v):
    """Replay a reported violation against a model.

    Reruns the report that owns the law id (`checker.check_laws` for
    `LAW_IDS`, `core.validate_model` for its idempotence and annihilation
    ids) and returns True when that report still holds the violation's
    law, subjects and witness, so that counterexamples verify themselves.
    """
    if v.law in checker.LAW_IDS:
        report = checker.check_laws(model)
    elif v.law in _VALIDATE_LAW_IDS:
        report = core.validate_model(model)
    else:
        raise StructuralError(f"cannot replay unknown law {v.law!r}")
    key = (v.law, tuple(v.subjects), tuple(v.witness))
    return any((u.law, u.subjects, u.witness) == key for u in report)
