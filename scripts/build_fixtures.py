"""Regenerate the shipped fixture models.

qzx.json and bell.json come from their quantum documents via orbit
closure; the auto-assigned state names (s0, s1, ...) are renamed to
physical ones by matching the discovered density matrices against
reference states.  bistable.json is a hand-built non-quantum example of
strongly complementary observables; see the tables below.

Run from the repository root:  python3 scripts/build_fixtures.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gqt import core, modelio, quantum

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def rename_by_matrix(orbit: quantum.Orbit, references: dict[str, np.ndarray], tol: float) -> dict[str, str]:
    mapping = {}
    for i, m in enumerate(orbit.matrices):
        state = quantum.DensityState(m, tol)
        hits = [name for name, ref in references.items()
                if quantum.states_equal(state, quantum.DensityState(ref, tol), tol)]
        if len(hits) != 1:
            raise SystemExit(f"state s{i} matched {hits!r}; expected exactly one reference")
        mapping[f"s{i}"] = hits[0]
    return mapping


def build_from_document(doc_path: Path, references: dict[str, np.ndarray]) -> core.Model:
    doc = modelio.parse_quantum(doc_path.read_text(encoding="utf-8"))
    orbit = quantum.document_orbit(doc)
    return core.rename_states(orbit.model, rename_by_matrix(orbit, references, orbit.tol))


def qzx_references() -> dict[str, np.ndarray]:
    ket0 = np.array([1, 0], dtype=complex)
    ket1 = np.array([0, 1], dtype=complex)
    plus = (ket0 + ket1) / np.sqrt(2)
    minus = (ket0 - ket1) / np.sqrt(2)
    return {
        "z0": np.outer(ket0, ket0.conj()),
        "z1": np.outer(ket1, ket1.conj()),
        "zp": np.outer(plus, plus.conj()),
        "zm": np.outer(minus, minus.conj()),
    }


def bell_references() -> dict[str, np.ndarray]:
    def ket(*amps):
        v = np.array(amps, dtype=complex)
        return np.outer(v, v.conj()) / (v.conj() @ v)

    return {
        "phiP": ket(1, 0, 0, 1),
        "phiM": ket(1, 0, 0, -1),
        "s00": ket(1, 0, 0, 0),
        "s11": ket(0, 0, 0, 1),
    }


def bistable_model() -> core.Model:
    """Two percepts plus an undecided state; attention is complementary to percept.

    SEE_A / SEE_B resolve the undecided state u into a percept; ATTEND
    collapses every state into u.  PERCEPT and ATTENTION share no
    eigenstate, so they are strongly complementary without any quantum
    backend behind them.
    """
    space = core.StateSpace(("pA", "pB", "u"))
    Z = core.ZERO

    def prop(name, yes, no):
        return core.Proposition(name, core.PropMap.from_names(space, yes), core.PropMap.from_names(space, no))

    see_a = prop("SEE_A", {"pA": "pA", "pB": Z, "u": "pA"}, {"pA": Z, "pB": "pB", "u": "pB"})
    see_b = prop("SEE_B", {"pA": Z, "pB": "pB", "u": "pB"}, {"pA": "pA", "pB": Z, "u": "pA"})
    attend = prop("ATTEND", {"pA": "u", "pB": "u", "u": "u"}, {"pA": Z, "pB": Z, "u": Z})
    unattend = prop("UNATTEND", {"pA": Z, "pB": Z, "u": Z}, {"pA": "u", "pB": "u", "u": "u"})
    percept = core.Observable("PERCEPT", ("A", "B"), {"A": see_a, "B": see_b})
    attention = core.Observable("ATTENTION", ("on", "off"), {"on": attend, "off": unattend})
    return core.Model.build(space, [see_a, see_b, attend, unattend], [percept, attention])


def main() -> None:
    qzx = build_from_document(FIXTURES / "qzx_quantum.json", qzx_references())
    (FIXTURES / "qzx.json").write_text(modelio.serialize_model(qzx), encoding="utf-8")

    bell = build_from_document(FIXTURES / "bell_quantum.json", bell_references())
    (FIXTURES / "bell.json").write_text(modelio.serialize_model(bell), encoding="utf-8")

    bistable = bistable_model()
    (FIXTURES / "bistable.json").write_text(modelio.serialize_model(bistable), encoding="utf-8")

    for name in ("qzx", "bell", "bistable"):
        model = modelio.parse_model((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
        violations = core.validate_model(model)
        status = "ok" if not violations else f"{len(violations)} violations"
        print(f"{name}.json: {len(model.space)} states, {status}")


if __name__ == "__main__":
    main()
