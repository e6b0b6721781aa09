"""Release gate: six timed criteria, one PASS/FAIL line each.

Run `pytest -s tests/test_acceptance.py` to see the lines as they print.
Oracles here are written against raw numpy, independent of the library's
own orbit code, so agreement is evidence rather than circularity.
"""

import random
import time

import numpy as np

from gqt import checker, cli, core, modelio, quantum

from conftest import FIXTURES, make_qzx, mutate_entry, violation_holds
from test_quantum import one_projector_orbit, reference_action, state_matrix

QZX = FIXTURES / "qzx.json"
BELL = FIXTURES / "bell.json"
BISTABLE = FIXTURES / "bistable.json"
QZX_Q = FIXTURES / "qzx_quantum.json"
BELL_Q = FIXTURES / "bell_quantum.json"


def _finish(num, name, started, budget, failures):
    elapsed = time.perf_counter() - started
    if budget is not None and elapsed >= budget:
        failures.append(f"runtime {elapsed:.2f}s exceeds {budget:.0f}s budget")
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {verdict} ({elapsed:.2f}s)")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


# ---------------------------------------------------------------------------
# 1. Axiom suite


def _qzx_mutations():
    """Single-entry edits that each provably break one law.

    Redirecting side(z) to a state w that the side does not fix breaks
    idempotence at z; making z a fixed point of one side while the other
    side is still possible there breaks annihilation at z.  Arbitrary
    single-entry edits can land on a different valid model, so the pool
    is restricted to these shapes.
    """
    model = make_qzx()
    pool = []
    for name in sorted(model.propositions):
        if name in core.RESERVED_PROPOSITION_NAMES:
            continue
        p = model.propositions[name]
        for side in ("yes", "no"):
            m = p.side(side)
            for z in model.space.states:
                for w in model.space.states:
                    if w == z or m(z) == w or m(w) == w:
                        continue
                    pool.append((name, side, z, w, f"idempotence-{side}"))
        for z in model.space.states:
            if p.yes(z) != z and p.no(z) is not core.ZERO:
                pool.append((name, "yes", z, z, "annihilation"))
            if p.no(z) != z and p.yes(z) is not core.ZERO:
                pool.append((name, "no", z, z, "annihilation"))
    return model, pool


def test_criterion_1_axiom_suite(capsys):
    started = time.perf_counter()
    failures = []
    for path in (QZX, BELL, BISTABLE):
        for command in ("validate", "check"):
            code = cli.main([command, str(path)])
            out = capsys.readouterr().out
            if code != 0 or out != "0 violations\n":
                failures.append(f"{command} {path.name}: exit {code}, output {out!r}")
    model, pool = _qzx_mutations()
    assert len(pool) >= 50
    for name, side, z, w, law in random.Random(411).sample(pool, 50):
        mutant = mutate_entry(model, name, side, z, w)
        violations = core.validate_model(mutant)
        if not violations:
            failures.append(f"mutation {name}.{side}({z})->{w} reported no violation")
            continue
        if not any(v.law == law and v.witness == (z,) and name in v.subjects for v in violations):
            failures.append(f"mutation {name}.{side}({z})->{w}: no {law} witness at {z}")
        for v in violations:
            if not violation_holds(mutant, v):
                failures.append(f"mutation {name}.{side}({z})->{w}: [{v.law}] does not replay")
    _finish(1, "axiom suite", started, 1.0, failures)


# ---------------------------------------------------------------------------
# 2. Qubit oracle


def _closure_oracle(seed, projector_matrices, tol=1e-9):
    # Plain breadth-first saturation, written without the library.
    dim = seed.shape[0]
    actions = []
    for p in projector_matrices:
        actions.append(np.asarray(p, dtype=complex))
        actions.append(np.eye(dim) - p)
    states = [seed / np.trace(seed).real]
    i = 0
    while i < len(states):
        for a in actions:
            img = a @ states[i] @ a
            tr = np.trace(img).real
            if tr <= tol:
                continue
            img = img / tr
            if all(np.abs(img - known).max() > tol for known in states):
                states.append(img)
        i += 1
    return states


def _match_counts(matrices, references, tol=1e-9):
    return [sum(1 for r in references if np.abs(m - r).max() <= tol) for m in matrices]


def test_criterion_2_qubit_oracle(tmp_path, capsys):
    started = time.perf_counter()
    failures = []
    ket0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    oracle = _closure_oracle(ket0, [ket0, plus])
    if len(oracle) != 4:
        failures.append(f"matrix oracle found {len(oracle)} states, expected 4")

    out_path = tmp_path / "qzx_built.json"
    code = cli.main(["quantum", "build", str(QZX_Q), "-o", str(out_path)])
    capsys.readouterr()
    if code != 0:
        failures.append(f"quantum build exited {code}")
    built = modelio.parse_model(out_path.read_text(encoding="utf-8"))
    if len(built.space) != 4:
        failures.append(f"built model has {len(built.space)} states, expected 4")

    orbit = quantum.document_orbit(modelio.parse_quantum(QZX_Q.read_text(encoding="utf-8")))
    if _match_counts(orbit.matrices, oracle) != [1, 1, 1, 1]:
        failures.append("orbit states do not biject with the oracle states")

    cls_, ev = core.classify_pair(built.observable("Z"), built.observable("X"))
    if cls_ is not core.PairClass.STRONGLY_COMPLEMENTARY:
        failures.append(f"Z vs X classified {cls_.value}")
    if ev.common != ():
        failures.append(f"Z vs X common eigenstates {ev.common!r}, expected none")
    code = cli.main(["report", str(out_path)])
    out = capsys.readouterr().out
    if code != 0 or "X vs Z: strongly-complementary" not in out:
        failures.append("report does not show X vs Z as strongly-complementary")
    _finish(2, "qubit oracle", started, 1.0, failures)


# ---------------------------------------------------------------------------
# 3. Bell oracle


def test_criterion_3_bell_oracle(tmp_path, capsys):
    started = time.perf_counter()
    failures = []
    phi_plus = np.zeros((4, 4), dtype=complex)
    phi_plus[0, 0] = phi_plus[0, 3] = phi_plus[3, 0] = phi_plus[3, 3] = 0.5
    phi_minus = phi_plus.copy()
    phi_minus[0, 3] = phi_minus[3, 0] = -0.5
    s00 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    s11 = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)
    references = [phi_plus, phi_minus, s00, s11]

    doc = modelio.parse_quantum(BELL_Q.read_text(encoding="utf-8"))
    oracle = _closure_oracle(phi_plus, [m for _, m in doc.propositions])
    if len(oracle) != 4:
        failures.append(f"matrix oracle found {len(oracle)} states, expected 4")
    if _match_counts(oracle, references) != [1, 1, 1, 1]:
        failures.append("oracle closure is not {phi+, phi-, |00>, |11>}")

    out_path = tmp_path / "bell_built.json"
    code = cli.main(["quantum", "build", str(BELL_Q), "-o", str(out_path)])
    capsys.readouterr()
    built = modelio.parse_model(out_path.read_text(encoding="utf-8"))
    if code != 0 or len(built.space) != 4:
        failures.append(f"quantum build: exit {code}, {len(built.space)} states")

    for local in ("ZA", "ZB"):
        cls_, _ = core.classify_pair(built.observable("BELL"), built.observable(local))
        if cls_ is core.PairClass.COMPATIBLE:
            failures.append(f"BELL vs {local} classified compatible")
    cls_, _ = core.classify_pair(built.observable("ZA"), built.observable("ZB"))
    if cls_ is not core.PairClass.COMPATIBLE:
        failures.append(f"ZA vs ZB classified {cls_.value}")

    code = cli.main(["entangle", str(out_path), "--global", "BELL", "--locals", "ZA,ZB"])
    out = capsys.readouterr().out
    if code != 0 or not out.startswith("preconditions: ok\n"):
        failures.append(f"entangle on built model: exit {code}, output {out!r}")
    names = out.splitlines()[1].split(": ")[1].split()
    orbit = quantum.document_orbit(doc)
    by_name = dict(zip(built.space.states, orbit.matrices))
    bell_states = [by_name[n] for n in names]
    if len(names) != 2 or _match_counts(bell_states, [phi_plus, phi_minus]) != [1, 1]:
        failures.append(f"entangled states {names} are not the two Bell states")

    code = cli.main(["entangle", str(BELL), "--global", "BELL", "--locals", "ZA,ZB"])
    out = capsys.readouterr().out
    if code != 0 or out != "preconditions: ok\nentangled states: phiM phiP\n":
        failures.append(f"entangle on shipped fixture: exit {code}, output {out!r}")
    _finish(3, "bell oracle", started, 2.0, failures)


# ---------------------------------------------------------------------------
# 4. Theorem fuzz


def test_criterion_4_theorem_fuzz(capsys):
    started = time.perf_counter()
    failures = []
    theorem_laws = (
        "strongcomp-implies-comp",
        "compat-implies-joint-eigenstate",
        "1ANDP=P",
        "P·negP=0",
        "compat-order-independence",
    )
    for law in theorem_laws:
        if law not in checker.LAW_IDS:
            failures.append(f"law {law!r} is not checked")
    code = cli.main(
        ["fuzz", "--states", "8", "--props", "5", "--obs", "3", "--seed", "7", "--count", "1000"]
    )
    out = capsys.readouterr().out
    if code != 0:
        failures.append(f"fuzz exited {code}")
    if "models checked: 1000" not in out:
        failures.append(f"unexpected fuzz output {out!r}")
    if "violations found: 0" not in out:
        failures.append(f"fuzz found violations: {out!r}")
    _finish(4, "theorem fuzz", started, 60.0, failures)


# ---------------------------------------------------------------------------
# 5. Quantum-law sampling


def test_criterion_5_quantum_law_sampling():
    started = time.perf_counter()
    failures = []
    tol = 1e-9
    rng = np.random.default_rng(1905)
    for trial in range(100):
        d = int(rng.integers(2, 5))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = quantum.DensityState(a @ a.conj().T)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        k = int(rng.integers(0, d + 1))
        p = quantum.Projector(q[:, :k] @ q[:, :k].conj().T)
        actions = {"yes": p.matrix, "no": p.complement().matrix}

        # Each law is asked of the closure of the trial's one-projector
        # system, whose proposition P acts on the seed s0.
        orbit, prop = one_projector_orbit(rho, p, tol)
        sides = {"yes": prop.yes, "no": prop.no}
        branches = {outcome: side("s0") for outcome, side in sides.items()}
        if all(branch is core.ZERO for branch in branches.values()):
            failures.append(f"trial {trial}: both branches vanished")
            continue
        for outcome, branch in branches.items():
            # Cross-check: the branch is the test-side action's image, and
            # vanishes with it.
            image = reference_action(rho.normalized(), actions[outcome], tol)
            if (branch is core.ZERO) != (image is None):
                failures.append(f"trial {trial}: {outcome} branch vanishes unlike the action's image")
            elif image is not None and not np.abs(state_matrix(orbit, branch) - image).max() <= tol:
                failures.append(f"trial {trial}: {outcome} branch differs from the action's image")
            if branch is core.ZERO:
                continue
            if sides[outcome](branch) != branch:
                failures.append(f"trial {trial}: {outcome} branch not idempotent")
            other = "no" if outcome == "yes" else "yes"
            if sides[other](branch) is not core.ZERO:
                failures.append(f"trial {trial}: {outcome} branch survives the {other} action")

        rescaled, rescaled_prop = one_projector_orbit(quantum.DensityState(rho.matrix * 3.5), p, tol)
        yes, again = branches["yes"], rescaled_prop.yes("s0")
        if (yes is core.ZERO) != (again is core.ZERO):
            failures.append(f"trial {trial}: scaling changed whether the yes branch vanishes")
        elif yes is not core.ZERO and not np.abs(state_matrix(orbit, yes) - state_matrix(rescaled, again)).max() <= tol:
            failures.append(f"trial {trial}: scaling changed the yes branch")
    _finish(5, "quantum law sampling", started, 5.0, failures)


# ---------------------------------------------------------------------------
# 6. Serialization and exit codes


def test_criterion_6_serialization_and_exit_codes(tmp_path, capsys):
    started = time.perf_counter()
    failures = []
    for path in (QZX, BELL, BISTABLE):
        text = path.read_text(encoding="utf-8")
        if modelio.serialize_model(modelio.parse_model(text)) != text:
            failures.append(f"{path.name}: round trip is not byte-identical")

    broken_path = tmp_path / "broken.json"
    broken_path.write_text(
        modelio.serialize_model(mutate_entry(make_qzx(), "Z0", "yes", "zp", "zp")), encoding="utf-8"
    )
    malformed_path = tmp_path / "malformed.json"
    malformed_path.write_text("{ not json", encoding="utf-8")

    matrix = [
        (["validate", str(QZX)], 0),
        (["check", str(BELL)], 0),
        (["report", str(BISTABLE)], 0),
        (["eigen", str(QZX), "--observable", "Z"], 0),
        (["measure", str(BELL), "--state", "phiP", "--steps", "ZA=0"], 0),
        (["entangle", str(BELL), "--global", "BELL", "--locals", "ZA,ZB"], 0),
        (["quantum", "build", str(QZX_Q), "-o", str(tmp_path / "ok.json")], 0),
        (["validate", str(broken_path)], 1),
        (["check", str(broken_path)], 1),
        (["quantum", "build", str(QZX_Q), "--cap", "3", "-o", str(tmp_path / "capped.json")], 1),
        (["validate", str(malformed_path)], 2),
        (["validate", str(tmp_path / "missing.json")], 2),
        (["measure", str(BELL), "--state", "nope", "--steps", "ZA=0"], 2),
        (["eigen", str(QZX), "--observable", "W"], 2),
        ([], 2),
        (["frobnicate"], 2),
    ]
    for argv, want in matrix:
        code = cli.main(argv)
        streams = capsys.readouterr()
        if code != want:
            failures.append(f"{argv}: exit {code}, wanted {want}")
        if want == 2 and (streams.out != "" or streams.err == ""):
            failures.append(f"{argv}: exit-2 stream contract broken")
        if want in (0, 1) and streams.err != "":
            failures.append(f"{argv}: unexpected stderr {streams.err!r}")

    runs = []
    for _ in range(2):
        cli.main(["report", str(BELL)])
        runs.append(capsys.readouterr().out)
    if runs[0] != runs[1]:
        failures.append("report output is not deterministic")
    _finish(6, "serialization and exit codes", started, None, failures)
