"""Density-matrix backend: actions, tolerances, orbit closure."""

import json
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from gqt import core, modelio, quantum
from gqt.core import ZERO
from gqt.errors import OrbitCapExceeded, StructuralError
from gqt.quantum import DensityState, Projector

from conftest import FIXTURES, make_bell, make_qzx

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = (KET0 + KET1) / np.sqrt(2)
MINUS = (KET0 - KET1) / np.sqrt(2)


def dm(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# Type validation


def test_density_state_validation():
    DensityState(dm(KET0))
    DensityState(np.eye(3) / 3)
    with pytest.raises(StructuralError, match="hermitian"):
        DensityState(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(StructuralError, match="negative eigenvalue"):
        DensityState(np.diag([1.0, -0.5]))
    with pytest.raises(StructuralError, match="trace"):
        DensityState(np.zeros((2, 2)))
    with pytest.raises(StructuralError, match="square"):
        DensityState(np.ones((2, 3)))
    with pytest.raises(StructuralError, match="non-finite"):
        DensityState(np.array([[np.nan, 0], [0, 1]]))


def test_projector_validation():
    Projector(dm(KET0))
    Projector(np.eye(4))
    Projector(np.zeros((2, 2)))
    with pytest.raises(StructuralError, match="idempotent"):
        Projector(np.diag([0.5, 0.5]))
    with pytest.raises(StructuralError, match="hermitian"):
        Projector(np.array([[1, 1e-3], [0, 0]], dtype=complex))
    p = Projector(dm(PLUS))
    c = p.complement()
    assert np.abs(c.matrix - dm(MINUS)).max() < 1e-12


def test_complement_keeps_the_projectors_tolerance():
    # An idempotence residue of about 1e-7: within 1e-5, beyond the 1e-9 default.
    p = Projector(np.diag([1 + 1e-7, 0]), tol=1e-5)
    with pytest.raises(StructuralError, match="idempotent"):
        Projector(np.eye(2) - p.matrix)
    c = p.complement()
    assert type(c) is Projector
    assert c.matrix.tobytes() == (np.eye(2) - p.matrix).tobytes()
    assert not c.matrix.flags.writeable
    assert c.complement().matrix.tobytes() == (np.eye(2) - c.matrix).tobytes()


def test_density_matrices_are_frozen():
    z = DensityState(dm(KET0))
    with pytest.raises(ValueError):
        z.matrix[0, 0] = 5.0


# ---------------------------------------------------------------------------
# Actions


def test_act_projector_oracle():
    p_z0 = Projector(dm(KET0))
    out = quantum.act_projector(DensityState(dm(PLUS)), p_z0)
    assert isinstance(out, DensityState)
    assert np.abs(out.matrix - dm(KET0)).max() < 1e-12
    assert quantum.act_projector(DensityState(dm(KET1)), p_z0) is ZERO
    # identity projector: state unchanged (normalized)
    out = quantum.act_projector(DensityState(2.0 * dm(MINUS)), Projector(np.eye(2)))
    assert np.abs(out.matrix - dm(MINUS)).max() < 1e-12


def test_quantum_proposition_laws_pointwise():
    p = Projector(dm(KET0))
    tol = quantum.DEFAULT_TOL
    for z in (DensityState(dm(PLUS)), DensityState(dm(KET0)), DensityState(np.eye(2) / 2)):
        yes = quantum.act_projector(z, p, tol)
        if yes is not ZERO:
            again = quantum.act_projector(yes, p, tol)
            assert again is not ZERO and quantum.states_equal(yes, again)
            assert quantum.act_projector(yes, p.complement(), tol) is ZERO
        no = quantum.act_projector(z, p.complement(), tol)
        if no is not ZERO:
            assert quantum.act_projector(no, p, tol) is ZERO
        assert yes is not ZERO or no is not ZERO


def test_act_projector_at_zero_tolerance_returns_the_image():
    # The image inherits the checks of z and p.  Checked again at tol=0 it
    # would fail on rounding, though close_orbit at tol=0 keeps it.
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        z = DensityState(a @ a.conj().T, tol=1e-9)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        p = Projector(q[:, :2] @ q[:, :2].conj().T, tol=1e-9)
        image = quantum.act_projector(z, p, 0.0)
        assert type(image) is DensityState and not image.matrix.flags.writeable
        m = p.matrix @ z.matrix @ p.matrix
        assert image.matrix.tobytes() == (m / m.trace().real).tobytes()


def test_states_equal_inclusive_boundary():
    # difference of exactly tol must still count as equal
    tol = 2.0**-30
    a = DensityState(np.diag([0.5 + tol, 0.5 - tol]), tol=1e-6)
    b = DensityState(np.diag([0.5, 0.5]))
    assert quantum.states_equal(a, b, tol=tol)
    assert not quantum.states_equal(a, b, tol=tol / 2)
    assert not quantum.states_equal(DensityState(dm(KET0)), DensityState(dm(KET1)))
    assert quantum.states_equal(DensityState(dm(PLUS)), DensityState(3.7 * dm(PLUS)))
    with pytest.raises(StructuralError):
        quantum.states_equal(DensityState(dm(KET0)), DensityState(np.eye(3) / 3))


# ---------------------------------------------------------------------------
# Projector families


def family_document(name, members):
    """A qubit document whose one observable `name` has `members`, label to
    matrix, in spectrum order; member `v` is proposition `Pv`."""
    return modelio.QuantumDocument(
        dimension=2,
        seeds=(("z0", dm(KET0)),),
        propositions=tuple((f"P{label}", m) for label, m in members.items()),
        observables=(modelio.ObservableSpec(name, tuple(members), {label: f"P{label}" for label in members}),),
    )


def test_constructors_leave_the_callers_arrays_writeable():
    rho, proj, member = dm(PLUS), dm(KET0), dm(KET1)
    DensityState(rho)
    Projector(proj)
    quantum.family_violations(family_document("Z", {"0": proj, "1": member}))
    assert rho.flags.writeable and proj.flags.writeable and member.flags.writeable


def test_document_model_leaves_document_arrays_writeable():
    doc = modelio.parse_quantum((FIXTURES / "qzx_quantum.json").read_text(encoding="utf-8"))
    quantum.document_model(doc)
    assert all(m.flags.writeable for _, m in doc.propositions + doc.seeds)


def test_projector_family_validation():
    def report(name, members):
        return quantum.family_violations(family_document(name, members))

    assert report("Z", {"0": dm(KET0), "1": dm(KET1)}) == []

    laws = {v.law for v in report("D", {"a": dm(KET0), "b": dm(KET0)})}
    assert "orthogonality" in laws and "resolution-of-identity" in laws

    assert [v.law for v in report("S", {"a": dm(KET0)})] == ["resolution-of-identity"]

    idempotent = report("H", {"a": np.diag([0.5, 0.5]), "b": np.diag([0.5, 0.5])})
    assert any(v.law == "projector-idempotent" for v in idempotent)

    skew = report("K", {"a": np.array([[1, 1], [0, 0]], dtype=complex)})
    assert any(v.law == "projector-hermitian" for v in skew)

    # A parsed document is square by construction; one built by hand may not be.
    with pytest.raises(StructuralError, match="family member 'a' must be a square matrix"):
        report("R", {"a": np.ones((2, 3))})


def test_projector_family_rejects_non_finite_member():
    # JSON reads 1e400 as inf, which the parser refuses with its field path
    # before any family report.
    doc = json.loads((FIXTURES / "qzx_quantum.json").read_text(encoding="utf-8"))
    doc["propositions"]["Z0"][0][0] = [1e400, 0]
    with pytest.raises(StructuralError, match=r"^propositions\.Z0\[0\]\[0\]: complex entries must be finite$"):
        modelio.parse_quantum(json.dumps(doc))


def test_projector_family_report_is_exact():
    # Members in spectrum order; every residue is printed to nine places.
    skew = np.array([[1, 0.5], [0, 0]], dtype=complex)
    report = quantum.family_violations(family_document("F", {"x": skew, "y": np.eye(2) / 2}))
    assert [(v.law, v.subjects, v.witness, v.detail) for v in report] == [
        ("projector-hermitian", ("F", "x"), (), "max |M - M†| = 0.500000000"),
        ("projector-idempotent", ("F", "y"), (), "max |MM - M| = 0.250000000"),
        ("orthogonality", ("F", "x", "y"), (), "max |M1 M2| = 0.500000000"),
        ("resolution-of-identity", ("F",), (), "max |sum - I| = 0.500000000"),
    ]


def test_projector_family_reports_a_nan_residue():
    # Hermitian, but MM overflows to inf and MM - M to nan, which fails the
    # check as any residue beyond the tolerance does, without a warning
    # (pytest makes a RuntimeWarning an error).
    huge = np.array([[1e300, 1e300 + 1e300j], [1e300 - 1e300j, 1e300]])
    report = quantum.family_violations(family_document("F", {"p": huge}))
    with pytest.raises(StructuralError, match="^projector is not idempotent within tolerance$"):
        Projector(huge)
    assert [v.law for v in report] == ["projector-idempotent", "resolution-of-identity"]
    assert (report[0].subjects, report[0].detail) == (("F", "p"), "max |MM - M| = nan")


# ---------------------------------------------------------------------------
# Orbit closure


def qzx_projectors():
    return [
        ("Z0", Projector(dm(KET0))),
        ("Z1", Projector(dm(KET1))),
        ("X0", Projector(dm(PLUS))),
        ("X1", Projector(dm(MINUS))),
    ]


def test_qzx_orbit_matches_frozen_model():
    orbit = quantum.close_orbit([DensityState(dm(KET0))], qzx_projectors())
    assert len(orbit.model.space) == 4
    # discovery order: z0, then the X images, then z1
    refs = [dm(KET0), dm(PLUS), dm(MINUS), dm(KET1)]
    for got, want in zip(orbit.matrices, refs):
        assert np.abs(got - want).max() < 1e-9
    assert not any(m.flags.writeable for m in orbit.matrices)
    with pytest.raises(ValueError):
        orbit.matrices[0].flags.writeable = True
    renamed = core.rename_states(orbit.model, {"s0": "z0", "s1": "zp", "s2": "zm", "s3": "z1"})
    expected = make_qzx()
    for name in ("Z0", "Z1", "X0", "X1"):
        assert renamed.propositions[name] == expected.propositions[name]


def test_single_projector_orbit():
    model = quantum.close_orbit([DensityState(dm(KET0))], [("P", Projector(dm(PLUS)))]).model
    assert model.space.states == ("s0", "s1", "s2")
    assert core.validate_model(model) == []


def two_plane_projectors(angle=0.5):
    # alternating projections between two planes in d=3 converge slowly,
    # so the orbit has far more states than any small cap
    e0 = np.array([1, 0, 0], dtype=complex)
    e1 = np.array([0, 1, 0], dtype=complex)
    tilted = np.array([0, np.cos(angle), np.sin(angle)], dtype=complex)
    p = Projector(np.outer(e0, e0.conj()) + np.outer(e1, e1.conj()))
    q = Projector(np.outer(e0, e0.conj()) + np.outer(tilted, tilted.conj()))
    seed = DensityState(dm((e0 + e1) / np.sqrt(2)))
    return seed, [("P", p), ("Q", q)]


def test_orbit_cap_exceeded():
    seed, projs = two_plane_projectors()
    with pytest.raises(OrbitCapExceeded) as exc:
        quantum.close_orbit([seed], projs, cap=32)
    assert exc.value.cap == 32
    assert len(exc.value.discovered) == 32
    assert exc.value.frontier
    # a generous cap lets the same system close, and the result is lawful
    model = quantum.close_orbit([seed], projs, cap=256).model
    assert len(model.space) > 128
    assert core.validate_model(model) == []


def test_orbit_closure_argument_validation():
    with pytest.raises(StructuralError):
        quantum.close_orbit([], [("P", Projector(dm(KET0)))])
    with pytest.raises(StructuralError):
        quantum.close_orbit([DensityState(dm(KET0))], [])
    with pytest.raises(StructuralError, match="cap"):
        quantum.close_orbit([DensityState(dm(KET0))], [("P", Projector(dm(KET0)))], cap=0)
    with pytest.raises(StructuralError, match="duplicate"):
        quantum.close_orbit([DensityState(dm(KET0))], [("P", Projector(dm(KET0))), ("P", Projector(dm(KET1)))])
    with pytest.raises(StructuralError, match="dimension"):
        quantum.close_orbit([DensityState(dm(KET0))], [("P", Projector(np.eye(3)))])


def test_document_model_bell():
    doc = modelio.parse_quantum((FIXTURES / "bell_quantum.json").read_text(encoding="utf-8"))
    model = quantum.document_orbit(doc).model
    assert len(model.space) == 4
    renamed = core.rename_states(model, {"s0": "phiP", "s1": "s00", "s2": "s11", "s3": "phiM"})
    assert renamed == make_bell()
    assert core.validate_model(model) == []
    assert core.entangled_states(model, "BELL", ["ZA", "ZB"]) == ["s0", "s3"]


@pytest.mark.parametrize(
    "flags, settings, want",
    [
        ({"cap": 5, "tol": 1e-6}, {"cap": 7, "tolerance": 1e-5}, (5, 1e-6)),
        ({"cap": 5, "tol": 1e-6}, {}, (5, 1e-6)),
        ({}, {"cap": 7, "tolerance": 1e-5}, (7, 1e-5)),
        ({}, {}, (quantum.DEFAULT_CAP, quantum.DEFAULT_TOL)),
    ],
    ids=["flag-over-document", "flag-over-default", "document-over-default", "default"],
)
def test_document_orbit_settles_cap_and_tol(flags, settings, want):
    doc = json.loads((FIXTURES / "qzx_quantum.json").read_text(encoding="utf-8"))
    del doc["cap"], doc["tolerance"]
    orbit = quantum.document_orbit(modelio.parse_quantum(json.dumps({**doc, **settings})), **flags)
    assert (orbit.cap, orbit.tol) == want


@pytest.mark.parametrize(
    "flags, message",
    [
        ({"cap": 0}, "orbit cap must be at least 1"),
        ({"cap": -3}, "orbit cap must be at least 1"),
        ({"tol": float("nan")}, "tol must be a finite non-negative number, got nan"),
        ({"tol": float("inf")}, "tol must be a finite non-negative number, got inf"),
        ({"tol": -1e-9}, "tol must be a finite non-negative number, got -1e-09"),
        # The tolerance is checked first.
        ({"cap": 0, "tol": float("nan")}, "tol must be a finite non-negative number, got nan"),
    ],
)
def test_settings_reject_bad_flags(flags, message):
    doc = modelio.parse_quantum((FIXTURES / "qzx_quantum.json").read_text(encoding="utf-8"))
    with pytest.raises(StructuralError) as exc:
        quantum.settings(doc, **flags)
    assert str(exc.value) == message
    for settle in (quantum.document_orbit, quantum.document_model):
        with pytest.raises(StructuralError, match=message):
            settle(doc, **flags)
    if "tol" in flags:
        with pytest.raises(StructuralError, match=message):
            quantum.family_violations(doc, tol=flags["tol"])


# Each entry point of `quantum` that takes a tolerance, with valid arguments
# apart from it.  The projector is not hermitian, which an infinite
# tolerance would let through.
TOL_ENTRY_POINTS = {
    "settings": lambda tol: quantum.settings(modelio.QuantumDocument(2, (), (), ()), tol=tol),
    "close_orbit": lambda tol: quantum.close_orbit([DensityState(dm(KET0))], [("P", Projector(dm(PLUS)))], cap=50, tol=tol),
    "DensityState": lambda tol: DensityState(dm(KET0), tol),
    "Projector": lambda tol: Projector([[1, 2], [3, 4]], tol),
    "states_equal": lambda tol: quantum.states_equal(DensityState(dm(KET0)), DensityState(dm(PLUS)), tol),
    "act_projector": lambda tol: quantum.act_projector(DensityState(dm(KET0)), Projector(dm(PLUS)), tol),
}


@pytest.mark.parametrize(
    "tol", [float("nan"), float("inf"), -1.0, 2**1024, True], ids=["nan", "inf", "negative", "int-past-float", "bool"]
)
@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
def test_every_entry_point_refuses_a_bad_tolerance(entry, tol):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructuralError) as exc:
            TOL_ENTRY_POINTS[entry](tol)
    assert str(exc.value) == f"tol must be a finite non-negative number, got {tol!r}"


def qzx_document():
    return modelio.parse_quantum((FIXTURES / "qzx_quantum.json").read_text(encoding="utf-8"))


# Each entry point of `quantum` that takes a cap, with valid arguments apart
# from it.  Unrefused, a NaN or infinite cap would leave the closure unbounded.
CAP_ENTRY_POINTS = {
    "settings": lambda cap: quantum.settings(qzx_document(), cap=cap),
    "document_orbit": lambda cap: quantum.document_orbit(qzx_document(), cap=cap),
    "close_orbit": lambda cap: quantum.close_orbit([DensityState(dm(KET0))], [("P", Projector(dm(PLUS)))], cap=cap),
}


@pytest.mark.parametrize("cap", [float("nan"), float("inf"), 2.5, True, "3"], ids=["nan", "inf", "float", "bool", "str"])
@pytest.mark.parametrize("entry", sorted(CAP_ENTRY_POINTS))
def test_every_entry_point_refuses_a_cap_that_is_not_an_integer(entry, cap):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructuralError) as exc:
            CAP_ENTRY_POINTS[entry](cap)
    assert str(exc.value) == f"orbit cap must be an integer, got {cap!r}"


def test_settings_take_flag_then_document_then_default():
    doc = json.loads((FIXTURES / "qzx_quantum.json").read_text(encoding="utf-8"))
    doc["cap"], doc["tolerance"] = 7, 0
    parsed = modelio.parse_quantum(json.dumps(doc))
    assert quantum.settings(parsed) == (7, 0.0)
    assert quantum.settings(parsed, cap=1, tol=0.5) == (1, 0.5)
    del doc["cap"], doc["tolerance"]
    assert quantum.settings(modelio.parse_quantum(json.dumps(doc))) == (quantum.DEFAULT_CAP, quantum.DEFAULT_TOL)


def test_family_violations_from_document():
    doc = modelio.parse_quantum((FIXTURES / "qzx_quantum.json").read_text(encoding="utf-8"))
    assert quantum.family_violations(doc) == []
    bad = modelio.QuantumDocument(
        dimension=2,
        seeds=(("z0", dm(KET0)),),
        propositions=(("A", dm(KET0)), ("B", dm(PLUS))),
        observables=(modelio.ObservableSpec("O", ("a", "b"), {"a": "A", "b": "B"}),),
    )
    report = quantum.family_violations(bad)
    assert any(v.law == "orthogonality" for v in report)


def test_random_orbit_models_validate_clean():
    rng = np.random.default_rng(11)
    for trial in range(10):
        d = int(rng.integers(2, 4))
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        # orthonormal columns partition the identity into rank-1 projectors
        projs = [(f"P{k}", Projector(np.outer(q[:, k], q[:, k].conj()))) for k in range(d)]
        amps = rng.normal(size=d) + 1j * rng.normal(size=d)
        seed = DensityState(np.outer(amps, amps.conj()) / (amps.conj() @ amps).real)
        model = quantum.close_orbit([seed], projs, cap=128).model
        assert core.validate_model(model) == []


def test_commuting_projectors_induce_compatible_propositions():
    # shared eigenbasis in d=4: both projectors diagonal
    p = Projector(np.diag([1.0, 1.0, 0.0, 0.0]))
    q = Projector(np.diag([1.0, 0.0, 1.0, 0.0]))
    amps = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    seed = DensityState(np.outer(amps, amps.conj()))
    model = quantum.close_orbit([seed], [("P", p), ("Q", q)], cap=64).model
    ok, _ = core.is_compatible_propositions(model.propositions["P"], model.propositions["Q"])
    assert ok


# ---------------------------------------------------------------------------
# Orbit closure against the linear-scan reference


def reference_close_orbit(seeds, propositions, cap=quantum.DEFAULT_CAP, tol=quantum.DEFAULT_TOL):
    """The closure with one `max|known - m|` per known state that
    `close_orbit` replaced, kept as its oracle; returns (model, matrices)."""
    dim = seeds[0].dimension
    mats = []

    def find(m):
        for i, known in enumerate(mats):
            if np.abs(known - m).max() <= tol:
                return i
        return None

    def add(m, processed):
        if len(mats) >= cap:
            discovered = [f"s{i}" for i in range(len(mats))]
            raise OrbitCapExceeded(
                f"orbit closure exceeded cap {cap}: {len(mats)} states discovered, "
                f"{len(mats) - processed} still unexpanded",
                cap,
                discovered=discovered,
                frontier=discovered[processed:],
            )
        mats.append(m)
        return len(mats) - 1

    for s in seeds:
        m = s.normalized()
        if find(m) is None:
            add(m, 0)
    actions = [m for _, p in propositions for m in (p.matrix, np.eye(dim) - p.matrix)]
    rows = [[] for _ in actions]
    i = 0
    while i < len(mats):
        for row, pm in zip(rows, actions):
            img = pm @ mats[i] @ pm
            trace = img.trace().real
            if trace <= tol:
                row.append(None)
            else:
                img = img / trace
                j = find(img)
                if j is None:
                    j = add(img, i)
                row.append(j)
        i += 1
    n = len(mats)
    space = core.StateSpace(tuple(f"s{k}" for k in range(n)))
    maps = [core.PropMap(space, [n if j is None else j for j in row] + [n]) for row in rows]
    props = [core.Proposition(name, maps[2 * k], maps[2 * k + 1]) for k, (name, _) in enumerate(propositions)]
    return core.Model.build(space, props), tuple(mats)


def fixture_system(name, tol):
    doc = modelio.parse_quantum((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
    seeds = [DensityState(m, tol) for _, m in doc.seeds]
    return seeds, [(n, Projector(m, tol)) for n, m in doc.propositions]


def plane_system(angle):
    seed, projs = two_plane_projectors(angle)
    return [seed], projs


# name -> (seeds, propositions, tol); the planes close in at most 153 states.
ORACLE_SYSTEMS = {
    **{
        f"{name}-tol{tol:g}": (*fixture_system(name, tol), tol)
        for name in ("qzx_quantum", "bell_quantum")
        for tol in (quantum.DEFAULT_TOL, 0.0, 1e-6)
    },
    **{
        f"plane{angle}-tol{tol:g}": (*plane_system(angle), tol)
        for angle in (1.2, 0.9, 0.7, 0.5)
        for tol in (1e-6, 1e-9)
    },
}


def reference_margins(seeds, projs, model, mats, tol):
    """Both merge margins of a closure, recomputed from its states: the
    largest distance from a seed or a live image to the state it became,
    and the smallest distance between two states.  An image that became a
    new state is at distance 0.0 from it, which leaves the maximum as is."""
    mats = np.array(mats)
    merge = 0.0
    for s in seeds:
        d = np.abs(mats - s.normalized()).max(axis=(1, 2))
        merge = max(merge, float(d[np.flatnonzero(d <= tol)[0]]))
    dim = mats.shape[1]
    for name, p in projs:
        prop = model.propositions[name]
        for pm, target in ((p.matrix, prop.yes.table), (np.eye(dim) - p.matrix, prop.no.table)):
            for i, state in enumerate(mats):
                img = pm @ state @ pm
                trace = img.trace().real
                if trace > tol:
                    merge = max(merge, float(np.abs(mats[target[i]] - img / trace).max()))
    split = min((float(np.abs(mats[:k] - mats[k]).max(axis=(1, 2)).min()) for k in range(1, len(mats))), default=np.inf)
    return merge, split


def assert_same_closure(seeds, projs, cap, tol):
    try:
        want_model, want_mats = reference_close_orbit(seeds, projs, cap=cap, tol=tol)
    except OrbitCapExceeded as want:
        with pytest.raises(OrbitCapExceeded) as got:
            quantum.close_orbit(seeds, projs, cap=cap, tol=tol)
        assert str(got.value) == str(want)
        assert (got.value.cap, got.value.discovered, got.value.frontier) == (want.cap, want.discovered, want.frontier)
        return None
    orbit = quantum.close_orbit(seeds, projs, cap=cap, tol=tol)
    assert modelio.serialize_model(orbit.model) == modelio.serialize_model(want_model)
    assert len(orbit.matrices) == len(want_mats)
    for got, want in zip(orbit.matrices, want_mats):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    margins = (orbit.max_merge_distance, orbit.min_split_distance)
    assert margins == reference_margins(seeds, projs, want_model, want_mats, tol)
    return orbit


@pytest.mark.parametrize("system", sorted(ORACLE_SYSTEMS))
def test_close_orbit_matches_linear_reference(system):
    seeds, projs, tol = ORACLE_SYSTEMS[system]
    orbit = assert_same_closure(seeds, projs, 256, tol)
    assert 0.0 <= orbit.max_merge_distance <= tol < orbit.min_split_distance


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("system", ["qzx_quantum-tol0", "bell_quantum-tol1e-09", "plane0.5-tol1e-09", "plane1.2-tol1e-06"])
def test_close_orbit_cap_overrun_matches_linear_reference(system, cap):
    seeds, projs, tol = ORACLE_SYSTEMS[system]
    assert_same_closure(seeds, projs, cap, tol)


def near_tie_system():
    # A and B are 0.25 apart, beyond tol 0.2; the yes-image of D under P
    # is C, within tol of both (0.1875 from A, 0.0625 from B).
    a = np.diag([0.625, 0.375, 0.0])
    b = np.diag([0.375, 0.625, 0.0])
    d = np.diag([0.21875, 0.28125, 0.5])
    return a, b, d, [("P", Projector(np.diag([1.0, 1.0, 0.0])))]


def test_near_tie_merges_into_the_first_match_in_discovery_order():
    a, b, d, projs = near_tie_system()
    orbit = quantum.close_orbit([DensityState(a), DensityState(b), DensityState(d)], projs, tol=0.2)
    # C joins A, the lowest index, though it is nearer to B.
    assert orbit.model.propositions["P"].yes("s2") == "s0"
    assert orbit.matrices[0].tobytes() == a.astype(complex).tobytes()
    assert len(orbit.model.space) == 4  # A, B, D and the no-image of D
    assert orbit.max_merge_distance == 0.1875
    assert orbit.min_split_distance == 0.25

    swapped = quantum.close_orbit([DensityState(b), DensityState(a), DensityState(d)], projs, tol=0.2)
    assert swapped.model.propositions["P"].yes("s2") == "s0"
    assert swapped.matrices[0].tobytes() == b.astype(complex).tobytes()
    assert swapped.max_merge_distance == 0.0625
    assert swapped.min_split_distance == 0.25


def test_merge_margins_of_a_lone_state():
    orbit = quantum.close_orbit([DensityState(dm(KET0))], [("Z0", Projector(dm(KET0)))])
    assert len(orbit.model.space) == 1
    assert orbit.max_merge_distance == 0.0
    assert orbit.min_split_distance == np.inf


def test_close_orbit_huge_cap():
    seeds, projs, tol = ORACLE_SYSTEMS["qzx_quantum-tol1e-09"]
    default = quantum.close_orbit(seeds, projs, tol=tol)
    huge = quantum.close_orbit(seeds, projs, cap=10**12, tol=tol)
    assert modelio.serialize_model(huge.model) == modelio.serialize_model(default.model)


# ---------------------------------------------------------------------------
# Images that miss every earlier state and meet states added in the same step


def ray(angle):
    """The pure qubit state, or rank-1 projector, on (cos a, sin a)."""
    return dm([np.cos(angle), np.sin(angle)])


# A rank-1 projector sends every state it does not annihilate to itself,
# so each yes-image below is the ray of its projector.  The rays at 0.5 and
# 0.7 are 0.185 apart, beyond tol 0.15; the ray at 0.6 is within it of
# both (0.089 and 0.096), and so are the no-images at the same angles plus
# a right angle.  Every ray is at least 0.42 from |0>.
NEAR_RAYS_TOL = 0.15


def near_rays(*angles):
    return [(f"P{angle:g}", Projector(ray(angle))) for angle in angles]


def test_image_matches_a_state_added_earlier_in_the_same_step():
    projs = near_rays(0.5, 0.7, 0.6)
    orbit = assert_same_closure([DensityState(ray(0))], projs, 256, NEAR_RAYS_TOL)
    # Expanding |0> adds the rays at 0.5 and 0.7 and their no-images;
    # the images of P0.6 meet none of |0> and join the first of each pair.
    assert len(orbit.model.space) == 5
    p = orbit.model.propositions
    assert (p["P0.5"].yes("s0"), p["P0.5"].no("s0"), p["P0.7"].yes("s0"), p["P0.7"].no("s0")) == ("s1", "s2", "s3", "s4")
    assert (p["P0.6"].yes("s0"), p["P0.6"].no("s0")) == ("s1", "s2")
    # The closest pair was added in one step: the rays or their no-images.
    m = orbit.matrices
    assert orbit.min_split_distance == min(float(np.abs(m[1] - m[3]).max()), float(np.abs(m[2] - m[4]).max()))


def test_image_near_an_earlier_step_state_and_a_same_step_state_joins_the_earlier():
    # The ray at 0.5 is a seed; expanding |0> adds the ray at 0.7, then
    # meets the ray at 0.6, within tol of both.
    projs = near_rays(0.7, 0.6)
    orbit = assert_same_closure([DensityState(ray(0)), DensityState(ray(0.5))], projs, 256, NEAR_RAYS_TOL)
    p = orbit.model.propositions
    assert p["P0.7"].yes("s0") == "s2"
    assert p["P0.6"].yes("s0") == "s1"


def test_one_step_adds_states_across_a_stack_doubling():
    # Fifteen diagonal seeds fill 15 of the first 16 columns; expanding the
    # first adds the two rays of P, the second into a doubled store.
    seeds = [DensityState(np.diag([0.03 * k, 1 - 0.03 * k])) for k in range(1, 16)]
    projs = near_rays(0.5)
    orbit = assert_same_closure(seeds, projs, 256, 1e-9)
    assert len(orbit.model.space) == 17
    p = orbit.model.propositions["P0.5"]
    assert (p.yes("s0"), p.no("s0")) == ("s15", "s16")


def test_one_step_batch_crosses_a_store_doubling():
    # Fourteen diagonal seeds; expanding the first puts its four images in
    # columns 14 to 17, past the first store's 16.  The two of P0.5 become
    # s14 and s15, and those of its copy Q join them.
    seeds = [DensityState(np.diag([0.03 * k, 1 - 0.03 * k])) for k in range(1, 15)]
    projs = near_rays(0.5) + [("Q", Projector(ray(0.5)))]
    orbit = assert_same_closure(seeds, projs, 256, 1e-9)
    assert len(orbit.model.space) == 16
    p = orbit.model.propositions
    assert (p["P0.5"].yes("s0"), p["P0.5"].no("s0"), p["Q"].yes("s0"), p["Q"].no("s0")) == ("s14", "s15", "s14", "s15")


@pytest.mark.parametrize("cap", [2, 3, 4, 256])
def test_new_state_moves_down_and_a_later_image_joins_it(cap):
    # Expanding |0>: the yes-image of P0.5 is the seed s1, so its no-image,
    # new, moves down from the second batch column to s2; the no-image of
    # P0.6 joins it.  The images of P1 are new and move down to s3 and s4;
    # at caps 2 to 4 one of the new images overruns the cap while the rest
    # of the batch still sits past the known states.
    projs = near_rays(0.5, 0.6, 1.0)
    orbit = assert_same_closure([DensityState(ray(0)), DensityState(ray(0.5))], projs, cap, NEAR_RAYS_TOL)
    if cap == 256:
        p = orbit.model.propositions
        images = [getattr(p[name], side)("s0") for name in ("P0.5", "P0.6", "P1") for side in ("yes", "no")]
        assert images == ["s1", "s2", "s1", "s2", "s3", "s4"]
        assert len(orbit.model.space) == 5
    else:
        with pytest.raises(OrbitCapExceeded, match=f"{cap} states discovered, {cap} still unexpanded"):
            quantum.close_orbit([DensityState(ray(0)), DensityState(ray(0.5))], projs, cap=cap, tol=NEAR_RAYS_TOL)


def test_step_whose_images_all_vanish():
    # At tol 0.6 both images of |0> under |+><+| have trace 0.5, so the
    # step absorbs an empty batch.
    orbit = assert_same_closure([DensityState(dm(KET0))], [("X", Projector(dm(PLUS)))], 256, 0.6)
    assert len(orbit.model.space) == 1
    assert (orbit.model.propositions["X"].yes("s0"), orbit.model.propositions["X"].no("s0")) == (ZERO, ZERO)


@pytest.mark.parametrize("cap", [4, 5, 6])
def test_cap_overrun_in_the_middle_of_a_step(cap):
    # Expanding |0> adds four states.  |1> first appears as the yes-image
    # of Z1 at the ray at 0.5, the seventh of eight actions of the second
    # step; at cap 5 it overruns the cap there.
    projs = near_rays(0.5, 0.7, 0.6) + [("Z1", Projector(ray(np.pi / 2)))]
    seeds = [DensityState(ray(0))]
    assert_same_closure(seeds, projs, cap, NEAR_RAYS_TOL)
    if cap == 5:
        with pytest.raises(OrbitCapExceeded, match="5 states discovered, 4 still unexpanded"):
            quantum.close_orbit(seeds, projs, cap=cap, tol=NEAR_RAYS_TOL)


# ---------------------------------------------------------------------------
# Action matrices listed more than once


def test_projector_and_its_complement_listed_as_two_propositions():
    # As a two-valued observable lists them: the no-action of P is, byte
    # for byte, the yes-action of Pn, and likewise for Q and Qn.
    seed, [(_, p), (_, q)] = two_plane_projectors(0.9)
    projs = [("P", p), ("Pn", Projector(np.eye(3) - p.matrix)), ("Q", q), ("Qn", Projector(np.eye(3) - q.matrix))]
    orbit = assert_same_closure([seed], projs, 256, 1e-9)
    props = orbit.model.propositions
    assert props["P"].no == props["Pn"].yes and props["Q"].no == props["Qn"].yes
    assert len(orbit.model.space) > 20


def listed_twice_system():
    # Q is the matrix of P0.5 under a second name, listed before the rays
    # at 1 and 1.5.  Expanding |0> adds the two images of P0.5, which the
    # images of Q must join at 0.0, then the four images of the later
    # rays; the orbit closes there, in 7 states.
    return [DensityState(ray(0))], near_rays(0.5) + [("Q", Projector(ray(0.5)))] + near_rays(1, 1.5)


def test_matrix_listed_twice_joins_the_state_its_original_just_added():
    seeds, projs = listed_twice_system()
    orbit = assert_same_closure(seeds, projs, 256, 1e-9)
    p = orbit.model.propositions
    images = [getattr(p[name], side)("s0") for name, _ in projs for side in ("yes", "no")]
    assert images == ["s1", "s2", "s1", "s2", "s3", "s4", "s5", "s6"]
    assert p["Q"] == core.Proposition("Q", p["P0.5"].yes, p["P0.5"].no)
    # Without Q the closure has the same states and margins.
    alone = quantum.close_orbit(seeds, [projs[0], *projs[2:]], tol=1e-9)
    assert list(map(core.array_key, alone.matrices)) == list(map(core.array_key, orbit.matrices))
    assert (alone.max_merge_distance, alone.min_split_distance) == (orbit.max_merge_distance, orbit.min_split_distance)


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
def test_cap_overrun_past_a_matrix_listed_twice(cap):
    # Expanding |0> adds a state for each image but Q's, which add nothing,
    # so any cap below 7 overruns in that step; caps 3 to 5 after Q's images.
    seeds, projs = listed_twice_system()
    assert_same_closure(seeds, projs, cap, 1e-9)
    with pytest.raises(OrbitCapExceeded) as exc:
        quantum.close_orbit(seeds, projs, cap=cap, tol=1e-9)
    assert str(exc.value) == f"orbit closure exceeded cap {cap}: {cap} states discovered, {cap} still unexpanded"
    assert exc.value.discovered == exc.value.frontier == tuple(f"s{k}" for k in range(cap))


@st.composite
def projector_systems(draw):
    """Seeds and projectors in d=2..4: each projector spans the first
    columns of a random unitary, each seed is a random mixture."""
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def unitary():
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        return q

    projs = []
    for k in range(draw(st.integers(1, 3))):
        cols = unitary()[:, : draw(st.integers(1, d - 1))]
        projs.append((f"P{k}", Projector(cols @ cols.conj().T)))
    seeds = []
    for _ in range(draw(st.integers(1, 2))):
        weights = rng.random(d) * (rng.random(d) < 0.6)
        weights[0] += 0.1
        u = unitary()
        seeds.append(DensityState((u * (weights / weights.sum())) @ u.conj().T))
    return seeds, projs


@settings(max_examples=100, deadline=None)
@given(projector_systems(), st.sampled_from([1e-6, 1e-9]), st.integers(1, 40))
def test_close_orbit_matches_linear_reference_on_random_systems(system, tol, cap):
    seeds, projs = system
    assert_same_closure(seeds, projs, cap, tol)


@pytest.mark.parametrize("block_bytes", [1, 1728, 20000])
@pytest.mark.parametrize("system", ["bell_quantum-tol1e-09", "plane0.5-tol1e-09", "plane1.2-tol1e-06"])
def test_blocked_comparison_matches_linear_reference(system, block_bytes, monkeypatch):
    # Orbits of the test systems fit one block at the default size; small
    # blocks split every comparison, down to one known state per block.
    # At 1728 bytes the six images of |0> in the near-rays system, 64 bytes
    # a matrix, are set against its seven columns in blocks of 4 and 3, so
    # the last block is narrower than the one before.
    monkeypatch.setattr(quantum, "BROADCAST_BYTES", block_bytes)
    seeds, projs, tol = ORACLE_SYSTEMS[system]
    assert_same_closure(seeds, projs, 256, tol)
    assert_same_closure([DensityState(ray(0))], near_rays(0.5, 0.7, 0.6), 256, NEAR_RAYS_TOL)


def live_images(orbit, projs):
    """The number of live images of each state, the batch its step absorbs."""
    n, props = len(orbit.model.space), orbit.model.propositions
    maps = [m for name, _ in projs for m in (props[name].yes, props[name].no)]
    return [sum(m.table[i] < n for m in maps) for i in range(n)]


@pytest.mark.parametrize("block_bytes", [None, 1728])
def test_step_with_fewer_images_than_the_step_before(block_bytes, monkeypatch):
    # Expanding |0> absorbs six images, expanding the ray at 0.5 three: its
    # no-images have traces below tol 0.15.  The work buffers still hold
    # differences of the first step past those of the second, which a view
    # cut to the wrong batch length would read.
    if block_bytes is not None:
        monkeypatch.setattr(quantum, "BROADCAST_BYTES", block_bytes)
    projs = near_rays(0.5, 0.7, 0.6)
    orbit = assert_same_closure([DensityState(ray(0))], projs, 256, NEAR_RAYS_TOL)
    assert live_images(orbit, projs)[:2] == [6, 3]


@pytest.mark.parametrize("block_bytes", [None, 1728])
def test_back_to_back_closures_match_each_closed_alone(block_bytes, monkeypatch):
    # Each closure has its own work buffers, so a closure right after one of
    # another dimension and batch length is the closure on its own.
    if block_bytes is not None:
        monkeypatch.setattr(quantum, "BROADCAST_BYTES", block_bytes)
    systems = [
        ORACLE_SYSTEMS["bell_quantum-tol1e-09"],
        ORACLE_SYSTEMS["plane0.5-tol1e-09"],
        ([DensityState(ray(0))], near_rays(0.5, 0.7, 0.6), NEAR_RAYS_TOL),
    ]
    alone = [quantum.close_orbit(seeds, projs, tol=tol) for seeds, projs, tol in systems]
    for first, second in [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]:
        for k in (first, second):
            seeds, projs, tol = systems[k]
            assert quantum.close_orbit(seeds, projs, tol=tol) == alone[k]
