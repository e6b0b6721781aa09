"""Command-line contract: output shapes, determinism, exit codes."""

import json
import math
import random
import re
import subprocess
import sys

import pytest

from gqt import checker, cli, core, modelio
from gqt.core import ZERO

from conftest import FIXTURES, force_every_pair_compatible, make_qzx, mutate_entry
from test_modelio import model_document

QZX = str(FIXTURES / "qzx.json")
BELL = str(FIXTURES / "bell.json")
BISTABLE = str(FIXTURES / "bistable.json")
QZX_Q = str(FIXTURES / "qzx_quantum.json")
BELL_Q = str(FIXTURES / "bell_quantum.json")


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# validate / check


def test_validate_clean_fixture(capsys):
    code, out, err = run_cli(["validate", QZX], capsys)
    assert code == 0
    assert out == "0 violations\n"
    assert err == ""


def test_validate_all_fixtures(capsys):
    for path in (QZX, BELL, BISTABLE):
        code, out, _ = run_cli(["validate", path], capsys)
        assert code == 0 and out == "0 violations\n"
        code, out, _ = run_cli(["check", path], capsys)
        assert code == 0 and out == "0 violations\n"


def test_validate_broken_model(tmp_path, capsys):
    broken = mutate_entry(make_qzx(), "Z0", "yes", "zp", "zp")
    path = tmp_path / "broken.json"
    path.write_text(modelio.serialize_model(broken), encoding="utf-8")
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert "annihilation" in out
    assert "zp" in out
    assert err == ""
    code, out, _ = run_cli(["check", str(path)], capsys)
    assert code == 1
    assert "P·negP=0" in out


def test_validate_json_format(tmp_path, capsys):
    broken = mutate_entry(make_qzx(), "Z0", "yes", "z1", "zp")
    path = tmp_path / "broken.json"
    path.write_text(modelio.serialize_model(broken), encoding="utf-8")
    code, out, _ = run_cli(["validate", str(path), "--format", "json"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["count"] == len(doc["violations"]) > 0
    v = doc["violations"][0]
    assert set(v) == {"law", "subjects", "witness", "detail"}


def test_validate_parse_error_goes_to_stderr(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope", encoding="utf-8")
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err and "line 1" in err


def test_validate_refuses_an_empty_observable_name(tmp_path, capsys):
    doc = json.loads((FIXTURES / "qzx.json").read_text(encoding="utf-8"))
    doc["observables"] = {"": doc["observables"]["Z"]}
    path = tmp_path / "unnamed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert (code, out, err) == (2, "", "error: observables.: observable name must be a non-empty string\n")


def test_validate_missing_file(capsys):
    code, out, err = run_cli(["validate", "/nonexistent/model.json"], capsys)
    assert code == 2
    assert out == "" and err != ""


def test_invalid_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    for args in (["validate", str(path)], ["quantum", "build", str(path), "-o", str(tmp_path / "out.json")]):
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (2, ""), args
        assert "error:" in err and "not valid UTF-8" in err


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    for args in (["validate", str(path)], ["check", str(path)], ["quantum", "build", str(path), "-o", str(tmp_path / "out.json")]):
        code, out, err = run_cli(args, capsys)
        assert code == 2, args
        assert out == ""
        assert "error:" in err and "nested too deeply" in err


# ---------------------------------------------------------------------------
# report / eigen / measure / entangle


def test_report_text(capsys):
    code, out, err = run_cli(["report", QZX], capsys)
    assert code == 0 and err == ""
    assert "states: 4" in out
    assert "X vs Z: strongly-complementary" in out
    assert "Z vs Z: compatible" in out
    assert "Z: z0=0 z1=1" in out


def test_report_json(capsys):
    code, out, _ = run_cli(["report", QZX, "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["states"] == ["z0", "zp", "zm", "z1"]
    pair = next(p for p in doc["pairs"] if {p["a"], p["b"]} == {"X", "Z"})
    assert pair["class"] == "strongly-complementary"
    assert pair["common_eigenstates"] == []
    assert doc["eigenstates"]["Z"] == [["z0", "0"], ["z1", "1"]]


def test_report_bell_pairs(capsys):
    code, out, _ = run_cli(["report", BELL, "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    classes = {(p["a"], p["b"]): p["class"] for p in doc["pairs"]}
    assert classes[("BELL", "ZA")] == "strongly-complementary"
    assert classes[("BELL", "ZB")] == "strongly-complementary"
    assert classes[("ZA", "ZB")] == "compatible"


def test_eigen(capsys):
    code, out, _ = run_cli(["eigen", BELL, "--observable", "BELL"], capsys)
    assert code == 0
    assert out == "phiM phi-\nphiP phi+\n"
    code, out, _ = run_cli(["eigen", BELL, "--observable", "BELL", "--format", "json"], capsys)
    doc = json.loads(out)
    assert doc == {"observable": "BELL", "eigenstates": [["phiM", "phi-"], ["phiP", "phi+"]]}
    code, _, err = run_cli(["eigen", BELL, "--observable", "NOPE"], capsys)
    assert code == 2 and "unknown observable" in err


def test_measure(capsys):
    code, out, _ = run_cli(["measure", BELL, "--state", "phiP", "--steps", "ZA=0,BELL=phi+"], capsys)
    assert code == 0
    assert out == "step ZA=0: s00\nstep BELL=phi+: phiP\nresult: phiP\n"
    # an impossible branch renders as null and absorbs the rest
    code, out, _ = run_cli(["measure", BELL, "--state", "phiP", "--steps", "ZA=0,ZA=1,BELL=phi+"], capsys)
    assert code == 0
    assert out.endswith("result: null\n")
    code, out, _ = run_cli(
        ["measure", BELL, "--state", "phiP", "--steps", "ZA=0,ZA=1", "--format", "json"], capsys
    )
    doc = json.loads(out)
    assert doc["result"] is None
    assert doc["steps"][0] == {"observable": "ZA", "value": "0", "state": "s00"}
    assert doc["steps"][1]["state"] is None


def test_measure_without_steps_stays_put(capsys):
    assert run_cli(["measure", QZX, "--state", "z0", "--steps", ""], capsys) == (0, "result: z0\n", "")


def test_measure_errors(capsys):
    code, _, err = run_cli(["measure", BELL, "--state", "nope", "--steps", "ZA=0"], capsys)
    assert code == 2 and "unknown state" in err
    code, _, err = run_cli(["measure", BELL, "--state", "phiP", "--steps", "ZA"], capsys)
    assert code == 2 and "observable=value" in err
    code, _, err = run_cli(["measure", BELL, "--state", "phiP", "--steps", "ZA=9"], capsys)
    assert code == 2


def test_entangle(capsys):
    code, out, err = run_cli(["entangle", BELL, "--global", "BELL", "--locals", "ZA,ZB"], capsys)
    assert code == 0 and err == ""
    assert out == "preconditions: ok\nentangled states: phiM phiP\n"
    code, out, _ = run_cli(["entangle", BELL, "--global", "BELL", "--locals", "ZA,ZB", "--format", "json"], capsys)
    doc = json.loads(out)
    assert doc == {"preconditions": [], "entangled": ["phiM", "phiP"]}


def _bell_with_local_tags(tmp_path, **tags) -> str:
    doc = json.loads((FIXTURES / "bell.json").read_text(encoding="utf-8"))
    doc["partition"]["local"].update(tags)
    path = tmp_path / "retagged.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_entangle_skips_locals_on_one_subsystem(tmp_path, capsys):
    # ZA and ZB both on A: the pair is not classified, so no precondition fails.
    path = _bell_with_local_tags(tmp_path, ZB="A")
    code, out, err = run_cli(["entangle", path, "--global", "BELL", "--locals", "ZA,ZB"], capsys)
    assert (code, out, err) == (0, "preconditions: ok\nentangled states: phiM phiP\n", "")


def test_validate_reports_a_local_tag_on_an_unknown_subsystem(tmp_path, capsys):
    code, out, err = run_cli(["validate", _bell_with_local_tags(tmp_path, ZA="C")], capsys)
    expected = "1 violations\n[partition-reference] ZA: local tag for 'ZA' names unknown subsystem 'C'\n"
    assert (code, out, err) == (1, expected, "")


def test_entangle_checks_preconditions_once(capsys, monkeypatch):
    # One classification for the locals on different subsystems, one for
    # the global against each local.
    calls = []
    pair_class = core.pair_class
    monkeypatch.setattr(core, "pair_class", lambda a, b: calls.append((a.name, b.name)) or pair_class(a, b))
    code, out, _ = run_cli(["entangle", BELL, "--global", "BELL", "--locals", "ZA,ZB"], capsys)
    assert (code, out) == (0, "preconditions: ok\nentangled states: phiM phiP\n")
    assert calls == [("ZA", "ZB"), ("BELL", "ZA"), ("BELL", "ZB")]


def test_entangle_structural_error(capsys):
    code, _, err = run_cli(["entangle", QZX, "--global", "Z", "--locals", "X"], capsys)
    assert code == 2 and "no partition" in err
    code, _, err = run_cli(["entangle", BELL, "--global", "ZA", "--locals", "ZB"], capsys)
    assert code == 2 and "not tagged global" in err


def test_entangle_precondition_failure(tmp_path, capsys):
    # rewrite the partition so a local does not commute with the others
    text = (FIXTURES / "bell.json").read_text(encoding="utf-8")
    doc = json.loads(text)
    doc["partition"]["local"]["BELL"] = "B"
    path = tmp_path / "bad_partition.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["entangle", str(path), "--global", "BELL", "--locals", "ZA,BELL"], capsys)
    assert code == 1
    assert "entangle-locals-compatible" in out or "entangle-global-complementary" in out
    assert err == ""


# ---------------------------------------------------------------------------
# quantum build / fuzz


def test_quantum_build_qzx(tmp_path, capsys):
    out_path = tmp_path / "built.json"
    code, out, err = run_cli(["quantum", "build", QZX_Q, "-o", str(out_path)], capsys)
    assert code == 0 and err == ""
    assert "states: 4" in out
    assert "tolerance: 0.000000001" in out
    assert f"wrote: {out_path}" in out
    built = modelio.parse_model(out_path.read_text(encoding="utf-8"))
    assert built.space.states == ("s0", "s1", "s2", "s3")
    code, out, _ = run_cli(["validate", str(out_path)], capsys)
    assert code == 0 and out == "0 violations\n"


def test_quantum_build_flag_overrides(tmp_path, capsys):
    out_path = tmp_path / "built.json"
    code, out, _ = run_cli(["quantum", "build", QZX_Q, "--cap", "4", "--tol", "1e-6", "-o", str(out_path)], capsys)
    assert code == 0
    assert "cap: 4" in out and "tolerance: 0.000001000" in out
    code, out, _ = run_cli(["quantum", "build", QZX_Q, "--cap", "3", "-o", str(out_path)], capsys)
    assert code == 1
    assert "exceeded cap 3" in out


def test_quantum_build_default_settings(tmp_path, capsys):
    doc = json.loads((FIXTURES / "qzx_quantum.json").read_text(encoding="utf-8"))
    del doc["cap"], doc["tolerance"]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["quantum", "build", str(path), "-o", str(tmp_path / "built.json")], capsys)
    assert (code, err) == (0, "")
    assert "cap: 256" in out and "tolerance: 0.000000001" in out


def test_quantum_build_huge_cap(tmp_path, capsys):
    # The orbit store grows with the states found, never with the cap.
    default_path, huge_path = tmp_path / "default.json", tmp_path / "huge.json"
    assert run_cli(["quantum", "build", QZX_Q, "-o", str(default_path)], capsys)[0] == 0
    code, out, err = run_cli(["quantum", "build", QZX_Q, "--cap", "1000000000000", "-o", str(huge_path)], capsys)
    assert (code, err) == (0, "")
    assert "cap: 1000000000000" in out
    assert huge_path.read_bytes() == default_path.read_bytes()


def test_quantum_build_checks_complements_at_document_tolerance(tmp_path, capsys):
    # Z0's idempotence residue is about 1e-7: within the document's 1e-5,
    # beyond the 1e-9 default, and the same for I - Z0.
    doc = json.loads((FIXTURES / "qzx_quantum.json").read_text(encoding="utf-8"))
    doc["propositions"]["Z0"] = [[[1 + 1e-7, 0], [0, 0]], [[0, 0], [0, 0]]]
    doc["tolerance"] = 1e-5
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out_path = tmp_path / "built.json"
    code, out, err = run_cli(["quantum", "build", str(path), "-o", str(out_path)], capsys)
    assert (code, err) == (0, "")
    assert "states: 4" in out and "tolerance: 0.000010000" in out


def test_quantum_build_rejects_bad_family(tmp_path, capsys):
    doc = json.loads((FIXTURES / "qzx_quantum.json").read_text(encoding="utf-8"))
    doc["observables"]["Z"]["family"]["1"] = "Z0"  # duplicate branch: not orthogonal
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["quantum", "build", str(path), "-o", str(tmp_path / "out.json")], capsys)
    assert code == 1
    assert "orthogonality" in out
    assert not (tmp_path / "out.json").exists()
    assert err == ""


@pytest.mark.parametrize("seed", ["ket0", "plus"])
@pytest.mark.parametrize("name", core.RESERVED_PROPOSITION_NAMES)
def test_quantum_build_refuses_a_builtin_projector_name(tmp_path, capsys, name, seed):
    # Refused at parse time whatever the orbit: the projector |0><0| fixes
    # the seed |0> and splits |+>.
    ket = {"ket0": [[1, 0], [0, 0]], "plus": [[0.5**0.5, 0], [0.5**0.5, 0]]}[seed]
    doc = {"dimension": 2, "seeds": {"s": ket}, "propositions": {name: [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}}
    path = tmp_path / "reserved.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["quantum", "build", str(path), "-o", str(tmp_path / "out.json")], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: propositions.{name}: {name} is a builtin proposition and cannot be redefined\n"
    assert not (tmp_path / "out.json").exists()


def test_quantum_build_rejects_non_projector(tmp_path, capsys):
    doc = json.loads((FIXTURES / "qzx_quantum.json").read_text(encoding="utf-8"))
    doc["propositions"]["Z0"] = [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(["quantum", "build", str(path), "-o", str(tmp_path / "out.json")], capsys)
    # the malformed matrix is caught by the family law report
    assert code == 1
    assert "projector-idempotent" in out


def test_quantum_build_of_huge_entries_prints_no_numpy_warning(tmp_path):
    # MM - M overflows for this member, which the report shows as inf.  A
    # fresh interpreter, since pytest would capture the warnings itself.
    doc = json.loads((FIXTURES / "qzx_quantum.json").read_text(encoding="utf-8"))
    doc["propositions"]["Z0"] = [[[1e300, 0], [1e300, 0]], [[1e300, 0], [-1e300, 0]]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [sys.executable, "-m", "gqt", "quantum", "build", str(path), "-o", str(tmp_path / "out.json")]
    proc = subprocess.run(argv, capture_output=True, text=True)
    # From 1e9 on a residue prints in exponent form, not as 301 digits.
    big = "1.000000000e+300"
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == (
        "3 violations\n"
        "[projector-idempotent] Z 0: max |MM - M| = inf\n"
        f"[orthogonality] Z 0 1: max |M1 M2| = {big}\n"
        f"[resolution-of-identity] Z: max |sum - I| = {big}\n"
    )
    # Outside every family the member is checked as a projector, exit 2.
    doc["observables"]["Z"]["family"]["0"] = "X0"
    doc["observables"]["Z"]["family"]["1"] = "X1"
    del doc["observables"]["X"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: projector is not idempotent within tolerance\n"


@pytest.mark.parametrize(
    "section, name, value, message",
    [
        # Each entry is finite, but the trace overflows to inf.
        ("seeds", "a", [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]], "density matrix trace must be finite"),
        # The ket's v v† overflows while the document is parsed.
        ("seeds", "a", [[1e200, 0], [0, 0]], "seeds.a: ket entries must give a finite density matrix"),
        # Hermitian, but MM - M is nan, outside every family.
        (
            "propositions",
            "N",
            [[[1e300, 0], [1e300, 1e300]], [[1e300, -1e300], [1e300, 0]]],
            "projector is not idempotent within tolerance",
        ),
    ],
    ids=["trace-overflow", "ket-overflow", "nan-idempotence"],
)
def test_quantum_build_of_overflowing_entries_exits_2_without_warning(tmp_path, section, name, value, message):
    # A fresh interpreter, since pytest would capture the warnings itself.
    doc = json.loads((FIXTURES / "qzx_quantum.json").read_text(encoding="utf-8"))
    doc[section][name] = value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [sys.executable, "-m", "gqt", "quantum", "build", str(path), "-o", str(tmp_path / "out.json")]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "out.json").exists()


def test_quantum_build_refuses_a_large_ket_before_expanding_it(tmp_path, capsys):
    # The ket's density matrix would take 149 GiB; the 1x1 projector is
    # refused first, so nothing of that size is ever asked for.
    dim = 100_000
    doc = {"dimension": dim, "seeds": {"a": [[1, 0]] + [[0, 0]] * (dim - 1)}, "propositions": {"P": [[[1, 0]]]}}
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["quantum", "build", str(path), "-o", str(tmp_path / "out.json")], capsys)
    assert (code, out, err) == (2, "", f"error: propositions.P: matrix must have {dim} rows\n")
    assert not (tmp_path / "out.json").exists()


def test_quantum_build_help_shows_the_defaults(capsys):
    # The CLI does not import numpy for its help, so it spells the
    # defaults out; they must stay those of `quantum`.
    from gqt import quantum

    assert cli.main(["quantum", "build", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    cap = re.search(r"--cap CAP orbit size cap \(default ([^)\s]+)\)", text)
    tol = re.search(r"--tol TOL numeric tolerance \(default ([^)\s]+)\)", text)
    assert int(cap.group(1)) == quantum.DEFAULT_CAP
    assert float(tol.group(1)) == quantum.DEFAULT_TOL


@pytest.mark.parametrize("tol", ["-1"])
def test_quantum_build_rejects_bad_tol_flag(tmp_path, capsys, tol):
    out_path = tmp_path / "built.json"
    code, out, err = run_cli(["quantum", "build", QZX_Q, f"--tol={tol}", "-o", str(out_path)], capsys)
    assert (code, out) == (2, "")
    assert "error:" in err and "tol must be a finite non-negative number" in err
    assert not out_path.exists()


def test_quantum_build_rejects_nan_document_tolerance(tmp_path, capsys):
    doc = json.loads((FIXTURES / "qzx_quantum.json").read_text(encoding="utf-8"))
    doc["tolerance"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # written as NaN, which json reads back
    code, out, err = run_cli(["quantum", "build", str(path), "-o", str(tmp_path / "out.json")], capsys)
    assert (code, out) == (2, "")
    assert "error: tolerance: must be a finite non-negative number" in err


def test_quantum_build_tolerance_is_absolute(tmp_path, capsys):
    # Tolerances compare raw matrix entries and traces, so their effect
    # depends on the matrix scale; these pin the behaviour on the qubit
    # document, whose normalized states have entries of 0.5 and 1.
    default_path, zero_path = tmp_path / "default.json", tmp_path / "zero.json"
    assert run_cli(["quantum", "build", QZX_Q, "-o", str(default_path)], capsys)[0] == 0
    code, out, _ = run_cli(["quantum", "build", QZX_Q, "--tol", "0", "-o", str(zero_path)], capsys)
    assert code == 0 and "tolerance: 0.000000000" in out
    assert zero_path.read_bytes() == default_path.read_bytes()
    # At 0.5 the X branches of z0 (trace 0.5) collapse to the zero state.
    code, out, err = run_cli(["quantum", "build", QZX_Q, "--tol", "0.5", "-o", str(tmp_path / "half.json")], capsys)
    assert (code, err) == (1, "")
    assert out == (
        "3 violations\n"
        "[consistency] X0: both outcomes are impossible at s0\n"
        "[consistency] X1: both outcomes are impossible at s0\n"
        "[completeness] X: every value is impossible at s0\n"
    )
    assert not (tmp_path / "half.json").exists()
    # At 2 no unit-trace seed exceeds the tolerance.
    code, out, err = run_cli(["quantum", "build", QZX_Q, "--tol", "2", "-o", str(tmp_path / "two.json")], capsys)
    assert (code, out) == (2, "")
    assert "density matrix trace must exceed the tolerance" in err


@pytest.mark.parametrize(
    "tol, shown", [("1e-12", "1e-12"), ("1e-300", "1e-300"), ("1e-9", "0.000000001"), ("0", "0.000000000")]
)
def test_quantum_build_prints_a_tolerance_that_reads_back(tmp_path, capsys, tol, shown):
    code, out, _ = run_cli(["quantum", "build", QZX_Q, "--tol", tol, "-o", str(tmp_path / "built.json")], capsys)
    assert code == 0 and f"\ntolerance: {shown}\n" in out
    assert float(shown) == float(tol)


def test_fuzz_cli(capsys):
    code, out, err = run_cli(["fuzz", "--states", "5", "--props", "3", "--obs", "2", "--seed", "3", "--count", "20"], capsys)
    assert code == 0 and err == ""
    assert "models checked: 20" in out
    assert "violations found: 0" in out
    code, out, _ = run_cli(
        ["fuzz", "--states", "5", "--props", "3", "--obs", "2", "--seed", "3", "--count", "5", "--format", "json"],
        capsys,
    )
    doc = json.loads(out)
    assert doc == {"models": 5, "violations": 0, "first_by_law": {}}


def test_fuzz_json_embeds_each_counterexample_model(capsys, monkeypatch):
    # The generator only emits valid models, so feed fuzz a broken one,
    # whose counterexamples minimize to fewer states than it has.
    clean = checker.generate_model(checker.GeneratorParams(n_states=6, n_props=2, n_obs=1, seed=1))
    broken = mutate_entry(clean, "A0rest", "yes", "s4", ZERO)
    monkeypatch.setattr(checker, "generate_model", lambda params: broken)
    code, out, _ = run_cli(["fuzz", "--count", "2", "--format", "json"], capsys)
    assert code == 1
    doc = json.loads(out)
    summary = checker.fuzz(checker.GeneratorParams(n_states=6), 2)
    assert sorted(doc["first_by_law"]) == sorted(summary.first_by_law) == ["completeness", "consistency"]
    for law, entry in doc["first_by_law"].items():
        model = summary.first_by_law[law].model
        text = json.dumps(entry["model"], indent=2, ensure_ascii=False) + "\n"
        assert text == modelio.serialize_model(model)
        # The payload is read back from the writer, so hold it to the tests' own builder too.
        assert entry["model"] == model_document(model)
        assert len(entry["model"]["states"]) < len(broken.space)


def test_fuzz_json_keeps_the_whole_model_for_a_violation_without_witnesses(capsys, monkeypatch):
    # A compatible pair without a common eigenstate is a violation of the
    # pair, at no state, so there is nothing to shrink the model to.
    force_every_pair_compatible(monkeypatch)
    monkeypatch.setattr(checker, "generate_model", lambda params: make_qzx())
    code, out, _ = run_cli(["fuzz", "--count", "1", "--format", "json"], capsys)
    assert code == 1
    entry = json.loads(out)["first_by_law"]["strongcomp-implies-comp"]
    assert entry["violation"]["witness"] == []
    assert entry["model"] == json.loads((FIXTURES / "qzx.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Determinism and process-level behavior


def test_output_is_byte_deterministic(capsys):
    first = run_cli(["report", BELL], capsys)
    second = run_cli(["report", BELL], capsys)
    assert first == second
    first = run_cli(["fuzz", "--seed", "9", "--count", "10"], capsys)
    second = run_cli(["fuzz", "--seed", "9", "--count", "10"], capsys)
    assert first == second


# One error path per command; `{tmp}` is the test's temporary directory,
# which holds `truncated.json`, the first 150 characters of the qubit model.
EXIT_2_CASES = {
    **{
        f"{command}-truncated": ([command, "{tmp}/truncated.json", *extra], "not valid JSON: line 13")
        for command, extra in (("validate", ()), ("check", ()), ("report", ()), ("eigen", ("--observable", "Z")))
    },
    "measure-unknown-second-step": (
        ["measure", BELL, "--state", "phiP", "--steps", "ZA=0,NOPE=1"],
        "unknown observable 'NOPE'",
    ),
    "entangle-unknown-local": (["entangle", BELL, "--global", "BELL", "--locals", "ZA,NOPE"], "unknown observable 'NOPE'"),
    "entangle-no-locals": (
        ["entangle", BELL, "--global", "BELL", "--locals", ","],
        "error: at least one local observable is required\n",
    ),
    # `{tmp}/subsystems_<name>.json` is the Bell model with the subsystems of SUBSYSTEMS[name].
    **{
        f"validate-subsystems-{name}": (
            ["validate", f"{{tmp}}/subsystems_{name}.json"],
            f"error: partition: {message}\n",
        )
        for name, message in (
            ("none", "partition must name at least one subsystem"),
            ("duplicate", "duplicate subsystem name 'A'"),
            ("empty-name", "subsystem names must be non-empty strings"),
        )
    },
    "quantum-build-no-projectors": (
        ["quantum", "build", "{tmp}/no_projectors.json", "-o", "{tmp}/built.json"],
        "error: propositions: at least one projector is required\n",
    ),
    "fuzz-states-0": (["fuzz", "--states", "0", "--count", "1"], "n_states"),
    "quantum-build-tol-nan": (
        ["quantum", "build", QZX_Q, "--tol=nan", "-o", "{tmp}/built.json"],
        "tol must be a finite non-negative number",
    ),
    **{
        f"quantum-build-cap-{cap}-broken-families": (
            ["quantum", "build", "{tmp}/broken.json", f"--cap={cap}", "-o", "{tmp}/built.json"],
            "orbit cap must be at least 1",
        )
        for cap in (0, -3)
    },
    "quantum-build-entry-too-large": (
        ["quantum", "build", "{tmp}/huge.json", "-o", "{tmp}/built.json"],
        "propositions.Z0[0][0]: complex entries must fit in a float",
    ),
    # A message starting "error: " is the whole of stderr.
    **{
        f"quantum-build-nan-{kind}-seed": (
            ["quantum", "build", f"{{tmp}}/nan_{kind}.json", "-o", "{tmp}/built.json"],
            f"error: {path}: complex entries must be finite\n",
        )
        for kind, path in (("matrix", "seeds.m[1][1]"), ("ket", "seeds.k[1]"))
    },
    "validate-integer-too-long": (["validate", "{tmp}/long.json"], "not valid JSON: an integer has too many digits"),
    "quantum-build-missing-directory": (
        ["quantum", "build", QZX_Q, "-o", "{tmp}/missing/built.json"],
        "No such file or directory",
    ),
    "quantum-build-directory-is-a-file": (
        ["quantum", "build", QZX_Q, "-o", "{tmp}/truncated.json/built.json"],
        "Not a directory",
    ),
    "quantum-build-duplicate-value": (
        ["quantum", "build", "{tmp}/duplicate.json", "-o", "{tmp}/built.json"],
        "observables.Z: observable 'Z': duplicate spectrum value '0'",
    ),
    "quantum-build-output-is-a-directory": (
        ["quantum", "build", QZX_Q, "-o", "{tmp}"],
        "Is a directory",
    ),
    "report-json-unpaired-surrogate": (
        ["report", "{tmp}/surrogate.json", "--format", "json"],
        "states[0]: unpaired surrogate in string",
    ),
    "quantum-build-unpaired-surrogate": (
        ["quantum", "build", "{tmp}/surrogate_quantum.json", "-o", "{tmp}/built.json"],
        "propositions: key 'Z0\\ud800' holds an unpaired surrogate",
    ),
}


SUBSYSTEMS = {"none": [], "duplicate": ["A", "A"], "empty-name": [""]}


@pytest.mark.parametrize("case", sorted(EXIT_2_CASES))
def test_error_exit_leaves_stdout_empty(tmp_path, capsys, monkeypatch, case):
    argv, message = EXIT_2_CASES[case]
    (tmp_path / "truncated.json").write_text((FIXTURES / "qzx.json").read_text(encoding="utf-8")[:150], encoding="utf-8")
    bell = json.loads((FIXTURES / "bell.json").read_text(encoding="utf-8"))
    for name, subsystems in SUBSYSTEMS.items():
        bell["partition"]["subsystems"] = subsystems
        (tmp_path / f"subsystems_{name}.json").write_text(json.dumps(bell), encoding="utf-8")
    doc = json.loads((FIXTURES / "qzx_quantum.json").read_text(encoding="utf-8"))
    (tmp_path / "no_projectors.json").write_text(json.dumps({**doc, "propositions": {}}), encoding="utf-8")
    doc["observables"]["Z"] = {"spectrum": ["0", "0"], "family": {"0": "Z0"}}
    (tmp_path / "duplicate.json").write_text(json.dumps(doc), encoding="utf-8")
    # Z answered by two non-orthogonal projectors: a family report at any good cap.
    doc["observables"]["Z"] = {"spectrum": ["0", "1"], "family": {"0": "Z0", "1": "X0"}}
    (tmp_path / "broken.json").write_text(json.dumps(doc), encoding="utf-8")
    # An entry written as an integer too large for a float.
    doc["propositions"]["Z0"][0][0] = [10**400, 0]
    (tmp_path / "huge.json").write_text(json.dumps(doc), encoding="utf-8")
    # Seeds holding NaN, which json writes as the literal that it reads back.
    doc["propositions"]["Z0"][0][0] = [1, 0]
    nan_seeds = {"matrix": {"m": [[[1, 0], [0, 0]], [[0, 0], [math.nan, 0]]]}, "ket": {"k": [[1, 0], [math.nan, 0]]}}
    for kind, seed in nan_seeds.items():
        (tmp_path / f"nan_{kind}.json").write_text(json.dumps({**doc, "seeds": seed}), encoding="utf-8")
    model = (FIXTURES / "qzx.json").read_text(encoding="utf-8")
    (tmp_path / "long.json").write_text(model.replace("{", '{"n": ' + "9" * 5000 + ",", 1), encoding="utf-8")
    # A state and a projector renamed with a \ud800 escape that nothing pairs.
    for name, old in (("surrogate.json", '"z0"'), ("surrogate_quantum.json", '"Z0"')):
        source = (FIXTURES / name.replace("surrogate", "qzx")).read_text(encoding="utf-8")
        (tmp_path / name).write_text(source.replace(old, old[:-1] + '\\ud800"'), encoding="utf-8")

    def close_orbit(*args, **kwargs):
        raise AssertionError("an error found before the build must not wait for the orbit closure")

    monkeypatch.setattr("gqt.quantum.close_orbit", close_orbit)
    code, out, err = run_cli([a.replace("{tmp}", str(tmp_path)) for a in argv], capsys)
    assert (code, out) == (2, "")
    assert err == message if message.startswith("error: ") else err.startswith("error: ") and message in err
    assert not (tmp_path / "built.json").exists()


# Values a hostile document may hold in place of any field: wrong types,
# unknown names, null, numbers too large for a float, inf and nan.
HOSTILE_VALUES = (
    *(None, True, 0, -1, 2.5, 10**400, 1e400, -1e400, math.nan),
    *("", "nope", "null", "Z0", "z1", [], [[0, 0]], {}, {"a": 1}),
)


def _members(node):
    """Every (container, key) pair in a JSON value."""
    keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield node, key
        yield from _members(node[key])


def hostile_variant(rng: random.Random, text: str) -> str:
    """The document truncated, or with one or two fields deleted, replaced
    by a hostile value, or (in an array, such as the states) repeated."""
    if rng.random() < 0.1:
        return text[: rng.randrange(len(text))]
    doc = json.loads(text)
    for _ in range(rng.randint(1, 2)):
        members = list(_members(doc))
        if not members:
            break
        node, key = rng.choice(members)
        action = rng.random()
        if action < 0.3:
            del node[key]
        elif action < 0.4 and isinstance(node, list):
            node.append(node[key])
        else:
            node[key] = rng.choice(HOSTILE_VALUES)
    return json.dumps(doc)


def test_hostile_documents_exit_cleanly(tmp_path, capsys):
    # Seeded mutations of every shipped fixture, through each command that
    # reads its kind: an exit code of 0-2, never a traceback, and on exit 2
    # one error line on stderr and nothing on stdout.
    rng = random.Random(16)
    commands = (["validate"], ["check"], ["report", "--format", "json"], ["eigen", "--observable", "Z"])
    document = tmp_path / "hostile.json"
    runs = 0
    for fixture in sorted(FIXTURES.glob("*.json")):
        text = fixture.read_text(encoding="utf-8")
        quantum = fixture.name.endswith("_quantum.json")
        for i in range(40 if quantum else 60):
            document.write_text(hostile_variant(rng, text), encoding="utf-8")
            if quantum:
                argv = ["quantum", "build", str(document), "--cap", "64", "-o", str(tmp_path / "built.json")]
            else:
                command = commands[i % len(commands)]
                argv = [command[0], str(document), *command[1:]]
            code, out, err = run_cli(argv, capsys)
            assert code in (0, 1, 2), (argv, document.read_text(encoding="utf-8"))
            if code == 2:
                assert out == "" and re.fullmatch(r"error: [^\n]*\n", err), (err, document.read_text(encoding="utf-8"))
            runs += 1
    assert runs == 2 * 40 + 3 * 60


def test_usage_errors_exit_2(capsys):
    assert run_cli([], capsys)[0] == 2
    assert run_cli(["frobnicate"], capsys)[0] == 2
    assert run_cli(["quantum"], capsys)[0] == 2
    assert run_cli(["eigen", QZX], capsys)[0] == 2  # missing --observable


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gqt", "validate", QZX],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0 violations\n"
    assert proc.stderr == ""


def test_pure_imports_leave_numpy_unloaded():
    code = "import sys, gqt, gqt.cli, gqt.core, gqt.checker, gqt.modelio; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_cli_import_is_light():
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gqt.cli"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "gqt.cli" in imported
    assert not imported & {"dataclasses", "inspect", "gqt.checker", "numpy"}


def test_only_check_and_fuzz_load_the_checker():
    code = f"""
import contextlib, io, sys
from gqt import cli
seen = []
for command in ("validate", "check"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, {QZX!r}])
    seen.append([command, code, "gqt.checker" in sys.modules])
print(seen)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[['validate', 0, False], ['check', 0, True]]\n", "")


# Runs each argv through cli.main in a fresh interpreter in which any
# numpy import fails, and prints [exit code, stdout] per command as JSON.
_RUN_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from gqt import cli
results = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    results.append([code, buf.getvalue()])
print(json.dumps(results))
"""


def test_pure_commands_run_without_numpy(capsys):
    commands = [
        ["validate", QZX],
        ["validate", BELL, "--format", "json"],
        ["check", BELL],
        ["check", BISTABLE, "--format", "json"],
        ["report", QZX],
        ["report", BELL, "--format", "json"],
        ["eigen", BELL, "--observable", "BELL"],
        ["measure", BELL, "--state", "phiP", "--steps", "ZA=0,BELL=phi+"],
        ["entangle", BELL, "--global", "BELL", "--locals", "ZA,ZB"],
        ["fuzz", "--states", "6", "--props", "3", "--obs", "2", "--seed", "5", "--count", "10"],
        ["fuzz", "--seed", "5", "--count", "3", "--format", "json"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_NUMPY, json.dumps(commands)], capture_output=True, text=True
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    blocked = json.loads(proc.stdout)
    for argv, (code, out) in zip(commands, blocked):
        expected = run_cli(argv, capsys)
        assert (code, out) == expected[:2], argv
        assert code == 0 and out, argv
