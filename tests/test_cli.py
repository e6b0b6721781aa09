"""Command-line contract: output shapes, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from gqt import checker, cli, core, modelio
from gqt.core import ZERO

from conftest import FIXTURES, make_qzx, mutate_entry

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


def test_entangle_checks_preconditions_once(capsys, monkeypatch):
    # One classification for the locals on different subsystems, one for
    # the global against each local.
    calls = []
    classify_pair = core.classify_pair
    monkeypatch.setattr(core, "classify_pair", lambda a, b: calls.append((a.name, b.name)) or classify_pair(a, b))
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
    big = f"{1e300:.9f}"
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
        text = json.dumps(entry["model"], indent=2, ensure_ascii=False) + "\n"
        assert text == modelio.serialize_model(summary.first_by_law[law].model)
        assert len(entry["model"]["states"]) < len(broken.space)


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


@pytest.mark.parametrize("case", sorted(EXIT_2_CASES))
def test_error_exit_leaves_stdout_empty(tmp_path, capsys, monkeypatch, case):
    argv, message = EXIT_2_CASES[case]
    (tmp_path / "truncated.json").write_text((FIXTURES / "qzx.json").read_text(encoding="utf-8")[:150], encoding="utf-8")
    doc = json.loads((FIXTURES / "qzx_quantum.json").read_text(encoding="utf-8"))
    doc["observables"]["Z"] = {"spectrum": ["0", "0"], "family": {"0": "Z0"}}
    (tmp_path / "duplicate.json").write_text(json.dumps(doc), encoding="utf-8")
    # Z answered by two non-orthogonal projectors: a family report at any good cap.
    doc["observables"]["Z"] = {"spectrum": ["0", "1"], "family": {"0": "Z0", "1": "X0"}}
    (tmp_path / "broken.json").write_text(json.dumps(doc), encoding="utf-8")
    # An entry written as an integer too large for a float.
    doc["propositions"]["Z0"][0][0] = [10**400, 0]
    (tmp_path / "huge.json").write_text(json.dumps(doc), encoding="utf-8")
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
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "built.json").exists()


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
