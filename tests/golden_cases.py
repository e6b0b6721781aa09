"""The CLI golden cases: each case's argv and how one is run.

Importable without pytest, so that `scripts/crossversion.py` can run the
same cases under an interpreter that has neither pytest nor numpy;
`tests/test_golden_cli.py` holds the pytest side.
"""

import contextlib
import io
from pathlib import Path

from gqt import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
PATHS = {
    "qzx": ROOT / "fixtures" / "qzx.json",
    "bell": ROOT / "fixtures" / "bell.json",
    "bistable": ROOT / "fixtures" / "bistable.json",
    "qzx_quantum": ROOT / "fixtures" / "qzx_quantum.json",
    "bell_quantum": ROOT / "fixtures" / "bell_quantum.json",
    "mutated": GOLDEN / "bell_mutated.json",
}
OBSERVABLES = {"qzx": ("Z", "X"), "bell": ("BELL", "ZA", "ZB"), "bistable": ("PERCEPT", "ATTENTION")}
JSON = ("--format", "json")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for model in ("qzx", "bell", "bistable", "mutated"):
        for command in ("validate", "check", "report"):
            cases[f"{command}-{model}"] = [command, f"{{{model}}}"]
            cases[f"{command}-{model}-json"] = [command, f"{{{model}}}", *JSON]
    for model, names in OBSERVABLES.items():
        for name in names:
            cases[f"eigen-{model}-{name}"] = ["eigen", f"{{{model}}}", "--observable", name]
            cases[f"eigen-{model}-{name}-json"] = ["eigen", f"{{{model}}}", "--observable", name, *JSON]
    measures = {
        "bell": ("phiP", "ZA=0,BELL=phi+"),
        "bell-zero": ("phiP", "ZA=0,ZA=1,BELL=phi+"),
        "qzx": ("z0", "X=+,Z=1,X=-"),
        "bistable": ("u", "PERCEPT=A,ATTENTION=on,PERCEPT=B"),
    }
    for key, (state, steps) in measures.items():
        model = key.split("-")[0]
        cases[f"measure-{key}"] = ["measure", f"{{{model}}}", "--state", state, "--steps", steps]
        cases[f"measure-{key}-json"] = ["measure", f"{{{model}}}", "--state", state, "--steps", steps, *JSON]
    for model, locals_ in (("bell", "ZA,ZB"), ("mutated", "ZA,BELL")):
        cases[f"entangle-{model}"] = ["entangle", f"{{{model}}}", "--global", "BELL", "--locals", locals_]
        cases[f"entangle-{model}-json"] = ["entangle", f"{{{model}}}", "--global", "BELL", "--locals", locals_, *JSON]
    for doc in ("qzx_quantum", "bell_quantum"):
        cases[f"quantum-build-{doc}"] = ["quantum", "build", f"{{{doc}}}", "-o", "{out}"]
    cases["quantum-build-cap"] = ["quantum", "build", "{bell_quantum}", "--cap", "3", "-o", "{out}"]
    fuzz = ["fuzz", "--states", "12", "--props", "5", "--obs", "3", "--seed", "11", "--count", "40"]
    cases["fuzz"] = fuzz
    cases["fuzz-json"] = [*fuzz, *JSON]
    return cases


CASES = _cases()


def run_case(argv: list[str], workdir: Path) -> tuple[int, dict[str, bytes]]:
    """Exit code and output files (`stdout`, plus `model.json` when one is written)."""
    out = workdir / "model.json"
    filled = [a.format(out=out, **PATHS) for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(filled)
    files = {"stdout": buf.getvalue().replace(str(out), "OUT").encode("utf-8")}
    if out.exists():
        files["model.json"] = out.read_bytes()
    return code, files


def golden_files(name: str) -> dict[str, bytes]:
    """The committed output files of case `name`, by suffix."""
    return {p.name[len(name) + 1 :]: p.read_bytes() for p in GOLDEN.glob(f"{name}.*")}
