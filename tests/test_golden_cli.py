"""Byte goldens of CLI output: stdout and exit code of every command.

Each case runs `cli.main` in-process and compares its exit code and the
exact bytes of its stdout (and, for `quantum build`, of the written
model) with files under `tests/golden/`.  The temporary output path of
`quantum build` is printed as `OUT`.  `golden/bell_mutated.json` is a
committed input: the Bell fixture with three redirected map entries and
BELL also tagged local, so that validate, check and entangle all report.

To regenerate after an intended output change, from the repository root:
    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from golden_cases import CASES, GOLDEN, golden_files, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    code, files = run_case(CASES[name], tmp_path)
    assert code == codes[name]
    assert files == golden_files(name)


def test_every_golden_has_a_case():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert sorted(codes) == sorted(CASES)


def _write_goldens() -> None:
    codes = {}
    for name, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            codes[name], files = run_case(argv, Path(tmp))
        for suffix, data in files.items():
            (GOLDEN / f"{name}.{suffix}").write_bytes(data)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(_write_goldens())
