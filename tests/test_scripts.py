"""The scripts run to completion against the current library; the harnesses pass."""

import os
import subprocess
import sys

import pytest

from conftest import FIXTURES

ROOT = FIXTURES.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/commutation_survey.py", "--trials", "30"],
        ["scripts/orbit_scale.py", "--angles", "0.9", "--tol", "1e-6", "--mub-caps", "40", "--repeats", "1"],
        ["scripts/json_payloads.py", "--sizes", "8", "--repeats", "1"],
        ["scripts/law_kernels.py", "--sizes", "8", "256", "--repeats", "1"],
        ["scripts/crossversion.py"],
        ["scripts/mutants.py", "--check"],
        ["scripts/mutants.py", "--only", "common-eigenstate-law-inverted"],
        ["scripts/ab.py", ".", "--rounds", "2", "--inputs", "4"],
    ],
    ids=[
        "commutation_survey",
        "orbit_scale",
        "json_payloads",
        "law_kernels",
        "crossversion",
        "mutants_check",
        "mutant",
        "ab",
    ],
)
def test_script_exits_cleanly(argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert proc.stdout
