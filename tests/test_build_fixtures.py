"""scripts/build_fixtures.py reproduces the shipped fixtures byte for byte."""

import importlib.util

import pytest

from gqt import modelio

from conftest import FIXTURES

SCRIPT = FIXTURES.parent / "scripts" / "build_fixtures.py"


@pytest.fixture(scope="module")
def build_fixtures():
    spec = importlib.util.spec_from_file_location("build_fixtures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["qzx", "bell", "bistable"])
def test_script_reproduces_shipped_fixture(build_fixtures, name):
    if name == "bistable":
        model = build_fixtures.bistable_model()
    else:
        references = getattr(build_fixtures, f"{name}_references")()
        model = build_fixtures.build_from_document(FIXTURES / f"{name}_quantum.json", references)
    assert modelio.serialize_model(model).encode("utf-8") == (FIXTURES / f"{name}.json").read_bytes()
