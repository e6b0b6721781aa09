"""The sources themselves: Python 3.10 parses them, and the package
states the project's version."""

import ast
import re

import pytest

import gqt

from conftest import FIXTURES

ROOT = FIXTURES.parent


def test_sources_parse_as_python_3_10():
    # pyproject.toml requires Python 3.10 or later, and 3.10's grammar
    # refuses later syntax such as `except*`.
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    paths = sorted(p for d in ("src", "scripts", "tests") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_version_is_the_project_version():
    # Read by regex, since Python 3.10 has no tomllib.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)^\[", text, re.M | re.S)[1]
    assert re.search(r'^version = "([^"]*)"$', project, re.M)[1] == gqt.__version__
