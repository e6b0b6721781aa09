"""The sources themselves: Python 3.10 parses them, the package states
the project's version, and each library module defines exactly the
public names that the README lists for it."""

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


LIBRARY_MODULES = ("core", "quantum", "modelio", "checker", "errors")


def public_names(source):
    """Each module-level `def`, `class` or assignment target of a module's
    source whose name has no leading underscore; imports do not count."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return sorted(name for name in names if not name.startswith("_"))


def readme_library_lists():
    """Module -> the names in backticks on the list lines under its line
    "`gqt.<module>`...:" in the README's Library section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Library$(.*?)^## ", text, re.M | re.S)[1]
    lists, module = {}, None
    for line in section.splitlines():
        header = re.fullmatch(r"`gqt\.(\w+)`[^`]*:", line)
        if header:
            module = header[1]
            lists[module] = []
        elif module and line.startswith(("- ", "  ")):
            lists[module] += re.findall(r"`([A-Za-z_]\w*)`", line)
        elif line:
            module = None
    return {module: sorted(names) for module, names in lists.items()}


def test_public_names_are_the_readme_library_lists():
    lists = readme_library_lists()
    assert sorted(lists) == sorted(LIBRARY_MODULES)
    for module in LIBRARY_MODULES:
        source = (ROOT / "src" / "gqt" / f"{module}.py").read_text(encoding="utf-8")
        assert public_names(source) == lists[module], module


def test_public_names_count_definitions_and_assignments_only():
    source = "import os\nfrom x import y as z\nA = _b = 1\nc: int = 2\ndef f(): pass\nclass K: pass\ndef _g(): pass\n"
    assert public_names(source) == ["A", "K", "c", "f"]
