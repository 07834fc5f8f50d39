"""The package imports exactly the third-party modules it declares, and the
tests import only what the package or its ``test`` extra declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "noisedistill"
TESTS = ROOT / "tests"
PYPROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())
PROJECT = PYPROJECT["project"]


def imported_top_levels(path):
    """Top-level names of the absolute imports in ``path``, function-local ones included."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def third_party_imports(directory, own):
    """Top-level names imported under ``directory`` that are neither stdlib nor in ``own``."""
    return {name for path in directory.rglob("*.py") for name in imported_top_levels(path)
            if name not in sys.stdlib_module_names and name not in own}


def declared(specs):
    """Module names of the requirement ``specs``."""
    return {re.match(r"[\w.-]+", spec).group().lower().replace("-", "_") for spec in specs}


def test_third_party_imports_are_the_declared_dependencies():
    assert third_party_imports(PACKAGE, {PACKAGE.name}) == declared(PROJECT["dependencies"])


def test_tests_import_only_declared_modules():
    own = {PACKAGE.name} | {path.stem for path in TESTS.rglob("*.py")}
    allowed = declared(PROJECT["dependencies"]) | declared(PROJECT["optional-dependencies"]["test"])
    assert third_party_imports(TESTS, own) <= allowed


def test_the_version_has_one_home():
    """pyproject.toml reads the version from ``noisedistill.__version__``, the
    copy that every artifact's provenance embeds."""
    assert "version" not in PROJECT and PROJECT["dynamic"] == ["version"]
    assert PYPROJECT["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "noisedistill.__version__"}
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    assigned = [node.value.value for node in init.body if isinstance(node, ast.Assign)
                and [target.id for target in node.targets] == ["__version__"]]
    assert len(assigned) == 1 and isinstance(assigned[0], str)
