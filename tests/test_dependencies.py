"""The package imports exactly the third-party modules it declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "noisedistill"


def imported_top_levels(path):
    """Top-level names of the absolute imports in ``path``, function-local ones included."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_third_party_imports_are_the_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", spec).group().lower().replace("-", "_")
                for spec in project["dependencies"]}
    imported = {name for path in PACKAGE.rglob("*.py") for name in imported_top_levels(path)
                if name not in sys.stdlib_module_names and name != PACKAGE.name}
    assert imported == declared
