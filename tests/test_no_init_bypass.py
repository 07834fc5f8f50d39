"""Every object of the package is made by its constructor.

A class's ``__init__`` or ``__post_init__`` checks what it is built from
(``DenseNet`` its parameter layout, ``GeneratorParams`` the constraint set
Theta), so an instance made through ``object.__new__`` would skip that check.
The check reads the source: a module under ``src/noisedistill`` fails it when
it calls ``object.__new__``.  ``object.__setattr__``, which a frozen
dataclass's ``__post_init__`` needs to set its fields, stays allowed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "noisedistill"


def bypasses(tree):
    """Line of each ``object.__new__`` call in ``tree``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__new__" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object"):
            yield node.lineno


def violations(package=PACKAGE):
    return [f"{path.name}:{line}: object.__new__"
            for path in sorted(package.glob("*.py"))
            for line in bypasses(ast.parse(path.read_text()))]


def test_no_module_makes_an_object_without_its_constructor():
    assert not violations(), "build the object through its constructor"


def test_check_flags_object_new_and_allows_object_setattr(tmp_path):
    (tmp_path / "a.py").write_text("class A:\n    def copy(self):\n        return object.__new__(A)\n")
    (tmp_path / "b.py").write_text("x = [object.__new__(dict)]\n")
    (tmp_path / "clean.py").write_text(
        "from dataclasses import dataclass\n\n@dataclass(frozen=True)\nclass P:\n    u: float\n\n"
        "    def __post_init__(self):\n        object.__setattr__(self, 'u', float(self.u))\n")
    assert violations(tmp_path) == ["a.py:3: object.__new__", "b.py:1: object.__new__"]
