"""Every function in the package is reached by the program, not by tests alone.

The check reads the source, not the running program.  A module-level function
or a method counts as reached when its name is used (called, passed or looked
up, not imported) by package or benchmark code that is itself reached: module-
level statements, the benchmark scripts, and the bodies of reached functions.
A name inside a string (the benchmark tracer's targets, such as
``"DenseNet.forward_cached"``) counts as a use.  Names are matched without
types, so two methods of one name share a verdict.  A class's dunder methods
(``__init__``, ``__post_init__``) are filed under the class name, since
calling the class runs them.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "noisedistill"
BENCH = ROOT / "bench"

# Kept although only tests reach them (ROADMAP, "Left on purpose").
ALLOWED = {
    "get_flat": "the flat parameter view behind every finite-difference test",
    "set_flat": "the flat parameter view behind every finite-difference test",
    "n_params": "the length of that flat view",
}
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def used_names(node):
    """Names that ``node``'s subtree uses: loaded names, attributes and dotted
    identifier strings.  Import statements bind names and use none."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if DOTTED_NAME.fullmatch(sub.value):
                names.update(sub.value.split("."))
    return names


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(name, def node) of each module-level function and each method of a
    module-level class; a dunder method goes by its class's name."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((node.name if is_dunder(item.name) else item.name, item)
                        for item in node.body if isinstance(item, FUNCTIONS))


def import_time_code(tree):
    """The statements a module runs when imported, bar the imports: everything
    outside function bodies, class bodies included."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if not isinstance(item, FUNCTIONS))
        elif not isinstance(node, (*FUNCTIONS, ast.Import, ast.ImportFrom)):
            yield node


def unreached_functions(package=PACKAGE, bench=BENCH):
    """``module.name`` of each package function that no reached package or
    benchmark code uses."""
    defs = []  # (module, name, def node)
    reached = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs += [(path.stem, name, node) for name, node in definitions(tree)]
        for node in import_time_code(tree):
            reached |= used_names(node)
    for path in sorted(bench.glob("*.py")):
        reached |= used_names(ast.parse(path.read_text()))
    grown = True
    while grown:
        grown = False
        for _, name, node in defs:
            if name in reached and not used_names(node) <= reached:
                reached |= used_names(node)
                grown = True
    return sorted({f"{module}.{name}" for module, name, _ in defs if name not in reached})


def test_every_function_is_reached_by_the_program():
    unreached = [name for name in unreached_functions() if name.split(".")[-1] not in ALLOWED]
    assert not unreached, f"reached only by tests (or by nothing): {unreached}"


def test_allowlist_holds_only_unreached_functions():
    """An allowed name that the program starts to use should leave the list."""
    unreached = {name.split(".")[-1] for name in unreached_functions()}
    assert set(ALLOWED) <= unreached


def test_check_flags_a_function_only_a_test_calls(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "mod.py").write_text(
        "from .other import helper\n"
        "def run():\n    return used()\n"
        "def used():\n    return 1\n"
        "def test_only():\n    return chained()\n"
        "def chained():\n    return 2\n"
        "def traced():\n    return 3\n"
        "class Net:\n    def forward(self):\n        return 4\n"
        "    def orphan(self):\n        return 5\n"
        "class Params:\n    def __post_init__(self):\n        validate()\n"
        "class Unused:\n    def __post_init__(self):\n        only_unused()\n"
        "def validate():\n    return 7\n"
        "def only_unused():\n    return 8\n"
        "RUN = run\n"
        "PARAMS = Params()\n"
    )
    (package / "other.py").write_text("def helper():\n    return 6\n")
    (bench / "tracer.py").write_text('TARGETS = ["mod.traced", "Net.forward"]\n')
    assert unreached_functions(package, bench) == [
        "mod.Unused", "mod.chained", "mod.only_unused", "mod.orphan", "mod.test_only", "other.helper"]
