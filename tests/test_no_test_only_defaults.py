"""Every default in the package is one that the program both takes and overrides.

A default that every program call overrides is dead weight, and the parameter
should be required; a default that no program call overrides makes the
parameter a knob that only tests turn.  The check reads the source, not the
running program.  For each defaulted parameter of a module-level function, a
method, a class's ``__init__`` or the ``__init__`` that ``@dataclass``
generates (one parameter per annotated field, in field order; a field
declared ``field(..., init=False)`` is none), it collects the calls by name
(``f(...)`` or ``obj.f(...)``; ``Cls(...)`` for ``Cls.__init__``) in package and
benchmark code, and asks whether some call sets the parameter (by keyword or by
position) and some call leaves it out.  Names are matched without types, as in
``test_no_test_only_code.py``.

``from_section(build, section, **fixed)`` counts as a call of ``build``.  It
always sets the ``fixed`` keywords and the constant keys of a dict-literal
section.  The rest of the section is config data that may set any other
parameter or none, so the call counts twice: once with the section empty and
once with it full.

Skipped, because their calls cannot be read off the call sites: functions
and classes that code uses as values other than as ``from_section``'s first
argument (dispatch dicts, ``parallel.map_groups`` arguments; naming a class in
an annotation or an ``except`` clause does not count either), calls that
unpack ``*args`` or ``**kwargs``, other dunder methods (called through syntax)
and functions with no program call at all (the other guard's business).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "noisedistill"
BENCH = ROOT / "bench"

ALLOWED = {}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# The positional count of a call that sets every parameter: a full config section.
EVERY = float("inf")


def definitions(tree):
    """(the name callers call it by, positional parameter names as callers
    number them, defaulted names) of each module-level function, each method
    of a module-level class and each ``__init__`` that ``@dataclass``
    generates; a class's ``__init__`` is called by the class name."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node.name, *parameters(node, bound=False)
        elif isinstance(node, ast.ClassDef):
            if any(called_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                   for d in node.decorator_list):
                yield node.name, *dataclass_fields(node)
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    yield node.name if item.name == "__init__" else item.name, *parameters(item, not static)


def parameters(node, bound):
    """(positional parameter names, as callers number them; defaulted names)."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional[1:] if bound else positional, defaulted


def dataclass_fields(node):
    """(``__init__`` parameter names, defaulted names) of a dataclass: its
    annotated fields in order, less those declared ``field(..., init=False)``."""
    positional, defaulted = [], []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        keywords = {}
        if isinstance(value, ast.Call) and called_name(value.func) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            if isinstance(keywords.get("init"), ast.Constant) and keywords["init"].value is False:
                continue
        positional.append(item.target.id)
        if value is not None and (not keywords or {"default", "default_factory"} & set(keywords)):
            defaulted.append(item.target.id)
    return positional, defaulted


def called_name(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def calls_and_values(trees):
    """{name: [(positional count, keyword names)]} of the plain calls and the
    ``from_section`` targets, and the names used as values (loaded other than
    as the callee of a call, as ``from_section``'s first argument, in an
    annotation or as an exception type that an ``except`` clause catches)."""
    calls, not_values, loads = {}, set(), []
    for tree in trees:
        for node in ast.walk(tree):
            annotations = ([node.returns] if isinstance(node, FUNCTIONS)
                           else [node.annotation] if isinstance(node, (ast.arg, ast.AnnAssign)) else [])
            for annotation in filter(None, annotations):
                not_values.update(id(n) for n in ast.walk(annotation))
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                not_values.update(id(n) for n in ast.walk(node.type))
            elif isinstance(node, ast.Call):
                not_values.add(id(node.func))
                name = called_name(node.func)
                splat = (any(isinstance(a, ast.Starred) for a in node.args)
                         or any(k.arg is None for k in node.keywords))
                if name is None or splat:
                    continue
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append((len(node.args), keywords))
                if name == "from_section":
                    build, section = node.args
                    not_values.add(id(build))
                    if isinstance(section, ast.Dict):
                        keywords |= {k.value for k in section.keys if isinstance(k, ast.Constant)}
                    calls.setdefault(called_name(build), []).extend([(0, keywords), (EVERY, keywords)])
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                loads.append(node)
    values = {called_name(node) for node in loads if id(node) not in not_values}
    return calls, values


def default_findings(package=PACKAGE, bench=BENCH):
    """``name(param)`` of each defaulted parameter that every program call
    sets, or that none does."""
    parsed = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]
    program = parsed + [ast.parse(path.read_text()) for path in sorted(bench.glob("*.py"))]
    calls, values = calls_and_values(program)
    findings = []
    for tree in parsed:
        for name, positional, defaulted in definitions(tree):
            if name in values or name not in calls or (name.startswith("__") and name.endswith("__")):
                continue
            for param in defaulted:
                index = positional.index(param) if param in positional else len(positional)
                sets = [param in keywords or n_args > index for n_args, keywords in calls[name]]
                if all(sets) or not any(sets):
                    findings.append(f"{name}({param})")
    return sorted(findings)


def test_every_default_is_both_taken_and_overridden_by_the_program():
    findings = [f for f in default_findings() if f not in ALLOWED]
    assert not findings, f"defaults that every program call sets, or that none does: {findings}"


def test_allowlist_holds_only_findings():
    """An allowed default that the program starts to take should leave the list."""
    assert set(ALLOWED) <= set(default_findings())


def test_check_flags_defaults_that_all_or_no_calls_set(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "mod.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, c=2, *, d=3):\n    return a\n"
        "def g(x, y=0):\n    return x\n"
        "def h(x, y=0):\n    return x\n"
        "def from_section(build, section, **fixed):\n    return build(**section, **fixed)\n"
        "def make(size, width=1, depth=2):\n    return size\n"
        "class Net:\n"
        "    def step(self, grads, scale=1.0):\n        return grads\n"
        "    def __init__(self, size=4):\n        self.size = size\n"
        "    def __eq__(self, other, strict=False):\n        return strict\n"
        "class Stop(RuntimeError):\n"
        "    def __init__(self, message, info=None, state=None):\n        self.info = info\n"
        "@dataclass(frozen=True)\n"
        "class Cfg:\n"
        "    name: str\n    seed: int = 0\n    rate: float = 0.1\n"
        "    log: list = field(default_factory=list, init=False)\n"
        "@dataclass\n"
        "class Trace:\n"
        "    steps: list = field(default_factory=list, init=False)\n    done: bool = False\n"
        "def run(net, section: dict, cfg: Cfg) -> Cfg:\n"
        "    f(1, 5)\n    f(1, d=4)\n    net.step([], 2.0)\n    net.step([], scale=3.0)\n"
        "    h(*[1, 2])\n    Net()\n    Net(8)\n    net.__eq__(net, True)\n"
        "    from_section(make, section, size=1, width=2)\n"
        "    from_section(Cfg, {'seed': 1, **section}, name='a')\n"
        "    Trace()\n    Trace(True)\n"
        "    try:\n        raise Stop('a', {})\n    except Stop:\n        raise Stop('b', info={}, state=1)\n"
        "    return TABLE['g'](1)\n"
        "TABLE = {'g': g}\n"
    )
    (bench / "run.py").write_text("from mod import f\nf(0, 1, d=2)\n")
    assert default_findings(package, bench) == ["Cfg(seed)", "Stop(info)", "f(c)", "make(width)",
                                                "step(scale)"]
