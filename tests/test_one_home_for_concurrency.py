"""Threads and processes have one home, ``parallel.py``.

Every other module of the package reaches them through ``parallel.map_groups``
and ``parallel.map_processes``, whose contracts (results in item order, every
worker finished or reaped before the call returns, the same bytes on any CPU
count) are tested in one place.  The check reads the source: a module other
than ``parallel.py`` fails it when it imports ``threading``,
``concurrent.futures`` or ``multiprocessing`` (or a submodule), or calls or
imports ``os.fork`` or ``os.register_at_fork``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "noisedistill"
HOME = "parallel.py"
MODULES = ("threading", "concurrent.futures", "multiprocessing")
OS_NAMES = ("os.fork", "os.register_at_fork")


def is_banned(name):
    return name in OS_NAMES or any(name == m or name.startswith(m + ".") for m in MODULES)


def banned_uses(tree):
    """``(line, dotted name)`` of each banned import or call in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = ([node.module] if is_banned(node.module)
                     else [f"{node.module}.{alias.name}" for alias in node.names])
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)):
            names = [f"{node.func.value.id}.{node.func.attr}"]
        else:
            continue
        yield from ((node.lineno, name) for name in names if is_banned(name))


def violations(package=PACKAGE):
    return [f"{path.name}:{line}: {name}"
            for path in sorted(package.glob("*.py")) if path.name != HOME
            for line, name in banned_uses(ast.parse(path.read_text()))]


def test_threads_and_processes_live_only_in_parallel():
    assert not violations(), "use parallel.map_groups or parallel.map_processes"


def test_check_flags_each_pattern_outside_the_home(tmp_path):
    patterns = {
        "a.py": "import threading\n",
        "b.py": "from concurrent.futures import ThreadPoolExecutor\n",
        "c.py": "from concurrent import futures\n",
        "d.py": "import multiprocessing.pool\n",
        "e.py": "import os\n\ndef f():\n    return os.fork()\n",
        "f.py": "import os\nos.register_at_fork(after_in_child=print)\n",
        "g.py": "from os import fork\n",
        "clean.py": "import os\nfrom . import parallel\nos.getpid()\nparallel.map_processes(len, [1])\n",
    }
    for name, source in patterns.items():
        (tmp_path / name).write_text(source)
    (tmp_path / HOME).write_text("".join(patterns.values()))
    assert violations(tmp_path) == [
        "a.py:1: threading",
        "b.py:1: concurrent.futures",
        "c.py:1: concurrent.futures",
        "d.py:1: multiprocessing.pool",
        "e.py:4: os.fork",
        "f.py:2: os.register_at_fork",
        "g.py:1: os.fork",
    ]
