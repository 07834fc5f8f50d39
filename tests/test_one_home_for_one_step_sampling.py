"""One-step sampling has one home, ``distill.one_step_samples``.

It draws the latents and guards the samples (``guard_samples``), so every
one-step sample set the program makes (the eval hook, ``eval``'s generator
row, ``sample --sampler one_step``, the distill snapshots and plot) fails the
same way on a blown-up generator.  The check reads the source: a module other
than ``distill.py`` fails it when it calls ``generator_forward``, by its bare
name or as a module attribute.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "noisedistill"
HOME = "distill.py"
NAME = "generator_forward"


def calls(tree):
    """Line of each call of ``NAME`` in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == NAME) or (
                    isinstance(func, ast.Attribute) and func.attr == NAME):
                yield node.lineno


def violations(package=PACKAGE):
    return [f"{path.name}:{line}"
            for path in sorted(package.glob("*.py")) if path.name != HOME
            for line in calls(ast.parse(path.read_text()))]


def test_only_distill_calls_generator_forward():
    assert not violations(), "sample a generator with distill.one_step_samples"


def test_check_flags_each_call_outside_the_home(tmp_path):
    patterns = {
        "a.py": "from .distill import generator_forward\nx = generator_forward(net, z, s)\n",
        "b.py": "from . import distill\n\ndef f():\n    return distill.generator_forward(net, z, s)\n",
        "clean.py": "from .distill import one_step_samples\nx = one_step_samples(net, s, 8, rng)\n",
    }
    for name, source in patterns.items():
        (tmp_path / name).write_text(source)
    (tmp_path / HOME).write_text("".join(patterns.values()))
    assert violations(tmp_path) == ["a.py:2", "b.py:4"]
