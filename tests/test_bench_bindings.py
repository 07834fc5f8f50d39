"""Every function the benchmark tracer wraps still exists in the package.

``bench/tracer.py`` names its targets as (span, home module, attribute or
``Class.method``); a deleted or renamed target fails here instead of in a
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_exists():
    missing = []
    for span, home, attr, _ in load_tracer().TARGETS:
        owner = importlib.import_module(f"noisedistill.{home}")
        if "." in attr:  # the tracer wraps a method in its class's own namespace
            cls_name, meth = attr.split(".")
            found = meth in getattr(getattr(owner, cls_name, None), "__dict__", {})
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{span}: noisedistill.{home}.{attr}")
    assert not missing, f"tracer targets missing from the package: {missing}"
