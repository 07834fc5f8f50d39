"""Every function the benchmark tracer wraps still exists in the package.

``bench/tracer.py`` names its targets as (span, home module, attribute or
``Class.method``); a deleted or renamed target fails here instead of in a
benchmark run.
"""

import importlib
import importlib.util
import threading
from pathlib import Path

import numpy as np

from noisedistill import nets, parallel
from noisedistill.nets import DenseNet
from noisedistill.rng import derive

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


def test_forward_reaches_forward_cached_once_with_the_whole_batch(monkeypatch):
    """The tracer counts forward flops on ``DenseNet.forward_cached``; a forward
    that bypassed it, or split the batch across calls, would hide the work."""
    calls = []
    original = DenseNet.forward_cached

    def spy(self, x, sigma, keep_cache=True):
        calls.append(np.atleast_2d(x).shape[0])
        return original(self, x, sigma, keep_cache)

    monkeypatch.setattr(DenseNet, "forward_cached", spy)
    net = DenseNet([3, 8, 8, 2], derive(0, 1))
    net.forward(np.zeros((3000, 2)), 0.5)
    assert calls == [3000]


def test_forward_worker_threads_reach_silu_through_the_module_name(monkeypatch):
    """The tracer wraps ``nets.silu`` in the module namespace; ``nets.silu.share``
    needs every block's SiLU, the ones worker threads run included, to go
    through that name."""
    monkeypatch.setattr(parallel, "CPUS", 2)
    silu_threads, cached_rows = [], []
    silu, forward_cached = nets.silu, DenseNet.forward_cached

    def silu_spy(*args, **kwargs):
        silu_threads.append(threading.get_ident())
        return silu(*args, **kwargs)

    def forward_cached_spy(self, x, sigma, keep_cache=True):
        cached_rows.append(np.atleast_2d(x).shape[0])
        return forward_cached(self, x, sigma, keep_cache)

    monkeypatch.setattr(nets, "silu", silu_spy)
    monkeypatch.setattr(DenseNet, "forward_cached", forward_cached_spy)
    net = DenseNet([3, 8, 8, 2], derive(0, 1))
    net.forward(np.zeros((3 * nets.ROW_BLOCK + 5, 2)), 0.5)
    assert len(silu_threads) == 2 * 3  # hidden layers x blocks
    assert len(set(silu_threads)) == 2  # the caller and one worker
    assert cached_rows == [3 * nets.ROW_BLOCK + 5]


def test_backward_reaches_silu_grad_through_the_module_name(monkeypatch):
    """The tracer wraps ``nets.silu_grad`` in the module namespace, and a
    ``nets.silu_grad.share`` with no calls fails the trace run; ``backward``
    must look the name up there once per hidden layer, with or without dW."""
    calls = []
    silu_grad = nets.silu_grad

    def silu_grad_spy(*args, **kwargs):
        calls.append(args[0].shape)
        return silu_grad(*args, **kwargs)

    monkeypatch.setattr(nets, "silu_grad", silu_grad_spy)
    net = DenseNet([3, 8, 6, 5, 2], derive(0, 1))
    _, cache = net.forward_cached(np.zeros((7, 2)), 0.5)
    net.backward(cache, np.ones((7, 2)))
    net.backward(cache, np.ones((7, 2)), params=False)
    assert calls == [(7, 5), (7, 6), (7, 8)] * 2  # hidden layers, last to first
