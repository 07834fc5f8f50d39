"""Every part of the package that the benchmark reaches into still fits it.

``bench/tracer.py`` names its targets as (span, home module, attribute or
``Class.method``), ``bench/run.py``'s stage table rebuilds a distillation
state, and its workloads write configs for the CLI; a deleted or renamed
target, a reshaped state, or a config the schema rejects fails here instead of
in a benchmark run.
"""

import importlib
import importlib.util
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import noisedistill
from noisedistill import config, nets, parallel, stiefel, verify
from noisedistill.distill import DistillConfig, run_distillation
from noisedistill.linear_theory import GeneratorParams, LinearModel, loss_closed_form
from noisedistill.nets import DenseNet
from noisedistill.rng import derive
from noisedistill.schedule import NoiseSchedule

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


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


def test_battery_runs_every_traced_check_once(monkeypatch):
    """The tracer times each verify row through its ``check_*`` name, and the
    benchmark counts the rows; a dropped or renamed check fails here."""
    called = []

    def stub(name):
        def check(*args, **kwargs):
            called.append(name)
            return verify.CheckResult(name, 0.0, 0.0, True)
        return check

    names = load_tracer().VERIFY_CHECKS
    for name in names:
        monkeypatch.setattr(verify, name, stub(name))
    rows = verify.run_verification(dim=4, rank=1, sigma=0.3, seed=0, schedule=NoiseSchedule())
    assert len(rows) == len(names)
    assert sorted(called) == sorted(names)


def test_forward_reaches_forward_cached_once_with_the_whole_batch(monkeypatch):
    """The tracer counts forward flops on ``DenseNet.forward_cached``; a forward
    that bypassed it, or split the batch across calls, would hide the work."""
    calls = []
    original = DenseNet.forward_cached

    def spy(self, x, sigma, keep_cache=True):
        calls.append(np.atleast_2d(x).shape[0])
        return original(self, x, sigma, keep_cache)

    monkeypatch.setattr(DenseNet, "forward_cached", spy)
    net = DenseNet.initialized([3, 8, 8, 2], derive(0, 1))
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
    net = DenseNet.initialized([3, 8, 8, 2], derive(0, 1))
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
    net = DenseNet.initialized([3, 8, 6, 5, 2], derive(0, 1))
    _, cache = net.forward_cached(np.zeros((7, 2)), 0.5)
    net.backward(cache, np.ones((7, 2)))
    net.backward(cache, np.ones((7, 2)), params=False)
    assert calls == [(7, 5), (7, 6), (7, 8)] * 2  # hidden layers, last to first


def test_line_search_reaches_retract_through_the_module_name_once_per_trial_step(monkeypatch):
    """``stiefel.linesearch.accept_ratio`` counts the ``stiefel.retract`` spans
    under ``riemannian_step``, one per trial step, a step that the V^T V floor
    rejects included.  Here the full step zeroes a column of V, so the line
    search tries the step and its half."""
    calls = []
    retract = stiefel.retract

    def retract_spy(*args, **kwargs):
        calls.append(1)
        return retract(*args, **kwargs)

    m = LinearModel(basis=retract(np.zeros((6, 2)), derive(0, 1).standard_normal((6, 2))), sigma=0.5)
    p = GeneratorParams(u=m.basis, v=2.0 * m.basis)
    dv = 4.0 * p.v * [1.0, 0.0]
    sched = NoiseSchedule()
    monkeypatch.setattr(stiefel, "retract", retract_spy)
    _, step, _ = stiefel.riemannian_step(m, p, (np.zeros_like(p.u), dv), float(np.sum(dv * dv)), sched, 0.25,
                                         loss_closed_form(m, p, sched))
    assert step == 0.125
    assert len(calls) == 2


def test_descent_reaches_the_loss_and_gradient_through_the_module_name(monkeypatch):
    """The tracer wraps ``loss_closed_form`` and ``euclidean_gradient`` where
    ``stiefel`` bound them; the verify trace's ``linear_theory.loss_closed_form.*``
    and ``stiefel.euclidean_gradient.*`` metrics need one ``optimize`` call to
    look up the loss once at its start and once per trial step that passes
    the V^T V floor, and the gradient once per iterate.  Each line-search
    trial computes one spectrum, in the constructor of its params."""
    counts = {"loss_closed_form": 0, "euclidean_gradient": 0, "retract": 0, "eigvalsh": 0, "passed": 0}

    def spy_on(owner, name):
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    def params_spy(**fields):
        p = GeneratorParams(**fields)
        counts["passed"] += bool(p.spectrum[0] >= stiefel.VTV_FLOOR)
        return p

    for name in ("loss_closed_form", "euclidean_gradient", "retract"):
        spy_on(stiefel, name)
    spy_on(np.linalg, "eigvalsh")
    monkeypatch.setattr(stiefel, "GeneratorParams", params_spy)
    m = LinearModel(basis=stiefel.retract(np.zeros((8, 2)), derive(0, 1).standard_normal((8, 2))), sigma=0.5)
    p0 = stiefel.random_params(8, 2, seed=1000)
    counts.update(retract=0, eigvalsh=0, passed=0)  # random_params' own QR and params
    _, trace = stiefel.optimize(m, p0, NoiseSchedule(), 2000)
    assert counts["euclidean_gradient"] == len(trace.iters) > 1
    assert counts["loss_closed_form"] == 1 + counts["passed"]
    assert len(trace.iters) - 1 <= counts["passed"] <= counts["retract"]
    assert counts["eigvalsh"] == counts["retract"]


@pytest.fixture
def bench_run(monkeypatch):
    """``bench/run.py`` as a module, loaded with ``bench/`` on ``sys.path``.
    The BLAS thread variables it sets on import, ``sys.path`` and the bench
    modules it imports are restored afterwards."""
    environ, modules = dict(os.environ), set(sys.modules)
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        os.environ.clear()
        os.environ.update(environ)
        for name in set(sys.modules) - modules:
            if Path(getattr(sys.modules[name], "__file__", None) or "").parent == BENCH:
                del sys.modules[name]


def test_stage_table_times_every_estimator_on_a_distillation_state(bench_run):
    """``stage_table`` deep-copies the state ``run_distillation`` returns, swaps
    the estimator with ``dataclasses.replace`` and times generator updates."""
    teacher = DenseNet.initialized([3, 4, 2], derive(0, 1))
    cfg = DistillConfig(mode="adjusted", sigma_hat=0.1, schedule=NoiseSchedule(0.05, 2.0), seed=0,
                        steps=2, batch_size=8, eval_every=1)
    result = run_distillation(teacher, cfg, eval_hook=lambda state: {},
                              loss_limit=1e6)
    times = bench_run.stage_table(result[0], noisedistill)
    assert sorted(times) == ["dmd", "sds", "sid"]
    assert all(np.isfinite(ms) and ms > 0 for ms in times.values())


@pytest.mark.parametrize("workload", ["pipeline", "sampling", "verify"])
def test_every_benchmark_config_is_accepted(workload, bench_run, tmp_path):
    """Every config ``bench/run.py`` writes passes the schema, so a schema
    change that would reject one fails here instead of in a benchmark run."""
    plan = bench_run.Plan(workload, 1, str(tmp_path))
    for op in [*plan.setup_ops, *plan.ops]:
        op.write_config()
        config.load_config(op.config_path, expected_kind=op.cfg["kind"])
