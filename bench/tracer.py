"""Layer-boundary tracer: spans around the calls into noisedistill's public functions.

The tracer lives outside the package.  ``install`` wraps each target function
in every namespace that bound it by name (the home module, every module that
did ``from .x import f``, and module-level dispatch dicts such as
``distill._GRAD_FNS``); methods are wrapped on their class.  Each call records
a span ``[name, start, end, parent, ok, counts]`` in memory; ``uninstall``
restores the originals.  Self time is a span's duration minus the time its
direct children cover.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

BYTES_PER_FLOAT = 8  # the nets run in float64


def _matmul_shapes(net):
    return list(zip(net.layer_sizes[:-1], net.layer_sizes[1:]))


def forward_counts(args, kwargs, result):
    """Computed matmul flops and bytes of one forward pass (x @ W.T per layer)."""
    net, x = args[0], args[1]
    n = np.atleast_2d(np.asarray(x)).shape[0]
    flops = sum(2 * n * fi * fo for fi, fo in _matmul_shapes(net))
    nbytes = sum(BYTES_PER_FLOAT * (n * fi + fi * fo + n * fo) for fi, fo in _matmul_shapes(net))
    return {"flops": flops, "bytes": nbytes}


def backward_counts(args, kwargs, result):
    """Computed matmul flops and bytes of one backward pass (dW and delta @ W per layer)."""
    net = args[0]
    upstream = args[2] if len(args) > 2 else kwargs["upstream"]
    n = np.atleast_2d(np.asarray(upstream)).shape[0]
    flops = sum(4 * n * fi * fo for fi, fo in _matmul_shapes(net))
    nbytes = sum(BYTES_PER_FLOAT * 2 * (n * fo + n * fi + fi * fo) for fi, fo in _matmul_shapes(net))
    return {"flops": flops, "bytes": nbytes}


def file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def optimize_iters(args, kwargs, result):
    _, trace = result
    return {"iters": trace.iters[-1]}


VERIFY_CHECKS = (
    "check_woodbury",
    "check_w2_bures",
    "check_eigen_residual",
    "check_trace_bound",
    "check_profile_minimizer",
    "check_profile_convexity",
    "check_gap_identity",
    "check_closed_vs_monte_carlo",
    "check_minimizer_optimality",
    "check_descent_recovery",
    "check_von_neumann",
    "check_sample_fit_roundtrip",
)

# (span name, home module, attribute or Class.method, counts callback)
TARGETS = [
    ("nets.silu", "nets", "silu", None),
    ("nets.silu_grad", "nets", "silu_grad", None),
    ("nets.forward", "nets", "DenseNet.forward", None),
    ("nets.forward_cached", "nets", "DenseNet.forward_cached", forward_counts),
    ("nets.backward", "nets", "DenseNet.backward", backward_counts),
    ("nets.adam_step", "nets", "Adam.step", None),
    ("diffusion.denoising_loss", "diffusion", "denoising_loss", None),
    ("diffusion.pretrain", "diffusion", "pretrain", None),
    ("diffusion.ambient_sample", "diffusion", "ambient_sample", None),
    ("diffusion.save_checkpoint", "diffusion", "save_checkpoint", file_bytes),
    ("diffusion.load_checkpoint", "diffusion", "load_checkpoint", None),
    ("distill.run_distillation", "distill", "run_distillation", None),
    ("distill.fake_update", "distill", "fake_update", None),
    ("distill.generator_update", "distill", "generator_update", None),
    ("distill.generator_forward", "distill", "generator_forward", None),
    ("metrics.make_eval_hook", "metrics", "make_eval_hook", None),
    ("metrics.evaluate_sources", "metrics", "evaluate_sources", None),
    ("metrics.frechet_gaussian", "metrics", "frechet_gaussian", None),
    ("metrics.proximal_fid", "metrics", "proximal_fid", None),
    ("gaussians.fit_gaussian", "gaussians", "fit_gaussian", None),
    ("config.load_config", "config", "load_config", None),
    ("config.write_csv_atomic", "config", "write_csv_atomic", file_bytes),
    ("schedule.quadrature", "schedule", "NoiseSchedule.quadrature", None),
    ("linear_theory.loss_closed_form", "linear_theory", "loss_closed_form", None),
    ("linear_theory.loss_monte_carlo", "linear_theory", "loss_monte_carlo", None),
    ("stiefel.optimize", "stiefel", "optimize", optimize_iters),
    ("stiefel.riemannian_step", "stiefel", "riemannian_step", None),
    ("stiefel.retract", "stiefel", "retract", None),
    ("stiefel.euclidean_gradient", "stiefel", "euclidean_gradient", None),
    *((f"verify.{name}", "verify", name, None) for name in VERIFY_CHECKS),
]

# Functions that return a closure which is itself a layer boundary.
RESULT_SPANS = {"metrics.make_eval_hook": "metrics.eval_hook"}
# Spans whose latest result is kept, for measurements after the traced passes.
KEEP_RESULT = {"distill.run_distillation"}

NAME, START, END, PARENT, OK, COUNTS = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (setter, original) pairs, undone in reverse
        self.last_result = {}

    def wrap(self, name, fn, counts=None):
        spans, stack = self.spans, self._stack
        result_span = RESULT_SPANS.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[OK] = True
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span[COUNTS] = counts(args, kwargs, result)
            if name in KEEP_RESULT:
                self.last_result[name] = result
            if result_span is not None:
                result = self.wrap(result_span, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target in every namespace that bound it; returns binding counts."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "noisedistill" or n.startswith("noisedistill."))]
        bindings = {}
        for name, home, attr, counts in TARGETS:
            owner = sys.modules[f"noisedistill.{home}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(lambda v, c=cls, m=meth: setattr(c, m, v), original,
                          self.wrap(name, original, counts))
                bindings[name] = 1
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, counts)
            found = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(lambda v, o=mod, k=key: setattr(o, k, v), original, wrapped)
                        found += 1
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for dkey, dval in list(value.items()):
                            if dval is original:
                                self._set(lambda v, d=value, k=dkey: d.__setitem__(k, v),
                                          original, wrapped)
                                found += 1
            bindings[name] = found
        return bindings

    def _set(self, setter, original, wrapped):
        setter(wrapped)
        self._patches.append((setter, original))

    def uninstall(self):
        while self._patches:
            setter, original = self._patches.pop()
            setter(original)

    def mark(self) -> int:
        return len(self.spans)

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent id, ok, counts."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "ok": s[OK], "counts": s[COUNTS]}) + "\n")


class SpanStats:
    """Per-name aggregates over a slice of spans [lo, hi)."""

    def __init__(self, spans, lo, hi):
        self.spans = spans
        self.lo, self.hi = lo, hi
        child_time = {}
        for i in range(lo, hi):
            s = spans[i]
            if s[PARENT] >= lo:
                child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[END] - s[START]
        self.dur, self.self_time, self.index = {}, {}, {}
        for i in range(lo, hi):
            s = spans[i]
            d = s[END] - s[START]
            self.dur.setdefault(s[NAME], []).append(d)
            self.self_time.setdefault(s[NAME], []).append(d - child_time.get(i, 0.0))
            self.index.setdefault(s[NAME], []).append(i)

    def calls(self, name) -> int:
        return len(self.dur.get(name, ()))

    def total(self, name) -> float:
        return float(sum(self.dur.get(name, ())))

    def count_sum(self, name, key) -> float:
        return float(sum((self.spans[i][COUNTS] or {}).get(key, 0) for i in self.index.get(name, ())))

    def has_ancestor(self, i, name) -> bool:
        p = self.spans[i][PARENT]
        while p >= self.lo:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def children(self, name, parent_name):
        return [i for i in self.index.get(name, ())
                if self.spans[i][PARENT] >= self.lo and self.spans[self.spans[i][PARENT]][NAME] == parent_name]
