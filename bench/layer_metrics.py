"""Per-layer metrics of the traced run, and the workload each must show work on.

Each row: metric name, unit, better, kind, span, the workloads on which the
span must record calls (a missed binding would otherwise read as "no work"),
and the end-to-end metric it should move.  Kinds:

* ``p50`` / ``self_p50``: median per-call duration / self time (ms);
* ``pass_ms`` / ``pass_calls`` / ``pass_bytes`` / ``pass_iters``: per traced
  pass totals, median over traced passes;
* ``call_ms`` / ``call_bytes``: per-call median over every traced call,
  set-up included (checkpoint writes and config loads happen there too);
* the rest are ratios or values computed below.

Unless a kind says otherwise, only spans of traced passes count.
"""

from __future__ import annotations

from statistics import median

from tracer import COUNTS, OK, PARENT, VERIFY_CHECKS, SpanStats

P, S, V = "pipeline", "sampling", "verify"

TABLE = [
    # name, unit, better, kind, span, workloads, moves
    ("nets.forward_cached.ms_p50", "ms", "lower", "p50", "nets.forward_cached", (P,), "pretrain/distill steps"),
    ("nets.forward.ms_p50", "ms", "lower", "p50", "nets.forward", (S,), "sample points/s, eval"),
    ("nets.backward.ms_p50", "ms", "lower", "p50", "nets.backward", (P,), "pretrain/distill steps"),
    ("nets.adam_step.ms_p50", "ms", "lower", "p50", "nets.adam_step", (P,), "pretrain steps"),
    ("nets.silu.share", "ratio", "lower", "silu_share", "nets.silu", (S,), "sample points/s"),
    ("nets.silu_grad.share", "ratio", "lower", "silu_grad_share", "nets.silu_grad", (P,), "pretrain steps"),
    ("nets.backward.calls_per_distill_step", "count", "lower", "backward_per_gen", "distill.generator_update",
     (P,), "distill steps"),
    ("nets.gflop_s", "GFLOP/s", "higher", "gflop_s", "nets.forward_cached", (P, S), "pipeline and sampling wall"),
    ("nets.ops_per_byte", "flop/B", "higher", "ops_per_byte", "nets.forward_cached", (P, S), "computed"),
    ("diffusion.denoising_loss.self_ms_p50", "ms", "lower", "self_p50", "diffusion.denoising_loss", (P,),
     "pretrain steps"),
    ("diffusion.ambient_sample.ms", "ms", "lower", "pass_ms", "diffusion.ambient_sample", (S,),
     "sample points/s, eval"),
    ("diffusion.save_checkpoint.ms", "ms", "lower", "call_ms", "diffusion.save_checkpoint", (P, S), "wall"),
    ("diffusion.save_checkpoint.bytes", "B", "lower", "call_bytes", "diffusion.save_checkpoint", (P, S), "wall"),
    ("diffusion.load_checkpoint.ms", "ms", "lower", "call_ms", "diffusion.load_checkpoint", (P, S), "wall"),
    ("distill.fake_update.ms_p50", "ms", "lower", "p50", "distill.fake_update", (P,), "distill steps"),
    ("distill.generator_update.ms_p50", "ms", "lower", "p50", "distill.generator_update", (P,), "distill steps"),
    *((f"distill.generator_update.{m}.ms_p50", "ms", "lower", "stage", m, (P,), "distill steps")
      for m in ("sds", "dmd", "sid")),
    ("metrics.eval_hook.ms_p50", "ms", "lower", "p50", "metrics.eval_hook", (P,), "distill steps"),
    ("metrics.eval_hook.calls", "count", "lower", "pass_calls", "metrics.eval_hook", (P,), "distill steps"),
    ("metrics.evaluate_sources.ms", "ms", "lower", "pass_ms", "metrics.evaluate_sources", (P, S), "eval"),
    ("metrics.frechet_gaussian.ms_p50", "ms", "lower", "p50", "metrics.frechet_gaussian", (S,), "eval"),
    ("gaussians.fit_gaussian.ms_p50", "ms", "lower", "p50", "gaussians.fit_gaussian", (S,), "eval"),
    ("metrics.gen_frechet_clean", "1", "lower", "quality", "generator", (P, S), "quality guard"),
    ("metrics.noisy_frechet_clean", "1", "lower", "quality", "raw_noisy", (P, S), "quality reference"),
    ("config.write_csv_atomic.ms", "ms", "lower", "pass_ms", "config.write_csv_atomic", (P, S), "wall"),
    ("config.write_csv_atomic.bytes", "B", "lower", "pass_bytes", "config.write_csv_atomic", (P, S), "wall"),
    ("config.write_csv_atomic.calls", "count", "lower", "pass_calls", "config.write_csv_atomic", (P, S), "wall"),
    ("config.load_config.ms", "ms", "lower", "call_ms", "config.load_config", (P, S, V), "setup"),
    ("cli.pretrain.steps_per_s", "steps/s", "higher", "rate", "pretrain", (P,), "pipeline wall"),
    ("cli.distill.steps_per_s", "steps/s", "higher", "rate", "distill", (P,), "pipeline wall"),
    ("cli.sample_full.points_per_s", "points/s", "higher", "rate", "sample_full", (S,), "sampling wall"),
    ("cli.eval.ms", "ms", "lower", "op_ms", "eval", (P, S), "pipeline and sampling wall"),
    ("schedule.quadrature.calls", "count", "lower", "pass_calls", "schedule.quadrature", (V,), "verify wall"),
    ("schedule.quadrature.ms", "ms", "lower", "pass_ms", "schedule.quadrature", (V,), "verify wall"),
    ("linear_theory.loss_closed_form.calls", "count", "lower", "pass_calls", "linear_theory.loss_closed_form",
     (V,), "verify wall"),
    ("linear_theory.loss_closed_form.ms", "ms", "lower", "pass_ms", "linear_theory.loss_closed_form", (V,),
     "verify wall"),
    ("linear_theory.loss_monte_carlo.ms", "ms", "lower", "pass_ms", "linear_theory.loss_monte_carlo", (V,),
     "verify wall"),
    ("stiefel.optimize.iters", "count", "lower", "pass_iters", "stiefel.optimize", (V,), "verify wall"),
    ("stiefel.linesearch.accept_ratio", "ratio", "higher", "accept_ratio", "stiefel.riemannian_step", (V,),
     "verify wall"),
    ("stiefel.euclidean_gradient.ms_p50", "ms", "lower", "p50", "stiefel.euclidean_gradient", (V,),
     "verify wall"),
    *((f"verify.{c}.ms", "ms", "lower", "pass_ms", f"verify.{c}", (V,), "verify wall") for c in VERIFY_CHECKS),
    ("trace.overhead_frac", "ratio", "lower", "overhead", None, (), "none: cost of tracing"),
]


def _ms(seconds):
    return 1e3 * seconds


def _p50(values):
    return median(values) if values else 0.0


def compute(workload, all_stats, pass_stats, extra):
    """Every per-layer metric, and the names of those that show no work on their mapped workload.

    ``all_stats`` covers every traced span (set-up included), ``pass_stats`` is
    one ``SpanStats`` per traced pass, and ``extra`` holds the values measured
    outside the tracer: ``stage`` (ms per estimator), ``rates``, ``op_ms``,
    ``quality`` and ``overhead``.
    """
    # Untraced passes record no spans, so the range from the first traced pass
    # to the last covers exactly the traced passes.
    pooled = SpanStats(all_stats.spans, pass_stats[0].lo, pass_stats[-1].hi)
    values, missing = {}, []

    def per_pass(fn):
        return median(fn(st) for st in pass_stats)

    for name, unit, better, kind, span, workloads, _ in TABLE:
        calls = None
        if kind == "p50":
            value, calls = _ms(_p50(pooled.dur.get(span, []))), pooled.calls(span)
        elif kind == "self_p50":
            value, calls = _ms(_p50(pooled.self_time.get(span, []))), pooled.calls(span)
        elif kind == "call_ms":
            value, calls = _ms(_p50(all_stats.dur.get(span, []))), all_stats.calls(span)
        elif kind == "call_bytes":
            sizes = [(all_stats.spans[i][COUNTS] or {}).get("bytes", 0) for i in all_stats.index.get(span, [])]
            value, calls = float(_p50(sizes)), all_stats.calls(span)
        elif kind == "pass_ms":
            value, calls = _ms(per_pass(lambda st: st.total(span))), pooled.calls(span)
        elif kind == "pass_calls":
            value = float(per_pass(lambda st: st.calls(span)))
            calls = value
        elif kind == "pass_bytes":
            value, calls = per_pass(lambda st: st.count_sum(span, "bytes")), pooled.calls(span)
        elif kind == "pass_iters":
            value, calls = per_pass(lambda st: st.count_sum(span, "iters")), pooled.calls(span)
        elif kind == "silu_share":
            fwd = pooled.total("nets.forward_cached")
            value, calls = (pooled.total(span) / fwd if fwd else 0.0), pooled.calls(span)
        elif kind == "silu_grad_share":
            bwd = pooled.total("nets.backward")
            value, calls = (pooled.total(span) / bwd if bwd else 0.0), pooled.calls(span)
        elif kind == "backward_per_gen":
            inside = sum(1 for i in pooled.index.get("nets.backward", [])
                         if pooled.has_ancestor(i, "distill.generator_update"))
            calls = pooled.calls(span)
            value = inside / calls if calls else 0.0
        elif kind in ("gflop_s", "ops_per_byte"):
            names = ("nets.forward_cached", "nets.backward")
            flops = sum(pooled.count_sum(n, "flops") for n in names)
            if kind == "gflop_s":
                busy = sum(pooled.total(n) for n in names)
                value = flops / busy / 1e9 if busy else 0.0
            else:
                nbytes = sum(pooled.count_sum(n, "bytes") for n in names)
                value = flops / nbytes if nbytes else 0.0
            calls = pooled.calls(span)
        elif kind == "accept_ratio":
            attempts = pooled.children("stiefel.retract", span)
            parents = {pooled.spans[i][PARENT] for i in attempts}
            accepted = sum(1 for p in parents if pooled.spans[p][OK])
            value, calls = (accepted / len(attempts) if attempts else 0.0), len(attempts)
        elif kind == "stage":
            value = extra["stage"].get(span, 0.0)
        elif kind == "rate":
            value = extra["rates"].get(span, 0.0)
        elif kind == "op_ms":
            value = extra["op_ms"].get(span, 0.0)
        elif kind == "quality":
            value = extra["quality"].get(span, 0.0)
        elif kind == "overhead":
            value = extra["overhead"]
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
        values[name] = {"value": float(value), "unit": unit}
        if workload in workloads and not (calls if calls is not None else value):
            missing.append(name)
    return values, missing

