#!/usr/bin/env python3
"""Benchmark of noisedistill, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload {pipeline,sampling,verify} --seed N --seconds S --trace {0,1}

The program is used from source (``./src``) and driven only through
``noisedistill.cli.main`` in-process, with configs generated from ``--seed``
(see ``workloads.py``).  BLAS is pinned to one thread.  One client issues the
workload's commands one after another (a closed loop); every command must
exit 0 and leave finite, parsable artifacts, and every pass of one seed must
write byte-identical artifacts (sha256 digest).

``--trace 0`` sets up the workload three times (``setup_s`` is the median),
warms up, then repeats the command sequence for ``--seconds`` and reports the
median pass as ``wall_s``.  Pass times are scaled to a reference speed of the
shared host by ``speed.py``; the raw pass walls and the scale factors are
printed on the record line.  ``--trace 1`` alternates untraced and traced
passes for ``--seconds`` and reports the per-layer metrics of
``layer_metrics.py`` plus the tracing overhead (command-level rates and the
overhead from scaled pass times, span times raw); spans are written to
``.bench_work/<workload>/spans.jsonl``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the machine and
library versions and the artifact digest.
"""

import argparse
import contextlib
import copy
import dataclasses
import gc
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from statistics import median

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is first imported
    os.environ[_var] = "1"

import layer_metrics  # noqa: E402
import workloads as wl  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import SpanStats, Tracer  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = ".bench_work"  # relative, so generated configs and artifacts do not depend on the checkout path
SETUP_REPS = 3
STAGE_WARMUP, STAGE_REPS = 5, 40
WORKLOADS = ("pipeline", "sampling", "verify")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Plan:
    """A workload's set-up commands and the command sequence of one pass."""

    def __init__(self, workload, seed, root):
        self.workload, self.seed, self.root = workload, seed, root
        passes = os.path.join(root, "pass")
        self.setup_ops = []
        if workload == "pipeline":
            self.ops = wl.pipeline_ops(seed, passes, wl.PIPELINE_STEPS)
        elif workload == "sampling":
            build = os.path.join(root, "build")
            self.setup_ops = wl.pipeline_ops(seed, build, wl.SAMPLING_BUILD)[:2]  # pretrain, distill
            self.ops = wl.sampling_ops(seed, passes, build, wl.SAMPLING_STEPS)
        else:
            self.ops = wl.verify_ops(seed, passes, wl.VERIFY_FULL)


class Client:
    """One closed-loop client: runs CLI commands in-process, one after another, and checks each."""

    def __init__(self, cli):
        self.cli = cli
        self.ctx = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)

    def run(self, op):
        self.attempted += 1
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(op.argv())
        except Exception as exc:  # a traceback out of the CLI is a failed command
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        result = None
        if code == 0:
            try:
                result = op.check(self.ctx)
            except (wl.CheckFailed, OSError, ValueError, KeyError) as exc:
                code = f"output check: {exc}"
        if code != 0:
            self.fail(f"{op.name}: {code} | {sink.getvalue()[-300:]}")
        # Each command would run in a fresh process; collecting the previous one's
        # cyclic garbage keeps peak memory from depending on when the collector ran.
        gc.collect()
        return seconds, result

    def run_pass(self, ops):
        """Run the commands on fresh output directories; returns per-command seconds and check results."""
        wl.reset_dirs(ops)
        seconds, results = {}, {}
        for op in ops:
            seconds[op.name], results[op.name] = self.run(op)
        return seconds, results

    def run_scaled_pass(self, ops, probe):
        """``run_pass`` timed against the probe: per-command seconds at the reference speed,
        check results, the raw pass wall and the speed factor."""
        lo = probe.mark()
        seconds, results = self.run_pass(ops)
        raw = sum(seconds.values())
        factor = probe.factor(lo, probe.mark())
        return {name: s / factor for name, s in seconds.items()}, results, raw, factor


def measure_import():
    """Seconds for a fresh interpreter to start and import the CLI."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import noisedistill.cli"], env=env, cwd=ROOT,
                   check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start


def set_up(plan, client, nd):
    """Generate and validate every config, build the dataset and any input checkpoints."""
    for op in plan.setup_ops + plan.ops:
        op.write_config()
        nd.config.load_config(op.config_path)
    if plan.workload != "verify":
        data = nd.toydata.make_dataset(wl.RING["kind"], wl.RING["n"], wl.RING["sigma_data"], plan.seed)
        client.ctx["dataset"] = [tuple(p) for p in data.points.tolist()]
    client.run_pass(plan.setup_ops)
    return wl.digest(plan.setup_ops)


def timed_set_up(plan, client, nd):
    seconds = measure_import()
    start = time.perf_counter()
    digest = set_up(plan, client, nd)
    return seconds + time.perf_counter() - start, digest


def check_digests(client, digests, what):
    if len(set(digests)) > 1:
        client.fail(f"{what} artifacts differ between repeats of one seed: {sorted(set(digests))}")


def rates(plan, seconds):
    """Command-level throughputs of one untraced pass."""
    work = {op.name: op.work for op in plan.ops}
    out = {}
    if "pretrain" in seconds:
        out["pretrain"] = work["pretrain"] / seconds["pretrain"]
        out["distill"] = work["distill"] / seconds["distill"]
    if "sample_full" in seconds:
        out["sample_full"] = work["sample_full"] / seconds["sample_full"]
    return out


def stage_table(state, nd):
    """Median ms of one generator update per estimator, on one distillation state at its batch size."""
    out = {}
    rng = nd.rng.make_rng(state.cfg.seed)
    for method in ("sds", "dmd", "sid"):
        st = copy.deepcopy(state)
        st.cfg = dataclasses.replace(state.cfg, method=method)
        times = []
        for i in range(STAGE_WARMUP + STAGE_REPS):
            start = time.perf_counter()
            nd.distill.generator_update(st, rng)
            if i >= STAGE_WARMUP:
                times.append(time.perf_counter() - start)
        out[method] = 1e3 * median(times)
    return out


def run_untraced(plan, client, nd, args):
    setups = [timed_set_up(plan, client, nd) for _ in range(SETUP_REPS)]
    check_digests(client, [d for _, d in setups], "set-up")
    client.run_pass(plan.ops)  # warm-up: the first pass runs slower
    walls, raws, factors, digests = [], [], [], [wl.digest(plan.ops)]
    probe = SpeedProbe()
    probe.start()
    start = time.perf_counter()
    try:
        while True:
            seconds, _, raw, factor = client.run_scaled_pass(plan.ops, probe)
            walls.append(sum(seconds.values()))
            raws.append(raw)
            factors.append(factor)
            digests.append(wl.digest(plan.ops))
            if time.perf_counter() - start + median(raws) > args.seconds:
                break
    finally:
        probe.stop()
    check_digests(client, digests, "pass")
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": median(s for s, _ in setups), "unit": "s"},
        "wall_s": {"value": median(walls), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mib, "unit": "MiB"},
    }
    return metrics, {"passes": len(walls), "digest": digests[0], "walls_s": walls, "raw_walls_s": raws,
                     "speed_factors": factors, "setups_s": [s for s, _ in setups]}


def run_traced(plan, client, nd, args):
    set_up(plan, client, nd)
    client.run_pass(plan.ops)  # warm-up: the first pass runs slower
    digests = [wl.digest(plan.ops)]

    tracer = Tracer()
    bindings = tracer.install()
    for name, found in bindings.items():
        if not found:
            client.fail(f"tracer found no binding of {name}")
    set_up(plan, client, nd)  # traced: checkpoint writes and config loads of set-up
    tracer.uninstall()
    tracer.last_result.clear()  # the stage table uses a distillation state of a timed pass

    untraced, traced, ranges, raws = [], [], [], []
    op_rates, op_ms, quality = [], [], {}
    probe = SpeedProbe()
    probe.start()
    start = time.perf_counter()
    try:
        while True:
            seconds, results, raw, _ = client.run_scaled_pass(plan.ops, probe)
            untraced.append(sum(seconds.values()))
            raws.append(raw)
            digests.append(wl.digest(plan.ops))
            op_rates.append(rates(plan, seconds))
            op_ms.append({name: 1e3 * s for name, s in seconds.items()})
            quality = results.get("eval") or {}

            tracer.install()
            lo = tracer.mark()
            seconds, _, raw, _ = client.run_scaled_pass(plan.ops, probe)
            ranges.append((lo, tracer.mark()))
            tracer.uninstall()
            traced.append(sum(seconds.values()))
            raws.append(raw)
            digests.append(wl.digest(plan.ops))
            if time.perf_counter() - start + median(raws) * 2 > args.seconds:
                break
    finally:
        probe.stop()
    check_digests(client, digests, "pass")

    state = tracer.last_result.get("distill.run_distillation")
    extra = {
        "stage": stage_table(state[0], nd) if state else {},
        "rates": {k: median(r[k] for r in op_rates) for k in op_rates[0]},
        "op_ms": {k: median(r[k] for r in op_ms) for k in op_ms[0]},
        "quality": quality,
        "overhead": median(traced) / median(untraced) - 1.0,
    }
    all_stats = SpanStats(tracer.spans, 0, len(tracer.spans))
    pass_stats = [SpanStats(tracer.spans, lo, hi) for lo, hi in ranges]
    metrics, missing = layer_metrics.compute(plan.workload, all_stats, pass_stats, extra)
    for name in missing:
        client.fail(f"per-layer metric {name} shows no work on {plan.workload}")
    tracer.write(os.path.join(plan.root, "spans.jsonl"))
    return metrics, {"passes": len(traced), "digest": digests[0], "spans": len(tracer.spans),
                     "walls_untraced_s": untraced, "walls_traced_s": traced}


def environment(np):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "dtype": "float64",
        "processes": 1,
    }


def main(argv=None):
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "noisedistill", "__init__.py")) or not os.path.isfile(spec_path):
        print("bench: run from the repository root; src/noisedistill and BENCHMARK.json are required",
              file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import numpy as np
    import noisedistill.cli as cli
    import noisedistill as nd

    root = os.path.join(WORK, args.workload)
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    plan = Plan(args.workload, args.seed, root)
    client = Client(cli)
    runner = run_traced if args.trace else run_untraced
    metrics, info = runner(plan, client, nd, args)

    expected = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if {name: m["unit"] for name, m in metrics.items()} != expected:
        client.fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(expected)}")
    for message in client.errors:
        print(f"bench: FAILED {message}", file=sys.stderr)
    defects = sorted(client.ctx.get("defects", ()))
    for message in defects:
        print(f"bench: program defect: {message}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment(np), "defects": defects, **info}
    with open(os.path.join(root, "result.json"), "w") as fh:
        json.dump({**record, "metrics": metrics, "errors": client.errors}, fh, indent=1)
    record["failed_frac"] = client.failed / client.attempted
    print(json.dumps(record))
    print(json.dumps({"correct": client.failed == 0, "attempted": client.attempted,
                      "failed": client.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
