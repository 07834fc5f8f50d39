"""The three benchmark workloads: generated configs, command sequences and output checks.

Every workload is a closed loop: one client in one process issues CLI
commands one after another through ``noisedistill.cli.main``.  Configs are
generated from the benchmark seed; sizes are fixed per workload.

* ``pipeline``: pretrain -> distill (SiD) -> eval on ring data, the paper's
  main job.  Small-batch forward, backward and Adam dominate.
* ``sampling``: the full, truncated and one-step samplers at 16 384 points,
  then eval with both checkpoints.  Forward-only at large batch; the
  checkpoints it reads are built during set-up.
* ``verify``: the linear-Gaussian oracle battery with the README config.  The
  exact sandbox does all the work and the nets do none.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import shutil

RING = {"kind": "ring", "n": 1024, "sigma_data": 0.05}
SCHEDULE = {"sigma_min": 0.035, "sigma_max": 1.0}
HIDDEN = [96, 96, 96]
LAYERS = [3, *HIDDEN, 2]  # 2-D data plus the noise-level channel
N_EVAL = 16384

# Sizes of one timed pass, and of the checkpoints the sampling set-up builds.  Passes
# are short so that a run holds many of them: on a shared machine the speed drifts
# by 10-20% within seconds, and the median of many passes is what stays steady.
PIPELINE_STEPS = {"pretrain": 200, "distill": 100, "eval_every": 50, "sample_steps": 12}
SAMPLING_BUILD = {"pretrain": 100, "distill": 20, "eval_every": 20, "n_eval": 2048, "sample_steps": 2}
SAMPLING_STEPS = {"n": 16384, "steps": 16, "eval_steps": 12}
VERIFY_FULL = {"seeds": 20, "mc_instances": 20, "mc_samples": 100000}


class CheckFailed(Exception):
    """An artifact is missing, unparsable, non-finite or wrong."""


# -- config generation -------------------------------------------------------


def _pretrain_cfg(seed, steps):
    return {"version": 1, "kind": "pretrain", "seed": seed, "dataset": RING, "schedule": SCHEDULE,
            "train": {"batch_size": 512, "lr": 1e-3, "steps": steps, "sigma_hat": 0.05,
                      "mode": "ambient", "hidden": HIDDEN}}


def _distill_cfg(seed, teacher, steps, eval_every, n_eval):
    return {"version": 1, "kind": "distill", "seed": seed, "dataset": RING, "schedule": SCHEDULE,
            "distill": {"teacher": teacher, "method": "sid", "mode": "adjusted", "alpha": 1.2,
                        "lr_fake": 2e-3, "lr_gen": 1.5e-4, "steps": steps, "batch_size": 256,
                        "sigma_hat": 0.05, "eval_every": eval_every, "weighting": "sigma2"},
            "eval": {"n_eval": n_eval, "sample_steps": 12}}


def _eval_cfg(seed, teacher, generator, sample_steps):
    return {"version": 1, "kind": "eval", "seed": seed, "dataset": RING, "schedule": SCHEDULE,
            "eval": {"teacher": teacher, "generator": generator, "n_eval": N_EVAL,
                     "sample_steps": sample_steps}}


def _sample_cfg(seed, source, sampler, n, steps):
    sec = {"source": source, "sampler": sampler, "n": n}
    if sampler != "one_step":
        sec["steps"] = steps
    return {"version": 1, "kind": "sample", "seed": seed, "sample": sec}


def _verify_cfg(seed, sizes):
    return {"version": 1, "kind": "verify", "seed": seed,
            "linear": {"dim": 8, "rank": 2, "sigma": 0.5, "opt": {"seeds": sizes["seeds"]},
                       "mc_instances": sizes["mc_instances"], "mc_samples": sizes["mc_samples"]},
            "schedule": {"sigma_min": 0.02, "sigma_max": 5.0}}


# -- operations --------------------------------------------------------------


class Op:
    """One CLI command: its config, output directory and the check of its artifacts."""

    def __init__(self, name, cfg, out, check, work=0):
        self.name, self.cfg, self.out, self.check, self.work = name, cfg, out, check, work
        self.config_path = None

    def write_config(self):
        """Write the config next to the output directory, outside what a pass resets."""
        config_dir = os.path.join(os.path.dirname(self.out), "configs")
        os.makedirs(config_dir, exist_ok=True)
        self.config_path = os.path.join(config_dir, f"{os.path.basename(self.out)}.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.cfg, fh, indent=1)

    def argv(self):
        return [self.cfg["kind"].replace("_", "-"), "--config", self.config_path, "--out", self.out]


def pipeline_ops(seed, root, sizes):
    teacher = os.path.join(root, "teacher")
    student = os.path.join(root, "distill")
    teacher_ckpt = os.path.join(teacher, "teacher.json")
    generator_ckpt = os.path.join(student, "generator.json")
    n_evals = len(range(0, sizes["distill"] + 1, sizes["eval_every"])) + (
        sizes["distill"] % sizes["eval_every"] != 0)
    return [
        Op("pretrain", _pretrain_cfg(seed, sizes["pretrain"]), teacher,
           lambda ctx: check_pretrain(teacher, sizes["pretrain"], ctx), sizes["pretrain"]),
        Op("distill", _distill_cfg(seed, teacher_ckpt, sizes["distill"], sizes["eval_every"],
                                      sizes.get("n_eval", N_EVAL)),
           student, lambda ctx: check_distill(student, n_evals), sizes["distill"]),
        Op("eval", _eval_cfg(seed, teacher_ckpt, generator_ckpt, sizes["sample_steps"]),
           os.path.join(root, "eval"), lambda ctx: check_eval(os.path.join(root, "eval"))),
    ]


def sampling_ops(seed, root, build_root, sizes):
    teacher_ckpt = os.path.join(build_root, "teacher", "teacher.json")
    generator_ckpt = os.path.join(build_root, "distill", "generator.json")
    ops = []
    for sampler, source in (("full", teacher_ckpt), ("truncated", teacher_ckpt),
                            ("one_step", generator_ckpt)):
        out = os.path.join(root, f"sample_{sampler}")
        ops.append(Op(f"sample_{sampler}", _sample_cfg(seed, source, sampler, sizes["n"], sizes["steps"]),
                      out, lambda ctx, o=out: check_samples(o, sizes["n"]), sizes["n"]))
    out = os.path.join(root, "eval")
    ops.append(Op("eval", _eval_cfg(seed, teacher_ckpt, generator_ckpt, sizes["eval_steps"]), out,
                  lambda ctx: check_eval(out)))
    return ops


def verify_ops(seed, root, sizes):
    out = os.path.join(root, "verify")
    return [Op("verify", _verify_cfg(seed, sizes), out, lambda ctx: check_verify(out, ctx))]


# -- output checks -----------------------------------------------------------


def read_csv(path):
    """Rows of a CLI artifact: a '# config_hash=...' line, a header, then data."""
    if not os.path.isfile(path):
        raise CheckFailed(f"missing artifact {path}")
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("# config_hash="):
            raise CheckFailed(f"{path}: no provenance header")
        return list(csv.DictReader(fh))


def _finite(path, rows, columns):
    for row in rows:
        for col in columns:
            try:
                value = float(row[col])
            except (KeyError, TypeError, ValueError):
                raise CheckFailed(f"{path}: column {col!r} unparsable in {row}")
            if not math.isfinite(value):
                raise CheckFailed(f"{path}: non-finite {col}={value}")


def check_checkpoint(path, layer_sizes):
    if not os.path.isfile(path):
        raise CheckFailed(f"missing checkpoint {path}")
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("layer_sizes") != layer_sizes:
        raise CheckFailed(f"{path}: layer sizes {payload.get('layer_sizes')} != {layer_sizes}")
    for group in ("weights", "biases"):
        for arr in payload[group]:
            flat = arr if group == "biases" else [v for r in arr for v in r]
            if not all(math.isfinite(v) for v in flat):
                raise CheckFailed(f"{path}: non-finite {group}")



def check_pretrain(out, steps, ctx):
    check_checkpoint(os.path.join(out, "teacher.json"), LAYERS)
    rows = read_csv(os.path.join(out, "pretrain_loss.csv"))
    if len(rows) != steps:
        raise CheckFailed(f"pretrain_loss.csv has {len(rows)} rows, expected {steps}")
    _finite("pretrain_loss.csv", rows, ["loss"])
    rows = read_csv(os.path.join(out, "dataset.csv"))
    points = [(float(r["x"]), float(r["y"])) for r in rows]
    if points != ctx["dataset"]:
        raise CheckFailed("dataset.csv does not match the dataset generated from the seed")


def check_distill(out, n_evals):
    rows = read_csv(os.path.join(out, "metrics.csv"))
    if len(rows) != n_evals:
        raise CheckFailed(f"metrics.csv has {len(rows)} rows, expected {n_evals}")
    _finite("metrics.csv", rows, ["frechet_clean", "proximal_fid"])
    _finite("metrics.csv", rows[1:], ["fake_loss", "gen_grad_norm"])  # step 0 has no update yet
    for name in ("generator.json", "fake.json"):
        check_checkpoint(os.path.join(out, name), LAYERS)
    _finite("selection.csv", read_csv(os.path.join(out, "selection.csv")),
            ["selected_step", "proximal_fid", "frechet_clean", "best_frechet_clean"])
    snaps = sorted(os.listdir(os.path.join(out, "snapshots")))
    if len(snaps) != n_evals:
        raise CheckFailed(f"{len(snaps)} snapshots, expected {n_evals}")
    for snap in snaps:
        rows = read_csv(os.path.join(out, "snapshots", snap))
        if len(rows) != 1024:
            raise CheckFailed(f"snapshot {snap} has {len(rows)} rows")
        _finite(snap, rows, ["x", "y"])


def check_eval(out):
    rows = read_csv(os.path.join(out, "eval.csv"))
    sources = [r["source"] for r in rows]
    if sources != ["raw_noisy", "teacher_full", "teacher_truncated", "generator"]:
        raise CheckFailed(f"eval.csv sources {sources}")
    _finite("eval.csv", rows, ["frechet_clean", "proximal_fid", "w2_fit"])
    return {r["source"]: float(r["frechet_clean"]) for r in rows}


def check_samples(out, n):
    rows = read_csv(os.path.join(out, "samples.csv"))
    if len(rows) != n:
        raise CheckFailed(f"samples.csv has {len(rows)} rows, expected {n}")
    _finite("samples.csv", rows, ["x", "y"])


# Known program defect: config.format_cell writes repr() of float subclasses, which
# numpy 2 spells "np.float64(x)".  Such a cell is reported as a defect, not accepted
# silently, and its number must still be finite.
NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


def check_verify(out, ctx):
    rows = read_csv(os.path.join(out, "report.csv"))
    if len(rows) != 12:
        raise CheckFailed(f"report.csv has {len(rows)} checks, expected 12")
    failed = [r["check"] for r in rows if r["passed"] != "True"]
    if failed:
        raise CheckFailed(f"verify checks failed: {failed}")
    for row in rows:
        match = NUMPY_REPR.fullmatch(row["value"])
        if match:
            ctx.setdefault("defects", set()).add(
                f"report.csv writes {row['check']} value as {row['value'].split('(')[0]}(...)")
            row["value"] = match.group(1)
    _finite("report.csv", rows, ["value", "threshold"])


# -- artifacts ---------------------------------------------------------------


def reset_dirs(ops):
    for op in ops:
        shutil.rmtree(op.out, ignore_errors=True)


def digest(ops):
    """sha256 over every artifact the ops wrote (CSVs and checkpoint JSON), by relative path."""
    h = hashlib.sha256()
    for op in ops:
        h.update(op.name.encode() + b"\0")
        for dirpath, dirnames, filenames in os.walk(op.out):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, op.out).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()
