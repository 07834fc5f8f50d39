"""Command-line front door: verify, pretrain, distill, sample, eval, sigma-sweep.

Exit codes: 0 success, 1 verification property failure, 2 usage/config error
(including missing inputs), 3 runtime divergence.  All artifacts are written
atomically and embed the config hash, seed, and tool version.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread per call unless the user set otherwise: forward passes and the
# verify battery's Monte Carlo instances and descent starts already run on every
# CPU (parallel.CPUS), and BLAS threads would compete.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy is first imported

import numpy as np

from .config import ExperimentConfig, from_section, load_config, provenance, write_csv_atomic
from .diffusion import (
    TrainConfig,
    ambient_sample,
    divergence_limit,
    guard_samples,
    load_checkpoint,
    pretrain,
    save_checkpoint,
)
from .distill import PAIRED_MODE, DistillConfig, generator_forward, run_distillation
from .errors import ConfigError, DivergenceError, PreconditionError
from .metrics import evaluate_sources, make_eval_hook, select_best_checkpoint
from .nets import DenseNet
from .rng import derive
from .schedule import NoiseSchedule
from .svgplot import emit_scatter_svg
from .toydata import make_dataset
from .verify import run_verification

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3

# The toy data, the CSV columns and the plots are 2-D, so every checkpoint a
# command reads must map 2-D points (plus the noise-level channel) to 2-D points.
DATA_DIM = 2


def _schedule(cfg: ExperimentConfig) -> NoiseSchedule:
    return from_section(NoiseSchedule, cfg.section("schedule"))


def _dataset(cfg: ExperimentConfig):
    return from_section(make_dataset, cfg.section("dataset"), seed=cfg.seed)


def _load_checkpoint_input(path: str):
    if not os.path.exists(path):
        raise ConfigError(f"missing input: checkpoint {path!r} does not exist")
    try:
        loaded = load_checkpoint(path)
    # ValueError covers bad JSON, OverflowError an integer past the float range
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"unreadable checkpoint {path!r}: {type(exc).__name__}: {exc}") from exc
    net = loaded[0]
    if (net.data_dim, net.out_dim) != (DATA_DIM, DATA_DIM):
        raise ConfigError(f"checkpoint {path!r} maps {net.data_dim}-D points to {net.out_dim}-D "
                          f"points; the toy data are {DATA_DIM}-D")
    return loaded


def _train_config(cfg: ExperimentConfig, section: dict) -> TrainConfig:
    return from_section(TrainConfig, section, schedule=_schedule(cfg), seed=cfg.seed)


def _pretrain(cfg: ExperimentConfig, data, out: str, section: dict):
    """Train a fresh denoiser on ``data`` as the train ``section`` says; writes
    teacher.json and pretrain_loss.csv under ``out`` and returns the teacher as
    ``load_checkpoint`` does, (net, mode, sigma_hat, schedule)."""
    tcfg = _train_config(cfg, section)
    dim = data.points.shape[1]
    net = DenseNet([dim + 1, *tcfg.hidden, dim], derive(cfg.seed, 201))
    curve = pretrain(net, data, tcfg)

    save_checkpoint(os.path.join(out, "teacher.json"), net, tcfg.mode, tcfg.sigma_hat,
                    tcfg.schedule, provenance(cfg))
    write_csv_atomic(os.path.join(out, "pretrain_loss.csv"), cfg,
                     ["step", "loss"], list(enumerate(curve)))
    print(f"pretrained {tcfg.mode} teacher for {tcfg.steps} steps; final loss {curve[-1] if curve else float('nan'):.4f}")
    return net, tcfg.mode, tcfg.sigma_hat, tcfg.schedule


def _distill(cfg: ExperimentConfig, data, out: str, teacher, section: dict) -> list[dict]:
    """Distill ``teacher`` (net, mode, sigma_hat, schedule) as the distill
    ``section`` says, with the teacher's paired mode and sigma_hat as defaults.
    Writes metrics.csv, generator.json, fake.json, selection.csv and
    snapshots/ under ``out`` (last_healthy.json when the run diverges) and
    returns the metric history."""
    net, t_mode, t_sigma_hat, _ = teacher
    schedule = _schedule(cfg)
    dcfg = from_section(DistillConfig, {"mode": PAIRED_MODE[t_mode], "sigma_hat": t_sigma_hat,
                                        **section}, schedule=schedule, seed=cfg.seed)
    hook = from_section(make_eval_hook, cfg.section("eval"), dataset=data,
                        sigma_hat=dcfg.sigma_hat, schedule=schedule, eval_seed=cfg.seed)

    def save(name, model):
        path = os.path.join(out, name)
        save_checkpoint(path, model, t_mode, dcfg.sigma_hat, schedule, provenance(cfg))
        return path

    snap_z = derive(cfg.seed, 401).standard_normal((1024, net.data_dim))

    def hook_with_snapshots(state):
        metrics = hook(state)
        snap = generator_forward(state.generator, snap_z, schedule)
        write_csv_atomic(os.path.join(out, "snapshots", f"step_{state.step:06d}.csv"),
                         cfg, ["x", "y"], snap.tolist())
        return metrics

    try:
        state, history = run_distillation(net, dcfg, eval_hook=hook_with_snapshots,
                                          teacher_mode=t_mode, loss_limit=divergence_limit(data.points))
    except DivergenceError as exc:
        if exc.checkpoint is not None:
            exc.diagnostics["checkpoint_path"] = save("last_healthy.json", exc.checkpoint)
        raise

    write_csv_atomic(os.path.join(out, "metrics.csv"), cfg,
                     ["step", "frechet_clean", "proximal_fid", "fake_loss", "gen_grad_norm"],
                     history)
    save("generator.json", state.generator)
    save("fake.json", state.fake)
    selection = select_best_checkpoint(history)
    write_csv_atomic(os.path.join(out, "selection.csv"), cfg, list(selection), [selection])
    if cfg.plots:
        z = derive(cfg.seed, 402).standard_normal((2048, net.data_dim))
        emit_scatter_svg([("generator", generator_forward(state.generator, z, schedule)),
                          ("noisy data", data.points)],
                         os.path.join(out, "generator.svg"), meta=provenance(cfg))
    print(f"distilled {dcfg.method} for {dcfg.steps} steps; "
          f"final frechet_clean={history[-1].get('frechet_clean', float('nan')):.6f}")
    return history


# -- commands ----------------------------------------------------------------


def cmd_verify(cfg: ExperimentConfig, out: str) -> int:
    lin = cfg.section("linear")
    checks = from_section(run_verification, {**lin, **lin.get("opt", {})}, seed=cfg.seed,
                          schedule=_schedule(cfg))
    rows = [
        {"check": c.name, "value": c.value, "threshold": c.threshold,
         "passed": c.passed, "detail": c.detail}
        for c in checks
    ]
    write_csv_atomic(os.path.join(out, "report.csv"), cfg,
                     ["check", "value", "threshold", "passed", "detail"], rows)
    for c in checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: value={c.value:.3e} threshold={c.threshold:.3e}")
    return EXIT_OK if all(c.passed for c in checks) else EXIT_PROPERTY_FAILURE


def cmd_pretrain(cfg: ExperimentConfig, out: str) -> int:
    data = _dataset(cfg)
    _pretrain(cfg, data, out, cfg.section("train"))
    write_csv_atomic(os.path.join(out, "dataset.csv"), cfg,
                     ["x", "y", "clean_x", "clean_y"],
                     np.column_stack([data.points, data.clean]).tolist())
    if cfg.plots:
        emit_scatter_svg([("noisy", data.points), ("clean", data.clean)],
                         os.path.join(out, "dataset.svg"), meta=provenance(cfg))
    return EXIT_OK


def cmd_distill(cfg: ExperimentConfig, out: str) -> int:
    dsec = cfg.section("distill")
    _distill(cfg, _dataset(cfg), out, _load_checkpoint_input(dsec["teacher"]), dsec)
    return EXIT_OK


def cmd_sample(cfg: ExperimentConfig, out: str) -> int:
    sec = cfg.section("sample")
    net, _, sigma_hat, schedule = _load_checkpoint_input(sec["source"])
    n = sec["n"]
    sampler = sec["sampler"]
    if sampler == "one_step":
        z = derive(cfg.seed, 301).standard_normal((n, net.data_dim))
        samples = guard_samples(generator_forward(net, z, schedule), "one-step generator")
    else:
        samples = from_section(ambient_sample, sec, net=net, sigma_hat=sigma_hat, mode=sampler,
                               rng=derive(cfg.seed, 302), schedule=schedule)
    write_csv_atomic(os.path.join(out, "samples.csv"), cfg, ["x", "y"], samples.tolist())
    if cfg.plots:
        emit_scatter_svg([(sampler, samples)], os.path.join(out, "samples.svg"),
                         meta=provenance(cfg))
    print(f"wrote {n} samples from {sampler} sampler")
    return EXIT_OK


def cmd_eval(cfg: ExperimentConfig, out: str) -> int:
    data = _dataset(cfg)
    schedule = _schedule(cfg)
    esec = cfg.section("eval")
    teacher = generator = None
    sigma_hat = data.sigma_data  # unless a checkpoint records one: the teacher's, else the generator's
    if "generator" in esec:
        generator, _, sigma_hat, _ = _load_checkpoint_input(esec["generator"])
    if "teacher" in esec:
        teacher, _, sigma_hat, _ = _load_checkpoint_input(esec["teacher"])
    rows = from_section(evaluate_sources, esec, dataset=data, schedule=schedule,
                        sigma_hat=sigma_hat, teacher=teacher, generator=generator,
                        eval_seed=cfg.seed)
    write_csv_atomic(os.path.join(out, "eval.csv"), cfg,
                     ["source", "frechet_clean", "proximal_fid", "w2_fit", "n_samples", "seed"],
                     rows)
    for row in rows:
        print(f"{row['source']:>18}: frechet_clean={row['frechet_clean']:.6f} "
              f"proximal_fid={row['proximal_fid']:.6f}")
    return EXIT_OK


def cmd_sigma_sweep(cfg: ExperimentConfig, out: str) -> int:
    """Pretrain and distill once per sigma_hat, each level into a sub-directory
    ``sigma_hat_<repr>`` holding its teacher and everything ``distill`` writes."""
    sigma_hats = cfg.section("sweep").get("sigma_hats")
    if sigma_hats is None:
        sd = cfg.section("dataset")["sigma_data"]
        sigma_hats = sorted({0.0, sd, 2.0 * sd})  # one level when sigma_data is 0
    levels = [{**cfg.section("train"), "sigma_hat": sigma_hat} for sigma_hat in sigma_hats]
    for level in levels:  # a bad level is rejected before any level writes
        _train_config(cfg, level)
    data = _dataset(cfg)

    rows = []
    for sigma_hat, level in zip(sigma_hats, levels):
        sub_out = os.path.join(out, f"sigma_hat_{float(sigma_hat)!r}")
        teacher = _pretrain(cfg, data, sub_out, level)
        final = _distill(cfg, data, sub_out, teacher,
                         {**cfg.section("distill"), "sigma_hat": sigma_hat})[-1]
        rows.append({"sigma_hat": float(sigma_hat),
                     "frechet_clean": final["frechet_clean"],
                     "proximal_fid": final["proximal_fid"]})

    best = min(rows, key=lambda r: r["frechet_clean"])["sigma_hat"]
    for row in rows:
        row["best"] = row["sigma_hat"] == best
    write_csv_atomic(os.path.join(out, "report.csv"), cfg,
                     ["sigma_hat", "frechet_clean", "proximal_fid", "best"], rows)
    print(f"sweep done; frechet_clean minimized at sigma_hat={best:g}")
    return EXIT_OK


COMMANDS = {
    "verify": ("verify", cmd_verify),
    "pretrain": ("pretrain", cmd_pretrain),
    "distill": ("distill", cmd_distill),
    "sample": ("sample", cmd_sample),
    "eval": ("eval", cmd_eval),
    "sigma-sweep": ("sigma_sweep", cmd_sigma_sweep),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisedistill",
        description="Desk-scale score-distillation experiments on noisy data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None,
                       help="output directory (default: $NOISEDISTILL_OUT_ROOT/<kind>-<config hash>)")
        p.add_argument("--plots", action="store_true", help="also emit SVG scatter plots")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    kind, command = COMMANDS[args.command]
    try:
        cfg = load_config(args.config, seed_override=args.seed, out_override=args.out,
                          plots_override=args.plots, expected_kind=kind)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # The atomic writers create the output directory with the first artifact.  Overflow
    # on the way to a divergence is the program's own guards' to report (exit 3).
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return command(cfg, cfg.out_dir())
    except (ConfigError, PreconditionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # sizes within config.MAX_ARRAY_SIZE that this machine cannot hold
        print(f"config error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        if exc.diagnostics.get("checkpoint_path"):
            print(f"last healthy checkpoint: {exc.diagnostics['checkpoint_path']}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
