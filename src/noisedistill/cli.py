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
    load_checkpoint,
    pretrain,
    save_checkpoint,
)
from .distill import PAIRED_MODE, DistillConfig, one_step_samples, run_distillation
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


def _load_checkpoint_input(cfg: ExperimentConfig, role: str, path: str):
    """The ``role`` checkpoint at ``path`` as ``load_checkpoint`` returns it.  Every command
    runs it on the schedule it records, which a ``schedule`` section may only restate."""
    if not os.path.exists(path):
        raise ConfigError(f"missing input: checkpoint {path!r} does not exist")
    try:
        loaded = load_checkpoint(path)
    # ValueError covers bad JSON, OverflowError an integer past the float range
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"unreadable checkpoint {path!r}: {type(exc).__name__}: {exc}") from exc
    net, _, _, schedule = loaded
    if (net.data_dim, net.out_dim) != (DATA_DIM, DATA_DIM):
        raise ConfigError(f"checkpoint {path!r} maps {net.data_dim}-D points to {net.out_dim}-D "
                          f"points; the toy data are {DATA_DIM}-D")
    if "schedule" in cfg.raw and _schedule(cfg) != schedule:
        raise ConfigError(f"the config's schedule {_schedule(cfg)} differs from {schedule}, which "
                          f"the {role} checkpoint {path!r} records and {cfg.kind} runs it on")
    return loaded


def _train_config(cfg: ExperimentConfig, section: dict) -> TrainConfig:
    return from_section(TrainConfig, section, schedule=_schedule(cfg), seed=cfg.seed)


def _distill_config(cfg: ExperimentConfig, t_mode: str, sigma_hat: float,
                    schedule: NoiseSchedule) -> DistillConfig:
    """The distill section over a teacher pretrained in ``t_mode`` at ``sigma_hat`` on
    ``schedule``, which the run takes: ``distill.mode`` may only restate the mode
    ``PAIRED_MODE`` pairs with ``t_mode``, and an omitted ``distill.sigma_hat`` is the teacher's."""
    section = cfg.section("distill")
    mode = PAIRED_MODE[t_mode]
    if section.get("mode", mode) != mode:
        raise ConfigError(f"mode mismatch: a teacher pretrained in {t_mode!r} pairs with {mode!r} "
                          f"distillation, but distill.mode is {section['mode']!r}")
    return from_section(DistillConfig, {"sigma_hat": sigma_hat, **section}, mode=mode,
                        schedule=schedule, seed=cfg.seed)


def _pretrain(cfg: ExperimentConfig, data, out: str, tcfg: TrainConfig) -> DenseNet:
    """Train a fresh denoiser on ``data`` as ``tcfg`` says; writes teacher.json
    and pretrain_loss.csv under ``out`` and returns the net."""
    dim = data.points.shape[1]
    net = DenseNet.initialized([dim + 1, *tcfg.hidden, dim], derive(cfg.seed, 201))
    curve = pretrain(net, data, tcfg)

    save_checkpoint(os.path.join(out, "teacher.json"), net, tcfg.mode, tcfg.sigma_hat,
                    tcfg.schedule, provenance(cfg))
    write_csv_atomic(os.path.join(out, "pretrain_loss.csv"), cfg,
                     ["step", "loss"], list(enumerate(curve)))
    print(f"pretrained {tcfg.mode} teacher for {tcfg.steps} steps; final loss {curve[-1] if curve else float('nan'):.4f}")
    return net


def _distill(cfg: ExperimentConfig, data, out: str, net: DenseNet, t_mode: str,
             dcfg: DistillConfig) -> list[dict]:
    """Distill the teacher ``net``, pretrained in ``t_mode``, as ``dcfg`` says; writes
    metrics.csv, generator.json, fake.json, selection.csv and snapshots/ under ``out``
    (last_healthy.json when the run diverges) and returns the metric history."""
    hook = from_section(make_eval_hook, cfg.section("eval"), dataset=data,
                        sigma_hat=dcfg.sigma_hat, schedule=dcfg.schedule, eval_seed=cfg.seed)

    def save(name, model):
        path = os.path.join(out, name)
        save_checkpoint(path, model, t_mode, dcfg.sigma_hat, dcfg.schedule, provenance(cfg))
        return path

    def hook_with_snapshots(state):
        metrics = hook(state)
        write_csv_atomic(os.path.join(out, "snapshots", f"step_{state.step:06d}.csv"), cfg, ["x", "y"],
                         one_step_samples(state.generator, dcfg.schedule, 1024, derive(cfg.seed, 401)))
        return metrics

    try:
        state, history = run_distillation(net, dcfg, eval_hook=hook_with_snapshots,
                                          loss_limit=divergence_limit(data.points))
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
        samples = one_step_samples(state.generator, dcfg.schedule, 2048, derive(cfg.seed, 402))
        emit_scatter_svg([("generator", samples), ("noisy data", data.points)],
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
    _pretrain(cfg, data, out, _train_config(cfg, cfg.section("train")))
    write_csv_atomic(os.path.join(out, "dataset.csv"), cfg,
                     ["x", "y", "clean_x", "clean_y"],
                     np.column_stack([data.points, data.clean]))
    if cfg.plots:
        emit_scatter_svg([("noisy", data.points), ("clean", data.clean)],
                         os.path.join(out, "dataset.svg"), meta=provenance(cfg))
    return EXIT_OK


def cmd_distill(cfg: ExperimentConfig, out: str) -> int:
    dsec = cfg.section("distill")
    net, mode, sigma_hat, schedule = _load_checkpoint_input(cfg, "teacher", dsec["teacher"])
    _distill(cfg, _dataset(cfg), out, net, mode, _distill_config(cfg, mode, sigma_hat, schedule))
    return EXIT_OK


def cmd_sample(cfg: ExperimentConfig, out: str) -> int:
    sec = cfg.section("sample")
    net, _, sigma_hat, schedule = _load_checkpoint_input(cfg, "source", sec["source"])
    n = sec["n"]
    sampler = sec["sampler"]
    if sampler == "one_step":
        samples = one_step_samples(net, schedule, n, derive(cfg.seed, 301))
    else:
        (samples,) = from_section(ambient_sample, sec, net=net, sigma_hat=sigma_hat, modes=(sampler,),
                                  rng=derive(cfg.seed, 302), schedule=schedule)
    write_csv_atomic(os.path.join(out, "samples.csv"), cfg, ["x", "y"], samples)
    if cfg.plots:
        emit_scatter_svg([(sampler, samples)], os.path.join(out, "samples.svg"),
                         meta=provenance(cfg))
    print(f"wrote {n} samples from {sampler} sampler")
    return EXIT_OK


def cmd_eval(cfg: ExperimentConfig, out: str) -> int:
    """Score each checkpoint on the schedule it records, as ``sample`` does
    (``_load_checkpoint_input`` checks that a ``schedule`` section restates it)."""
    data = _dataset(cfg)
    esec = cfg.section("eval")
    models = {}
    sigma_hat = data.sigma_data  # unless a checkpoint records one: the teacher's, else the generator's
    for role in ("generator", "teacher"):
        if role in esec:
            net, _, sigma_hat, schedule = _load_checkpoint_input(cfg, role, esec[role])
            models[role] = (net, schedule)
    rows = from_section(evaluate_sources, esec, dataset=data, sigma_hat=sigma_hat,
                        teacher=models.get("teacher"), generator=models.get("generator"),
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
    # every level's configs are built, so a bad level is rejected, before any level writes
    tcfgs = [_train_config(cfg, {**cfg.section("train"), "sigma_hat": s}) for s in sigma_hats]
    dcfgs = [_distill_config(cfg, t.mode, t.sigma_hat, t.schedule) for t in tcfgs]
    data = _dataset(cfg)

    rows = []
    for tcfg, dcfg in zip(tcfgs, dcfgs):
        sub_out = os.path.join(out, f"sigma_hat_{float(tcfg.sigma_hat)!r}")
        net = _pretrain(cfg, data, sub_out, tcfg)
        final = _distill(cfg, data, sub_out, net, tcfg.mode, dcfg)[-1]
        rows.append({"sigma_hat": float(tcfg.sigma_hat),
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
    # The atomic writers create the output directory with the first artifact.  Overflow
    # on the way to a divergence is the program's own guards' to report (exit 3).
    try:
        cfg = load_config(args.config, seed_override=args.seed, out_override=args.out,
                          plots_override=args.plots, expected_kind=kind)
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
