"""Denoiser training and sampling on toy data.

The training objective is the adjusted denoising loss for data observed at an
assumed corruption level sigma_hat: noise levels are clipped to sigma_t =
max(sigma_hat, sigma_t), the observation is re-noised by the residual amount
sqrt(sigma_t^2 - sigma_hat^2), and the prediction mixes the network output
with the input,

    || (sigma_t^2 - sigma_hat^2)/sigma_t^2 * f(x_t, t)
       + sigma_hat^2/sigma_t^2 * x_t  -  y ||^2,

which trains an unbiased clean-data denoiser from already-noisy observations.
With sigma_hat = 0 every adjustment vanishes identically and the loss *is*
the standard denoising objective, so one code path serves both modes and the
reduction holds bit for bit under shared draws.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .config import write_text_atomic
from .errors import DivergenceError, PreconditionError
from .nets import Adam, DenseNet, cosine_decay
from .rng import make_rng
from .schedule import NoiseSchedule

DIVERGENCE_THRESHOLD = 1e6
MODES = ("standard", "ambient")
SAMPLER_STEPS = 64  # reverse-process grid points when a config names none


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    lr: float = 1e-3
    steps: int = 20000
    schedule: NoiseSchedule = NoiseSchedule()
    sigma_hat: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.sigma_hat < 0:
            raise PreconditionError(f"sigma_hat must be nonnegative, got {self.sigma_hat}")
        if self.steps < 0 or self.batch_size < 1 or self.lr <= 0:
            raise PreconditionError("need steps >= 0, batch_size >= 1, lr > 0")


def denoising_loss(
    net: DenseNet,
    batch: np.ndarray,
    sigma_hat: float,
    schedule: NoiseSchedule,
    rng: np.random.Generator,
) -> tuple[float, list[np.ndarray]]:
    """Adjusted denoising loss and parameter gradients on one batch.

    Draw order is fixed (t first, then the noise) so runs with equal seeds
    agree bitwise whatever sigma_hat is.  At a clipped level (sigma_t ==
    sigma_hat) the network weight is exactly zero and the sample contributes
    exactly zero loss and gradient.
    """
    if sigma_hat < 0:
        raise PreconditionError(f"sigma_hat must be nonnegative, got {sigma_hat}")
    y = np.atleast_2d(np.asarray(batch, dtype=float))
    if y.shape[0] < 1:
        raise PreconditionError("batch must be nonempty")
    n = y.shape[0]
    t = schedule.sample_t(rng, n)
    eps = rng.standard_normal(y.shape)

    sigma_t = np.maximum(schedule.sigma(t), sigma_hat)
    st2 = (sigma_t**2)[:, None]
    w_net = (st2 - sigma_hat**2) / st2
    w_skip = sigma_hat**2 / st2

    x_t = y + np.sqrt(st2 - sigma_hat**2) * eps
    out, cache = net.forward_cached(x_t, sigma_t)
    resid = w_net * out + w_skip * x_t - y
    loss = float(np.mean(np.sum(resid**2, axis=1)))
    upstream = (2.0 / n) * w_net * resid
    grads, _ = net.backward(cache, upstream)
    return loss, grads


def pretrain(
    net: DenseNet,
    data,
    cfg: TrainConfig,
    mode: str = "ambient",
) -> tuple[DenseNet, list[float]]:
    """Train a denoiser on the dataset's noisy points; returns (net, loss curve).

    ``mode='ambient'`` uses the adjusted objective at cfg.sigma_hat,
    ``mode='standard'`` the plain objective.  Training mutates ``net`` in
    place; zero steps leave it untouched.  A loss above 1e6 aborts.
    """
    if mode not in MODES:
        raise PreconditionError(f"unknown pretraining mode {mode!r}; choose from {MODES}")
    sigma_hat = cfg.sigma_hat if mode == "ambient" else 0.0
    rng = make_rng(cfg.seed)
    opt = Adam(net.parameters(), cfg.lr)
    points = data.points
    curve = []
    for step in range(cfg.steps):
        idx = rng.integers(0, points.shape[0], cfg.batch_size)
        loss, grads = denoising_loss(net, points[idx], sigma_hat, cfg.schedule, rng)
        if not np.isfinite(loss) or loss > DIVERGENCE_THRESHOLD:
            raise DivergenceError(
                f"pretraining diverged at step {step}: loss = {loss:.3e}",
                diagnostics={"step": step, "loss": loss, "mode": mode},
            )
        opt.lr = cfg.lr * cosine_decay(step, cfg.steps)
        opt.step(net.parameters(), grads)
        curve.append(loss)
    return net, curve


def guard_samples(x: np.ndarray, source: str) -> np.ndarray:
    """Return ``x``, or raise ``DivergenceError`` when a sample is non-finite or
    exceeds ``DIVERGENCE_THRESHOLD`` in magnitude (a blown-up model)."""
    peak = float(np.max(np.abs(x))) if x.size else 0.0
    if not peak <= DIVERGENCE_THRESHOLD:  # also true for nan
        raise DivergenceError(
            f"{source} samples diverged: max |x| = {peak:.3e}",
            diagnostics={"source": source, "max_abs": peak},
        )
    return x


def ambient_sample(
    net: DenseNet,
    sigma_hat: float,
    steps: int,
    mode: str,
    n: int,
    rng: np.random.Generator,
    schedule: NoiseSchedule = NoiseSchedule(),
) -> np.ndarray:
    """Reverse-process sampling over a decreasing geometric noise grid.

    Each step moves x along the denoiser direction,
    x <- x - (sigma_t - sigma_prev)/sigma_t * (x - f(x, sigma_t)).
    In ``truncated`` mode the walk exits with the denoised estimate
    f(x, sigma_t) the first time the next level drops below sigma_hat;
    ``full`` mode iterates all the way down to sigma_min.  Non-finite or
    blown-up samples raise ``DivergenceError``.
    """
    if mode not in ("full", "truncated"):
        raise PreconditionError(f"unknown sampling mode {mode!r}")
    grid = schedule.sampling_grid(steps)
    x = rng.standard_normal((n, net.data_dim)) * grid[0]
    for i in range(len(grid) - 1):
        sig, sig_prev = grid[i], grid[i + 1]
        x0_hat = net.forward(x, sig)
        if mode == "truncated" and sig_prev < sigma_hat:
            return guard_samples(x0_hat, f"{mode} sampler")
        x = x - ((sig - sig_prev) / sig) * (x - x0_hat)
    return guard_samples(x, f"{mode} sampler")


# -- checkpoints -------------------------------------------------------------

CHECKPOINT_FORMAT = "noisedistill-checkpoint"
CHECKPOINT_VERSION = 2


def save_checkpoint(
    path, net: DenseNet, mode: str, sigma_hat: float, schedule: NoiseSchedule, provenance: str
) -> None:
    """Write a self-describing JSON checkpoint; floats round-trip exactly.

    ``mode`` is the pretraining mode of the teacher the net descends from;
    ``sigma_hat`` and ``schedule`` are those the net was trained with, and
    ``provenance`` the config triple of the run that wrote it.
    """
    write_text_atomic(path, json.dumps({
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "mode": mode,
        "sigma_hat": float(sigma_hat),
        "schedule": {"sigma_min": schedule.sigma_min, "sigma_max": schedule.sigma_max},
        "layer_sizes": list(net.layer_sizes),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "provenance": provenance,
    }))


def load_checkpoint(path) -> tuple[DenseNet, str, float, NoiseSchedule]:
    """Read a checkpoint as (net, mode, sigma_hat, schedule); every array must
    have the shape ``layer_sizes`` gives it and hold finite values."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise PreconditionError(f"{path} is not a checkpoint file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise PreconditionError(f"{path}: checkpoint version {payload.get('version')!r}, "
                                f"expected {CHECKPOINT_VERSION}")
    if payload["mode"] not in MODES:
        raise PreconditionError(f"{path}: unknown pretraining mode {payload['mode']!r}")
    net = object.__new__(DenseNet)
    net.layer_sizes = [int(v) for v in payload["layer_sizes"]]
    net.weights = [np.array(w, dtype=float) for w in payload["weights"]]
    net.biases = [np.array(b, dtype=float) for b in payload["biases"]]
    fans = list(zip(net.layer_sizes[:-1], net.layer_sizes[1:]))
    if (not fans or [w.shape for w in net.weights] != [(fan_out, fan_in) for fan_in, fan_out in fans]
            or [b.shape for b in net.biases] != [(fan_out,) for _, fan_out in fans]):
        raise PreconditionError(f"{path}: parameter shapes do not match layer_sizes {net.layer_sizes}")
    if not all(np.all(np.isfinite(p)) for p in net.parameters()):
        raise PreconditionError(f"{path}: non-finite parameters")
    sigma_hat = float(payload["sigma_hat"])
    if not 0 <= sigma_hat < np.inf:
        raise PreconditionError(f"{path}: sigma_hat must be finite and nonnegative, got {sigma_hat}")
    sched = payload["schedule"]
    return net, payload["mode"], sigma_hat, NoiseSchedule(float(sched["sigma_min"]),
                                                          float(sched["sigma_max"]))
