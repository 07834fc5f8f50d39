"""Distilling a pretrained denoiser into a one-step generator.

The loop alternates two updates: a fake denoiser is trained on corrupted
generator outputs so its score tracks the generator's current distribution,
and the generator takes a step along one of three gradient estimators (SDS,
DMD, SiD) that act directly on the teacher's and fake's denoiser outputs at
perturbed samples.

Consistency modes pair with pretraining: in ``standard`` mode the corrupted
sample y~ = x_g + sigma_hat*eps is treated as the generated sample (the fake
net trains with the plain objective and perturbations start from y~); in
``adjusted`` mode the fake net trains with the adjusted objective and
perturbations start from x_g itself.

Stop-gradient boundaries: the teacher is always a constant; the fake net is
constant inside generator updates; the generator is constant inside fake
updates.  SDS additionally never trains the fake net.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diffusion import denoising_loss
from .errors import DivergenceError, PreconditionError
from .nets import Adam, DenseNet, cosine_decay
from .rng import make_rng
from .schedule import NoiseSchedule

METHODS = ("sds", "dmd", "sid")
CONSISTENCY_MODES = ("standard", "adjusted")
WEIGHTINGS = ("constant", "sigma2", "sid-normalized")
# Pretraining modes pair with distillation consistency modes.
PAIRED_MODE = {"standard": "standard", "ambient": "adjusted"}


@dataclass(frozen=True)
class DistillConfig:
    mode: str  # pairs with the teacher's pretraining mode (PAIRED_MODE)
    sigma_hat: float
    schedule: NoiseSchedule
    seed: int
    method: str = "sid"
    alpha: float = 1.2  # SiD mixing weight
    lr_fake: float = 1e-3
    lr_gen: float = 2e-4
    steps: int = 20000
    batch_size: int = 128
    eval_every: int = 500
    weighting: str = "sid-normalized"

    def __post_init__(self):
        if self.method not in METHODS:
            raise PreconditionError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.mode not in CONSISTENCY_MODES:
            raise PreconditionError(f"unknown mode {self.mode!r}; choose from {CONSISTENCY_MODES}")
        if self.weighting not in WEIGHTINGS:
            raise PreconditionError(f"unknown weighting {self.weighting!r}")
        if self.steps < 1 or not np.isfinite(self.alpha):
            raise PreconditionError("need steps >= 1 and finite alpha")
        if self.mode == "adjusted" and self.sigma_hat >= self.schedule.sigma_max:
            raise PreconditionError(
                f"sigma_hat {self.sigma_hat} must be below the schedule's sigma_max "
                f"{self.schedule.sigma_max} in adjusted mode: the fake update would clip every "
                "noise level to sigma_hat, so its loss and gradient would be 0"
            )


@dataclass
class DistillState:
    teacher: DenseNet
    fake: DenseNet
    generator: DenseNet
    fake_opt: Adam
    gen_opt: Adam
    cfg: DistillConfig
    step: int = field(default=0, init=False)


def init_distillation(teacher: DenseNet, cfg: DistillConfig) -> DistillState:
    """Fake net and generator start as copies of the teacher.

    The generator reuses the denoiser architecture and reads z through the
    noise-level channel pinned at sigma_max, which is what makes the
    teacher-to-generator copy well defined.
    """
    if teacher.out_dim != teacher.data_dim:
        raise PreconditionError(
            f"teacher maps {teacher.data_dim} -> {teacher.out_dim}; a denoiser must be square"
        )
    fake = teacher.copy()
    generator = teacher.copy()
    return DistillState(
        teacher=teacher,
        fake=fake,
        generator=generator,
        fake_opt=Adam(fake.parameters(), cfg.lr_fake),
        gen_opt=Adam(generator.parameters(), cfg.lr_gen),
        cfg=cfg,
    )


def generator_forward(net: DenseNet, z: np.ndarray, schedule: NoiseSchedule) -> np.ndarray:
    """One-step generation: the net applied to z at the pinned top noise level."""
    return net.forward(z, schedule.sigma_max)


@dataclass
class _Perturbation:
    """Everything drawn for one generator-gradient batch."""

    x_g: np.ndarray
    cache_g: tuple
    sigma_t: np.ndarray
    eps: np.ndarray
    x_t: np.ndarray


def draw_perturbation(state: DistillState, z: np.ndarray, rng: np.random.Generator) -> _Perturbation:
    """Corrupt a generator batch and perturb it to a schedule level.

    Draw order (corruption noise, then t, then perturbation noise) is shared
    by both consistency modes, so at sigma_hat = 0 they agree bitwise.
    """
    cfg = state.cfg
    x_g, cache_g = state.generator.forward_cached(z, cfg.schedule.sigma_max)
    eps_c = rng.standard_normal(x_g.shape)
    y_tilde = x_g + cfg.sigma_hat * eps_c
    base = y_tilde if cfg.mode == "standard" else x_g
    sigma_t = cfg.schedule.sample_sigma(rng, x_g.shape[0])
    eps = rng.standard_normal(x_g.shape)
    x_t = base + sigma_t[:, None] * eps
    return _Perturbation(x_g, cache_g, sigma_t, eps, x_t)


def loss_weights(
    weighting: str, sigma_t: np.ndarray, f_teacher: np.ndarray, x_g: np.ndarray
) -> np.ndarray:
    """Per-sample weights w(t), shape (n, 1); never differentiated through."""
    if weighting == "constant":
        return np.ones((sigma_t.shape[0], 1))
    if weighting == "sigma2":
        return (sigma_t**2)[:, None]
    # SiD-style normalization: sigma_t^2 over the per-sample mean absolute
    # teacher-vs-generated residual, treated as a constant.
    scale = np.maximum(np.mean(np.abs(f_teacher - x_g), axis=1, keepdims=True), 1e-8)
    return (sigma_t**2)[:, None] / scale


def x_g_grad_sds(state: DistillState, p: _Perturbation) -> np.ndarray:
    """Noise-residual estimator: w_t (eps_teacher(x_t) - eps) at x_g, with the
    teacher's noise prediction eps_teacher = (x_t - f_teacher) / sigma_t.

    The teacher is a constant, and no fake net participates.
    """
    f_phi = state.teacher.forward(p.x_t, p.sigma_t)
    eps_phi = (p.x_t - f_phi) / p.sigma_t[:, None]
    w = loss_weights(state.cfg.weighting, p.sigma_t, f_phi, p.x_g)
    return w * (eps_phi - p.eps) / p.x_g.shape[0]


def x_g_grad_dmd(state: DistillState, p: _Perturbation) -> np.ndarray:
    """Score-difference estimator: w_t (s_fake(x_t) - s_teacher(x_t)) at x_g.

    A denoiser f implies the score -(x_t - f) / sigma_t^2, so x_t cancels and
    the difference is (f_fake - f_teacher) / sigma_t^2.
    """
    f_phi = state.teacher.forward(p.x_t, p.sigma_t)
    f_psi = state.fake.forward(p.x_t, p.sigma_t)
    w = loss_weights(state.cfg.weighting, p.sigma_t, f_phi, p.x_g)
    return w * (f_psi - f_phi) / (p.sigma_t**2)[:, None] / p.x_g.shape[0]


def x_g_grad_sid(state: DistillState, p: _Perturbation) -> np.ndarray:
    """Fisher-divergence estimator with mixing weight alpha.

    Differentiates  w [ (1-alpha) ||f_fake - f_teacher||^2
                        + (f_teacher - f_fake)^T (f_fake - x_g) ]
    with respect to x_g, through x_t = base(x_g) + sigma_t eps and through the
    direct x_g term; both nets' parameters and the weights are constants.
    """
    cfg = state.cfg
    f_phi, cache_phi = state.teacher.forward_cached(p.x_t, p.sigma_t)
    f_psi, cache_psi = state.fake.forward_cached(p.x_t, p.sigma_t)
    diff = f_psi - f_phi
    resid = f_psi - p.x_g
    w = loss_weights(cfg.weighting, p.sigma_t, f_phi, p.x_g) / p.x_g.shape[0]

    vec_fake = w * (2.0 * (1.0 - cfg.alpha) * diff - resid - diff)
    vec_teacher = w * (resid - 2.0 * (1.0 - cfg.alpha) * diff)
    dxt_fake = state.fake.backward(cache_psi, vec_fake, params=False)
    dxt_teacher = state.teacher.backward(cache_phi, vec_teacher, params=False)
    return dxt_fake + dxt_teacher + w * diff


_GRAD_FNS = {
    "sds": x_g_grad_sds,
    "dmd": x_g_grad_dmd,
    "sid": x_g_grad_sid,
}


def fake_update(state: DistillState, rng: np.random.Generator) -> float:
    """One optimizer step of the fake denoiser on corrupted generator output.

    Standard mode trains with the plain objective, adjusted mode with the
    adjusted objective at sigma_hat; the generator is a constant here.
    """
    cfg = state.cfg
    z = rng.standard_normal((cfg.batch_size, state.generator.data_dim))
    x_g = generator_forward(state.generator, z, cfg.schedule)
    eps_c = rng.standard_normal(x_g.shape)
    y_tilde = x_g + cfg.sigma_hat * eps_c
    sigma_hat_eff = cfg.sigma_hat if cfg.mode == "adjusted" else 0.0
    loss, grads = denoising_loss(state.fake, y_tilde, sigma_hat_eff, cfg.schedule, rng)
    state.fake_opt.step(grads)
    return loss


def generator_update(state: DistillState, rng: np.random.Generator) -> float:
    """One optimizer step of the generator: the configured estimator's gradient
    at the generated points x_g of one perturbed batch, carried back through
    the generator.  Returns the norm of the parameter gradient."""
    cfg = state.cfg
    z = rng.standard_normal((cfg.batch_size, state.generator.data_dim))
    p = draw_perturbation(state, z, rng)
    grads = state.generator.backward(p.cache_g, _GRAD_FNS[cfg.method](state, p))
    grad_norm = float(np.sqrt(sum(np.sum(g * g) for g in grads)))
    state.gen_opt.step(grads)
    return grad_norm


def run_distillation(
    teacher: DenseNet,
    cfg: DistillConfig,
    eval_hook,
    loss_limit: float,
) -> tuple[DistillState, list[dict]]:
    """Alternate fake and generator updates for cfg.steps iterations.

    ``eval_hook(state) -> dict`` is sampled at the eval cadence (and at the
    start and end) and its values land in the metric history.  A fake loss
    above ``loss_limit`` (``divergence_limit`` of the data) is divergence; that
    error and the eval hook's carry the generator of the last completed eval.
    """
    state = init_distillation(teacher, cfg)
    rng = make_rng(cfg.seed)
    teacher_digest = teacher.params_digest()
    last_healthy = None
    history = []

    def record(step: int, fake_loss: float, grad_norm: float):
        nonlocal last_healthy
        row = {"step": step, "fake_loss": fake_loss, "gen_grad_norm": grad_norm}
        try:
            row.update(eval_hook(state))
        except DivergenceError as exc:  # the hook's guard on the generator's samples
            exc.diagnostics["step"] = step
            exc.checkpoint = last_healthy
            raise
        history.append(row)
        last_healthy = state.generator.copy()

    record(0, float("nan"), float("nan"))
    for j in range(1, cfg.steps + 1):
        state.step = j
        factor = cosine_decay(j - 1, cfg.steps)
        state.fake_opt.lr = cfg.lr_fake * factor
        state.gen_opt.lr = cfg.lr_gen * factor
        fake_loss = float("nan")
        if cfg.method != "sds":  # SDS never trains the fake net
            fake_loss = fake_update(state, rng)
        grad_norm = generator_update(state, rng)

        healthy = np.isfinite(grad_norm) and (cfg.method == "sds" or
                                              (np.isfinite(fake_loss) and fake_loss <= loss_limit))
        if not healthy:
            raise DivergenceError(
                f"distillation diverged at step {j}: fake_loss={fake_loss:.3e}, "
                f"grad_norm={grad_norm:.3e}",
                diagnostics={"step": j, "fake_loss": fake_loss, "grad_norm": grad_norm},
                checkpoint=last_healthy,
            )
        if j % cfg.eval_every == 0 or j == cfg.steps:
            record(j, fake_loss, grad_norm)

    if teacher.params_digest() != teacher_digest:
        raise RuntimeError("teacher parameters changed during distillation")
    return state, history
