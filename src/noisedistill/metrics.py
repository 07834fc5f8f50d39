"""Quantitative evaluation on fitted Gaussian moments.

At toy scale the FID analog is the Frechet distance between Gaussians fitted
to raw 2-D coordinates (no feature network); every consumer of these numbers
should know that substitution.  The proximal variant re-corrupts generated
samples at the assumed data noise level and compares against the *noisy*
training set, so it needs no clean data at all.
"""

from __future__ import annotations

import numpy as np

from .diffusion import SAMPLER_STEPS, ambient_sample, guard_samples
from .distill import generator_forward
from .errors import PreconditionError
from .gaussians import fit_gaussian
from .rng import derive
from .toydata import sample_clean

PSD_TOL = 1e-8  # relative to the largest entry (absolute for matrices below 1)
MIN_METRIC_SAMPLES = 100
N_EVAL = 16384  # evaluation samples per source when a config names none


def psd_sqrt(cov: np.ndarray, name: str) -> np.ndarray:
    """The PSD square root of a symmetric ``cov``, from its eigenpairs in
    descending order; eigenvalues down to -tol are clamped at 0, with
    tol = ``PSD_TOL`` relative to the largest entry."""
    tol = PSD_TOL * float(np.max(np.abs(cov), initial=1.0))
    asym = float(np.max(np.abs(cov - cov.T), initial=0.0))
    if asym > tol:
        raise PreconditionError(f"matrix is not symmetric: max |A - A^T| = {asym:.3e}")
    values, vectors = np.linalg.eigh((cov + cov.T) / 2.0)
    values, vectors = values[::-1], vectors[:, ::-1]
    if values[-1] < -tol:
        raise PreconditionError(
            f"{name} is indefinite beyond tolerance: smallest eigenvalue {values[-1]:.3e}"
        )
    root = np.sqrt(np.clip(values, 0.0, None))
    return (vectors * root) @ vectors.T


def frechet_gaussian(mu1, cov1, mu2, cov2) -> float:
    """||mu1 - mu2||^2 + tr(S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2}).

    Zero exactly when the moment pairs coincide; marginally indefinite
    covariances (finite-sample artifacts) are clamped at zero eigenvalues.
    """
    mu1 = np.asarray(mu1, dtype=float)
    mu2 = np.asarray(mu2, dtype=float)
    cov1 = np.asarray(cov1, dtype=float)
    cov2 = np.asarray(cov2, dtype=float)
    root1 = psd_sqrt(cov1, "cov1")
    psd_sqrt(cov2, "cov2")  # validates PSD-ness of the second argument
    inner = psd_sqrt(root1 @ cov2 @ root1, "cross term")
    value = float(np.sum((mu1 - mu2) ** 2) + np.trace(cov1) + np.trace(cov2) - 2.0 * np.trace(inner))
    return max(value, 0.0)


def frechet_between_samples(a: np.ndarray, b: np.ndarray) -> float:
    """Frechet distance between the Gaussian fits of two sample sets."""
    mu_a, cov_a = fit_gaussian(a)
    mu_b, cov_b = fit_gaussian(b)
    return frechet_gaussian(mu_a, cov_a, mu_b, cov_b)


def proximal_fid(
    gen_samples: np.ndarray,
    sigma_hat: float,
    noisy_reference: np.ndarray,
    rng: np.random.Generator,
) -> float:
    """Frechet distance of re-corrupted generations to the noisy training set.

    Generated samples get one fresh corruption pass x + sigma_hat * eps, after
    which both sides live at the same noise level and the comparison needs no
    clean data.  sigma_hat = 0 reduces to the plain Frechet distance.
    """
    gen_samples = np.atleast_2d(np.asarray(gen_samples, dtype=float))
    noisy_reference = np.atleast_2d(np.asarray(noisy_reference, dtype=float))
    if gen_samples.shape[0] < MIN_METRIC_SAMPLES or noisy_reference.shape[0] < MIN_METRIC_SAMPLES:
        raise PreconditionError(
            f"need at least {MIN_METRIC_SAMPLES} points per set, got "
            f"{gen_samples.shape[0]} and {noisy_reference.shape[0]}"
        )
    corrupted = gen_samples + sigma_hat * rng.standard_normal(gen_samples.shape)
    return frechet_between_samples(corrupted, noisy_reference)


def _scorer(dataset, sigma_hat: float, n_eval: int, eval_seed: int):
    """Frechet distance to one clean reference fit and proximal FID of a sample
    set; every row of one evaluation shares the reference."""
    mu_c, cov_c = fit_gaussian(sample_clean(dataset.kind, n_eval, derive(eval_seed, 101)))

    def score(samples: np.ndarray) -> dict:
        mu, cov = fit_gaussian(samples)
        return {
            "frechet_clean": frechet_gaussian(mu, cov, mu_c, cov_c),
            "proximal_fid": proximal_fid(samples, sigma_hat, dataset.points, derive(eval_seed, 103)),
        }

    return score


def _one_step_samples(generator, schedule, n_eval: int, eval_seed: int) -> np.ndarray:
    z = derive(eval_seed, 102).standard_normal((n_eval, generator.data_dim))
    return guard_samples(generator_forward(generator, z, schedule), "one-step generator")


def make_eval_hook(dataset, sigma_hat: float, schedule, eval_seed: int, n_eval: int = N_EVAL):
    """Standard metric hook for distillation runs.

    The clean reference fit, the evaluation latents, and the corruption
    stream are all derived once from ``eval_seed``, so the hook is a
    deterministic function of the model being evaluated and consecutive
    checkpoints see identical evaluation noise.
    """
    score = _scorer(dataset, sigma_hat, n_eval, eval_seed)

    def hook(state) -> dict:
        return score(_one_step_samples(state.generator, schedule, n_eval, eval_seed))

    return hook


def evaluate_sources(
    dataset,
    sigma_hat: float,
    teacher,
    generator,
    eval_seed: int,
    n_eval: int = N_EVAL,
    sample_steps: int = SAMPLER_STEPS,
) -> list[dict]:
    """Metric rows for the raw noisy data and every available model.

    Sources: the noisy training points themselves, the teacher run as a full
    and as a truncated sampler, and the one-step generator.  ``teacher`` and
    ``generator`` are each a ``(net, schedule)`` pair, the schedule being the
    one the net was trained on, or ``None``, which adds no row.  All rows
    share one clean reference fit and one evaluation seed.  Both teacher rows
    come from one reverse walk on one noise draw (``sample_steps - 1`` teacher
    passes): the truncated samples are that walk's denoised estimate at its
    truncation step, so the two rows are a paired comparison.
    """
    score = _scorer(dataset, sigma_hat, n_eval, eval_seed)

    def row(source: str, samples: np.ndarray, n: int) -> dict:
        return {
            "source": source,
            **score(samples),
            "w2_fit": frechet_between_samples(samples, dataset.points),
            "n_samples": n,
            "seed": eval_seed,
        }

    rows = [row("raw_noisy", dataset.points, dataset.n)]
    if teacher is not None:
        net, schedule = teacher
        full, trunc = ambient_sample(net, sigma_hat, ("full", "truncated"), n_eval,
                                     derive(eval_seed, 104), schedule, sample_steps)
        rows.append(row("teacher_full", full, n_eval))
        rows.append(row("teacher_truncated", trunc, n_eval))
    if generator is not None:
        rows.append(row("generator", _one_step_samples(*generator, n_eval, eval_seed), n_eval))
    return rows


def select_best_checkpoint(history: list[dict]) -> dict:
    """Pick the checkpoint minimizing proximal FID (earliest step on ties).

    ``history`` rows need ``step`` and ``proximal_fid``.  Returns the
    ``selection.csv`` row, keyed by its columns: ``selected_step``, its
    ``proximal_fid`` and ``frechet_clean`` (nan when the row has none), and
    ``best_frechet_clean``, the run's true minimum over the rows with a
    proximal FID.
    """
    rows = [r for r in history if np.isfinite(r.get("proximal_fid", np.nan))]
    if not rows:
        raise PreconditionError("history has no rows with a proximal_fid value")
    chosen = min(rows, key=lambda r: (r["proximal_fid"], r["step"]))
    true_vals = [r["frechet_clean"] for r in rows if np.isfinite(r.get("frechet_clean", np.nan))]
    return {
        "selected_step": int(chosen["step"]),
        "proximal_fid": float(chosen["proximal_fid"]),
        "frechet_clean": float(chosen.get("frechet_clean", np.nan)),
        "best_frechet_clean": float(min(true_vals)) if true_vals else float("nan"),
    }
