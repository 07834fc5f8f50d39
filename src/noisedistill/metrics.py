"""Quantitative evaluation on fitted Gaussian moments.

At toy scale the FID analog is the Frechet distance between Gaussians fitted
to raw 2-D coordinates (no feature network); every consumer of these numbers
should know that substitution.  The proximal variant re-corrupts generated
samples at the assumed data noise level and compares against the *noisy*
training set, so it needs no clean data at all.
"""

from __future__ import annotations

import numpy as np

from .diffusion import SAMPLER_STEPS, ambient_sample
from .distill import one_step_samples
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


def proximal_fid(
    gen_samples: np.ndarray,
    sigma_hat: float,
    noisy_fit: tuple[np.ndarray, np.ndarray],
    rng: np.random.Generator,
) -> float:
    """Frechet distance of re-corrupted generations to ``noisy_fit``, the
    ``(mean, cov)`` fit of the noisy training set.

    Generated samples get one fresh corruption pass x + sigma_hat * eps, after
    which both sides live at the same noise level and the comparison needs no
    clean data.  sigma_hat = 0 reduces to the plain Frechet distance.
    """
    gen_samples = np.atleast_2d(np.asarray(gen_samples, dtype=float))
    if gen_samples.shape[0] < MIN_METRIC_SAMPLES:
        raise PreconditionError(f"need at least {MIN_METRIC_SAMPLES} generated points, "
                                f"got {gen_samples.shape[0]}")
    corrupted = gen_samples + sigma_hat * rng.standard_normal(gen_samples.shape)
    return frechet_gaussian(*fit_gaussian(corrupted), *noisy_fit)


def _scorer(dataset, sigma_hat: float, n_eval: int, eval_seed: int):
    """``(score, noisy_fit)``: ``score(samples)`` fits a sample set once and
    returns that fit with its Frechet distance to the clean reference fit and
    its proximal FID against ``noisy_fit``, the fit of the noisy training set.
    Each reference is fitted once, and every row of one evaluation shares it."""
    clean_fit = fit_gaussian(sample_clean(dataset.kind, n_eval, derive(eval_seed, 101)))
    noisy_fit = fit_gaussian(dataset.points)

    def score(samples: np.ndarray) -> tuple[tuple, dict]:
        fit = fit_gaussian(samples)
        return fit, {
            "frechet_clean": frechet_gaussian(*fit, *clean_fit),
            "proximal_fid": proximal_fid(samples, sigma_hat, noisy_fit, derive(eval_seed, 103)),
        }

    return score, noisy_fit


def make_eval_hook(dataset, sigma_hat: float, schedule, eval_seed: int, n_eval: int = N_EVAL):
    """Distillation's metric hook: ``frechet_clean`` and ``proximal_fid`` of one-step samples.

    The reference fits (made once), the evaluation latents, and the corruption
    stream all derive from ``eval_seed``, so the hook is a deterministic
    function of the model being evaluated and consecutive checkpoints see
    identical evaluation noise.
    """
    score, _ = _scorer(dataset, sigma_hat, n_eval, eval_seed)

    def hook(state) -> dict:
        return score(one_step_samples(state.generator, schedule, n_eval, derive(eval_seed, 102)))[1]

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
    share one clean reference fit, one fit of the noisy training set and one
    evaluation seed, and each row fits its samples once.  Both teacher rows
    come from one reverse walk on one noise draw (``sample_steps - 1`` teacher
    passes): the truncated samples are that walk's denoised estimate at its
    truncation step, so the two rows are a paired comparison.
    """
    score, noisy_fit = _scorer(dataset, sigma_hat, n_eval, eval_seed)

    def row(source: str, samples: np.ndarray, n: int) -> dict:
        fit, scores = score(samples)
        return {
            "source": source,
            **scores,
            "w2_fit": frechet_gaussian(*fit, *noisy_fit),
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
        rows.append(row("generator", one_step_samples(*generator, n_eval, derive(eval_seed, 102)), n_eval))
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
