"""Zero-mean Gaussian bookkeeping shared by the linear theory and the metrics.

Two helpers: ``check_orthonormal``, the frame check behind every data basis
and generator U, and ``fit_gaussian``, the moment fit that every Frechet
distance is computed from.  The covariances of the linear-Gaussian setting
(s F F^T + c I with F orthonormal) are not stored as objects; the one closed
form the program needs, W2 between two of them on a shared F, lives in
``linear_theory.w2_shared_factor``.

Matrices are plain float64 ``numpy`` arrays, row-major.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

ORTHONORMAL_TOL = 1e-10


def check_orthonormal(f: np.ndarray, name: str) -> None:
    """Raise unless ``f`` is finite with orthonormal columns within ``ORTHONORMAL_TOL`` (max-norm)."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[0] < f.shape[1]:
        raise PreconditionError(f"{name} must be a tall d x r matrix, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise PreconditionError(f"{name} contains non-finite entries")
    gram_err = np.max(np.abs(f.T @ f - np.eye(f.shape[1])))
    if not gram_err <= ORTHONORMAL_TOL:
        raise PreconditionError(
            f"{name} columns are not orthonormal: max |F^T F - I| = {gram_err:.3e} > {ORTHONORMAL_TOL:.0e}"
        )


def fit_gaussian(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and unbiased (n-1) covariance of row-stacked samples."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise PreconditionError(f"expected an n x d sample matrix, got shape {x.shape}")
    n = x.shape[0]
    if n < 2:
        raise PreconditionError(f"need at least 2 samples to fit a covariance, got {n}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    return mean, (cov + cov.T) / 2.0
