"""Factored zero-mean Gaussians and the linear algebra built on them.

The whole analysis lives inside one covariance family,

    Sigma = spike * F F^T + floor * I_d,

where ``F`` is a d x r matrix with orthonormal columns.  Data distributions,
their noisy counterparts, and every perturbed marginal are members, so
covariances are kept factored as ``(F, spike, floor)`` and only densified at
test boundaries.  Inverses, traces, and Wasserstein distances all run in
O(d * r^2) or better.

Matrices are plain float64 ``numpy`` arrays, row-major.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

ORTHONORMAL_TOL = 1e-10
COMMUTE_TOL = 1e-8


def check_orthonormal(f: np.ndarray, name: str = "factor") -> None:
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


@dataclass(frozen=True)
class LowRankGaussian:
    """Zero-mean Gaussian with covariance ``spike * F F^T + floor * I``.

    ``floor == 0`` is a legal degenerate distribution (mass confined to
    ``col(F)``); it is rejected only where an inverse is required.
    """

    factor: np.ndarray  # d x r, orthonormal columns
    spike: float
    floor: float

    def __post_init__(self):
        f = np.asarray(self.factor, dtype=float)
        check_orthonormal(f)
        if self.spike < 0 or self.floor < 0 or self.spike + self.floor <= 0:
            raise PreconditionError(
                f"need spike >= 0, floor >= 0, spike + floor > 0; got ({self.spike}, {self.floor})"
            )
        object.__setattr__(self, "factor", f)

    @property
    def dim(self) -> int:
        return self.factor.shape[0]

    @property
    def rank(self) -> int:
        return self.factor.shape[1]

    def dense_cov(self) -> np.ndarray:
        """Materialize the d x d covariance. Test/reporting boundary only."""
        f = self.factor
        return self.spike * (f @ f.T) + self.floor * np.eye(self.dim)


@dataclass(frozen=True)
class EigenDecomp:
    """Symmetric eigendecomposition, eigenvalues descending."""

    values: np.ndarray
    vectors: np.ndarray  # orthonormal columns, vectors[:, i] pairs with values[i]


def structured_inverse(g: LowRankGaussian) -> tuple[float, float]:
    """Invert ``Sigma = s F F^T + c I`` without densifying.

    Returns ``(floor_inv, correction)`` such that
    ``Sigma^{-1} = floor_inv * I - correction * F F^T``, i.e. the rank-r
    downdate form with ``floor_inv = 1/c`` and ``correction = s / (c (c+s))``.
    """
    if g.floor == 0:
        raise PreconditionError("covariance with floor = 0 is singular")
    floor_inv = 1.0 / g.floor
    correction = g.spike / (g.floor * (g.floor + g.spike))
    return floor_inv, correction


def w2_commuting(a: LowRankGaussian, b: LowRankGaussian) -> float:
    """Squared Wasserstein-2 distance between two commuting members.

    For commuting PSD covariances W2^2 = tr A + tr B - 2 tr(A^{1/2} B^{1/2}),
    and a member's square root stays in the family:
    (s F F^T + c I)^{1/2} = alpha F F^T + sqrt(c) I with
    alpha = sqrt(s + c) - sqrt(c).  The cross trace then needs only the
    r_a x r_b overlap F_a^T F_b.  Non-commuting inputs (commutator max-norm
    > 1e-8) are rejected; covariances sharing a factor always commute.
    """
    if a.dim != b.dim:
        raise PreconditionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    fa, fb = a.factor, b.factor

    cross = fa.T @ fb  # r_a x r_b
    if a.spike > 0 and b.spike > 0:
        m = fa @ cross @ fb.T
        comm_norm = a.spike * b.spike * np.max(np.abs(m - m.T))
        if comm_norm > COMMUTE_TOL:
            raise PreconditionError(
                f"covariances do not commute: commutator max-norm {comm_norm:.3e} > {COMMUTE_TOL:.0e}"
            )

    root_a, root_b = np.sqrt(a.floor), np.sqrt(b.floor)
    alpha_a = np.sqrt(a.spike + a.floor) - root_a
    alpha_b = np.sqrt(b.spike + b.floor) - root_b
    tr_root_product = (alpha_a * alpha_b * float(np.sum(cross * cross)) + alpha_a * root_b * a.rank
                       + root_a * alpha_b * b.rank + root_a * root_b * a.dim)
    tr_sum = a.spike * a.rank + b.spike * b.rank + (a.floor + b.floor) * a.dim
    return max(float(tr_sum - 2.0 * tr_root_product), 0.0)


def symmetric_eigen(a: np.ndarray, sym_tol: float = 1e-10) -> EigenDecomp:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Delegates to LAPACK's symmetric solver, which meets the 1e-8
    reconstruction bound with orders of magnitude to spare for d <= 64.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {a.shape}")
    asym = np.max(np.abs(a - a.T)) if a.size else 0.0
    if asym > sym_tol:
        raise PreconditionError(f"matrix is not symmetric: max |A - A^T| = {asym:.3e}")
    values, vectors = np.linalg.eigh((a + a.T) / 2.0)
    order = np.argsort(values)[::-1]
    return EigenDecomp(values=values[order], vectors=vectors[:, order])


def sample(g: LowRankGaussian, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` rows from ``g`` as ``sqrt(s) F z_r + sqrt(c) z_d``.

    The latent draw ``z_r`` always precedes the ambient draw ``z_d`` so that a
    fixed stream yields identical matrices regardless of degeneracies.
    """
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    z_r = rng.standard_normal((n, g.rank))
    z_d = rng.standard_normal((n, g.dim))
    out = z_r @ g.factor.T
    out *= np.sqrt(g.spike)
    z_d *= np.sqrt(g.floor)
    out += z_d
    return out


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
