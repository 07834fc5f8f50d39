"""Exact linear-Gaussian setting: the idealized distillation loss in closed
and Monte Carlo form, its analytic minimizers, and the Wasserstein
accounting that quantifies how much distillation denoises.

Setting: clean data N(0, E E^T) with E a d x r orthonormal frame, observed
through additive noise at level sigma, scores assumed exact.  The linear
generator G(z) = U V^T z is optimized over Theta = {U^T U = I, V^T V > 0}.
The loss averages, over a bounded noise schedule, the Fisher divergence
between the perturbed generator's score and the exact noisy-data score.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .gaussians import COMMUTE_TOL, LowRankGaussian, check_orthonormal, w2_commuting
from .schedule import NoiseSchedule

# Samples per block of the Monte Carlo loss, which draws and scores one block at
# a time; the last block takes the remainder.
MC_BLOCK = 4096


@dataclass(frozen=True)
class LinearModel:
    """Clean distribution N(0, E E^T) observed at corruption level sigma."""

    basis: np.ndarray  # d x r orthonormal frame spanning the data subspace
    sigma: float

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        check_orthonormal(b, name="basis")
        if b.shape[1] >= b.shape[0]:
            raise PreconditionError("latent rank must be strictly below the ambient dimension")
        if not self.sigma >= 0:
            raise PreconditionError(f"sigma must be nonnegative, got {self.sigma}")
        if not np.isfinite(self.sigma):
            raise PreconditionError(f"sigma must be finite, got {self.sigma}")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class GeneratorParams:
    """Linear generator G(z) = U V^T z, checked to lie in Theta when built: U and V
    are finite, U has orthonormal columns within ``ORTHONORMAL_TOL`` (max-norm),
    V^T V is positive definite; otherwise it raises ``PreconditionError``, which
    ``stiefel.riemannian_step`` counts as a rejected trial.  The check's
    symmetrised V^T V and its ascending eigenvalues (``spectrum``) are kept,
    read-only; like the check, they assume U and V are not written to
    afterwards."""

    u: np.ndarray  # d x r
    v: np.ndarray  # d x r
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)
    _gram: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.shape != v.shape or u.ndim != 2:
            raise PreconditionError(f"U and V must be d x r with equal shapes, got {u.shape}, {v.shape}")
        check_orthonormal(u, name="U")
        if not np.all(np.isfinite(v)):
            raise PreconditionError("V contains non-finite entries")
        w = v.T @ v
        w = (w + w.T) / 2.0
        lam = np.linalg.eigvalsh(w)
        if not lam[0] > 0:
            raise PreconditionError(f"V^T V must be positive definite, smallest eigenvalue {lam[0]:.3e}")
        w.flags.writeable = lam.flags.writeable = False
        for name, value in (("u", u), ("v", v), ("spectrum", lam), ("_gram", w)):
            object.__setattr__(self, name, value)

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    def gram(self) -> np.ndarray:
        """V^T V, symmetrised, read-only: the Gram matrix that carries the generator's spectrum."""
        return self._gram


@dataclass(frozen=True)
class QuadratureTerms:
    """The terms of the loss and its gradient that depend on t alone, at the 64
    quadrature nodes of one schedule, for one (sigma, d, r); with
    beta_t^2 = sigma^2 + sigma_t^2, gamma_t = 1/(beta_t^2 (beta_t^2 + 1)) and
    S_t the noisy-data covariance.  Every array is read-only."""

    st2: np.ndarray  # sigma_t^2
    d_st2: np.ndarray  # d sigma_t^2
    beta4: np.ndarray  # beta_t^4
    c: np.ndarray  # c_t = gamma_t^2 - 2 gamma_t / beta_t^2
    r_st2: np.ndarray  # r sigma_t^2
    two_tr_sinv: np.ndarray  # 2 tr S_t^{-1} = 2 (d / beta_t^2 - r gamma_t)
    d_over_st2: np.ndarray  # d / sigma_t^2
    c_sum: float  # E_t[c_t]
    a_sum: float  # E_t[beta_t^{-4}]


@functools.lru_cache(maxsize=64)  # shared between calls, hence read-only
def quadrature_terms(sigma: float, d: int, r: int, s: NoiseSchedule) -> QuadratureTerms:
    """The terms of ``loss_integrand`` and ``stiefel.euclidean_gradient`` that do
    not depend on the generator, computed once per (sigma, d, r, schedule) with
    the operations those formulas would otherwise repeat on every call, so
    every value keeps its bits."""
    nodes, weights = s.quadrature()
    st2 = s.sigma(nodes) ** 2
    beta2 = sigma**2 + st2
    gamma = 1.0 / (beta2 * (beta2 + 1.0))
    beta4 = beta2**2
    c = gamma**2 - 2.0 * gamma / beta2
    arrays = dict(st2=st2, d_st2=st2 * d, beta4=beta4, c=c, r_st2=st2 * r,
                  two_tr_sinv=2.0 * (d / beta2 - r * gamma), d_over_st2=d / st2)
    for a in arrays.values():
        a.flags.writeable = False
    return QuadratureTerms(**arrays, c_sum=float(np.dot(weights, c)), a_sum=float(np.dot(weights, 1.0 / beta4)))


def loss_integrand(m: LinearModel, p: GeneratorParams, s: NoiseSchedule) -> np.ndarray:
    """The fixed-t Fisher divergence between generator and noisy-data scores,
    at each node of the schedule's quadrature rule.

    Equals tr(S^{-2} T) - 2 tr(S^{-1}) + tr(T^{-1}) for S the noisy-data
    covariance and T the perturbed generator covariance at level sigma_t,
    assembled from the factored forms in O(d r + r^3) per node, the
    t-only terms read from ``quadrature_terms``.  The constant term is kept
    so the value matches the Monte Carlo estimator, not merely its
    theta-dependent part, and is a squared Frobenius norm, hence nonnegative.
    """
    t = quadrature_terms(m.sigma, m.dim, m.rank, s)
    w, lam = p.gram(), p.spectrum[:, None]
    proj = m.basis.T @ p.u  # r x r overlap E^T U
    tr_w = float(np.trace(w))
    tr_pwp = float(np.sum((proj @ w) * proj))

    tr_sinv2_t = (tr_w + t.d_st2) / t.beta4 + t.c * (tr_pwp + t.r_st2)
    tr_tinv = t.d_over_st2 - np.sum(lam / (t.st2 * (lam + t.st2)), axis=0)
    return tr_sinv2_t - t.two_tr_sinv + tr_tinv


def loss_closed_form(m: LinearModel, p: GeneratorParams, s: NoiseSchedule) -> float:
    """Schedule-averaged loss: the exact integrand over t, averaged with the
    schedule's fixed 64-node Gauss-Legendre rule (``NoiseSchedule.quadrature``)."""
    _, weights = s.quadrature()
    return float(np.dot(weights, loss_integrand(m, p, s)))


def loss_monte_carlo(
    m: LinearModel,
    p: GeneratorParams,
    s: NoiseSchedule,
    n: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Unbiased sampling estimate of the loss with its standard error.

    Draws t ~ Unif(0,1), x ~ N(0, U V^T V U^T), x_t = x + sigma_t eps, and
    averages the squared score gap at x_t. Returns (estimate, stderr).
    """
    if n < 100:
        raise PreconditionError(f"need n >= 100 samples, got {n}")
    d = m.dim

    sigma_ts = s.sample_sigma(rng, n)[:, None]
    starts = [k * MC_BLOCK for k in range(max(1, n // MC_BLOCK))]
    blocks = list(zip(starts, starts[1:] + [n]))
    lam, sw = np.linalg.eigh(p.gram())
    basis = p.u @ sw
    # The stream holds t, then all of the rank-r latent z, then eps block by
    # block: x = (z sqrt(lam)) basis^T has the generator's law N(0, U V^T V U^T).
    z = rng.standard_normal((n, p.rank)) * np.sqrt(lam)

    sq = np.empty(n)
    for start, stop in blocks:
        st = sigma_ts[start:stop]
        x_t = z[start:stop] @ basis.T + st * rng.standard_normal((stop - start, d))

        beta2 = m.sigma**2 + st**2
        gamma = 1.0 / (beta2 * (beta2 + 1.0))
        score_noisy = -(x_t / beta2 - gamma * (x_t @ m.basis) @ m.basis.T)

        st2 = st**2
        core = lam[None, :] / (st2 * (lam[None, :] + st2))
        score_gen = -(x_t / st2 - ((x_t @ basis) * core) @ basis.T)

        sq[start:stop] = np.sum((score_noisy - score_gen) ** 2, axis=1)
    estimate = float(np.mean(sq))
    stderr = float(np.std(sq, ddof=1) / np.sqrt(n))
    return estimate, stderr


def analytic_minimizer(m: LinearModel) -> GeneratorParams:
    """A global minimizer of the loss: U = E and V = sqrt(1 + sigma^2) E, so
    V^T V = (1 + sigma^2) I.

    Every U = E Q with Q orthogonal (and V on the same frame) induces the same
    distribution N(0, (1+sigma^2) EE^T) and attains the same loss.
    """
    return GeneratorParams(u=m.basis, v=np.sqrt(1.0 + m.sigma**2) * m.basis)


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical angles between col(a) and col(b) in radians, largest first."""
    qa, _ = np.linalg.qr(np.asarray(a, dtype=float))
    qb, _ = np.linalg.qr(np.asarray(b, dtype=float))
    cosines = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(cosines, -1.0, 1.0))[::-1]


@dataclass(frozen=True)
class WassersteinReport:
    w2_distilled_clean: float
    gap: float


def wasserstein_report(m: LinearModel, p: GeneratorParams) -> WassersteinReport:
    """Squared W2 distance of the distilled to the clean data, and its gap to
    that of the noisy data (noisy vs clean minus distilled vs clean).

    Requires the generator covariance C = U W U^T, W = V^T V, to commute with
    E E^T, i.e. the r x d block E^T C (I - E E^T) to vanish; it is rejected
    above 1e-8 relative to the largest eigenvalue of W.  For commuting
    covariances W2^2(C, E E^T) = tr W + r - 2 sum_i sqrt(lam_i) |E^T U s_i|^2
    over the eigenpairs (lam_i, s_i) of W, a sum that does not depend on the
    basis chosen inside a repeated eigenvalue.  tr C = tr W needs U^T U = I,
    which ``GeneratorParams`` checked when ``p`` was built.
    """
    sig2 = m.sigma**2
    clean = LowRankGaussian(m.basis, 1.0, 0.0)
    noisy = LowRankGaussian(m.basis, 1.0, sig2)
    w2_noisy = w2_commuting(noisy, clean)

    w, proj = p.gram(), m.basis.T @ p.u  # proj: the r x r overlap E^T U
    lam, s = np.linalg.eigh(w)
    misfit = float(np.max(np.abs(proj @ w @ (p.u.T - proj.T @ m.basis.T))))
    if misfit > COMMUTE_TOL * lam[-1]:
        raise PreconditionError(
            "generator covariance does not commute with the data covariance: "
            f"max |E^T C (I - E E^T)| = {misfit:.3e} > {COMMUTE_TOL:.0e} * lambda_max(V^T V); "
            "align col(U) with col(E) or its complement"
        )
    aligned = np.sum((proj @ s) ** 2, axis=0)  # |E^T U s_i|^2
    root_lam = np.sqrt(np.clip(lam, 0.0, None))
    w2_distilled = max(float(np.sum(lam) + m.rank - 2.0 * np.dot(root_lam, aligned)), 0.0)

    return WassersteinReport(
        w2_distilled_clean=w2_distilled,
        gap=w2_noisy - w2_distilled,
    )


def eigenvalue_loss_profile(u: float, sigma: float, s: NoiseSchedule) -> float:
    """Schedule-averaged loss contribution of one eigenvalue ``u`` of V^T V.

    With the generator aligned to the data frame, the remaining objective
    decouples across eigenvalues of V^T V into this strictly convex profile,

        E_t[ u / (sigma^2 + sigma_t^2 + 1)^2  -  u / (sigma_t^2 (u + sigma_t^2)) ],

    whose unique minimizer is u = 1 + sigma^2 for every bounded schedule.
    """
    if u <= 0:
        raise PreconditionError(f"the profile is defined for u > 0, got {u}")
    nodes, weights = s.quadrature()
    st2 = s.sigma(nodes) ** 2
    vals = u / (sigma**2 + st2 + 1.0) ** 2 - u / (st2 * (u + st2))
    return float(np.dot(weights, vals))


def trace_maximizer_check(e: np.ndarray, spd: np.ndarray, u: np.ndarray) -> bool:
    """Whether ``u`` attains max tr(EE^T U M U^T) over the Stiefel manifold.

    The maximum is tr(M), attained exactly on the frames {E Q}; the check
    verifies both the attained value and the orthogonality of E^T U.
    """
    e = np.asarray(e, dtype=float)
    spd = np.asarray(spd, dtype=float)
    u = np.asarray(u, dtype=float)
    proj = e.T @ u
    value = float(np.sum((proj @ spd) * proj))
    bound = float(np.trace(spd))
    gram_err = float(np.max(np.abs(proj @ proj.T - np.eye(proj.shape[0]))))
    return value >= bound - 1e-8 and gram_err <= 1e-6
