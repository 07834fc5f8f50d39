"""Numerical verification battery for the linear-Gaussian theory.

Each check pits a program computation against an independent oracle (dense
inverses, the dense Bures distance, finite differences, Monte Carlo,
brute-force perturbation) and records value, threshold, and verdict.  Two
rows, ``trace_maximizer_bound`` and ``von_neumann_trace_bound``, check matrix
facts the theory rests on rather than program code.  The battery is what the
``verify`` CLI command runs and what the acceptance suite reuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .gaussians import fit_gaussian
from .linear_theory import (
    GeneratorParams,
    LinearModel,
    analytic_minimizer,
    eigenvalue_loss_profile,
    loss_closed_form,
    loss_integrand,
    loss_monte_carlo,
    principal_angles,
    w2_shared_factor,
    wasserstein_report,
)
from .metrics import frechet_gaussian, psd_sqrt
from .rng import derive
from .schedule import NoiseSchedule
from .stiefel import optimize, random_frame, random_params, retract

DENSE_INV_ULPS = 64  # rounding units per unit of condition number that the woodbury row allows


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool
    detail: str = ""


def check_woodbury(seed: int, schedule: NoiseSchedule) -> CheckResult:
    """``loss_integrand``'s factored forms vs tr(S^-2 T) - 2 tr S^-1 + tr T^-1
    from dense LU inverses of the noisy-data and generator covariances S and T,
    at every quadrature node of ``schedule``.

    The error at a node is relative to tr(S^-2 T) + 2 tr S^-1 + tr T^-1 and
    may reach ``DENSE_INV_ULPS`` * eps * kappa, kappa the larger condition
    number of S and T there: 1 + 1/beta_t^2 and 1 + lam_max(V^T V)/sigma_t^2."""
    rng = derive(seed, 1)
    nodes, _ = schedule.quadrature()
    st2 = schedule.sigma(nodes)[:, None, None] ** 2
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(3, 12))
        r = int(rng.integers(1, d))
        model = LinearModel(basis=random_frame(rng, d, r), sigma=float(rng.uniform(0.1, 1.0)))
        p = GeneratorParams(u=random_frame(rng, d, r), v=rng.standard_normal((d, r)))
        beta2 = model.sigma**2 + st2
        s_inv = np.linalg.inv(model.basis @ model.basis.T + beta2 * np.eye(d))
        t = p.u @ p.gram() @ p.u.T + st2 * np.eye(d)
        tr_sinv2_t = np.sum((s_inv @ s_inv) * t, axis=(1, 2))
        tr_sinv = np.trace(s_inv, axis1=1, axis2=2)
        tr_tinv = np.trace(np.linalg.inv(t), axis1=1, axis2=2)
        err = np.abs(loss_integrand(model, p, schedule) - (tr_sinv2_t - 2.0 * tr_sinv + tr_tinv))
        kappa = np.maximum(1.0 + 1.0 / beta2, 1.0 + p.spectrum[-1] / st2).ravel()
        bound = DENSE_INV_ULPS * np.finfo(float).eps * kappa * (tr_sinv2_t + 2.0 * tr_sinv + tr_tinv)
        worst = max(worst, float(np.max(err / bound)))
    return CheckResult("woodbury_vs_dense_inverse", worst, 1.0, worst <= 1.0,
                       detail=f"max |factored - dense| / ({DENSE_INV_ULPS} eps kappa scale)")


def check_w2_bures(seed: int) -> CheckResult:
    """The dense Bures distance (``metrics.frechet_gaussian``) vs
    ``w2_shared_factor`` on random pairs that share their factor."""
    rng = derive(seed, 2)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(3, 12))
        r = int(rng.integers(1, d))
        f = random_frame(rng, d, r)
        ff, eye, zero = f @ f.T, np.eye(d), np.zeros(d)
        a = (float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.05, 2.0)))
        b = (float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.01, 2.0)))
        bures = frechet_gaussian(zero, a[0] * ff + a[1] * eye, zero, b[0] * ff + b[1] * eye)
        worst = max(worst, abs(w2_shared_factor(d, r, a, b) - bures))
    return CheckResult("w2_shared_factor_vs_bures", worst, 1e-9, worst <= 1e-9)


def check_eigen_residual(seed: int) -> CheckResult:
    """``metrics.psd_sqrt``, squared, reproduces random 8 x 8 PSD matrices of
    every rank from 1 to 8, then two more of full rank."""
    rng = derive(seed, 3)
    worst = 0.0
    for rank in (*range(1, 9), 8, 8):
        m = rng.standard_normal((8, rank))
        a = m @ m.T
        root = psd_sqrt(a, "a")
        worst = max(worst, float(np.max(np.abs(root @ root - a))))
    return CheckResult("psd_sqrt_reconstruction", worst, 1e-8, worst <= 1e-8)


def check_trace_bound(seed: int) -> CheckResult:
    """tr(EE^T U M U^T) never exceeds tr(M); frames E Q attain it, with E^T E Q
    orthogonal."""
    rng = derive(seed, 4)
    worst_excess = -np.inf
    attained_ok = True
    for _ in range(100):
        d = int(rng.integers(3, 10))
        r = int(rng.integers(1, d))
        e = random_frame(rng, d, r)
        u = random_frame(rng, d, r)
        b = rng.standard_normal((r, r))
        spd = b @ b.T + 0.1 * np.eye(r)
        bound = float(np.trace(spd))
        proj = e.T @ u
        worst_excess = max(worst_excess, float(np.sum((proj @ spd) * proj)) - bound)
        q, _ = np.linalg.qr(rng.standard_normal((r, r)))
        proj = e.T @ (e @ q)
        attained_ok = (attained_ok and float(np.sum((proj @ spd) * proj)) >= bound - 1e-8
                       and float(np.max(np.abs(proj @ proj.T - np.eye(r)))) <= 1e-6)
    passed = worst_excess <= 1e-9 and attained_ok
    return CheckResult("trace_maximizer_bound", worst_excess, 1e-9, passed,
                       detail="bound respected and attained on aligned frames")


def check_profile_minimizer(schedule: NoiseSchedule, sigmas) -> CheckResult:
    """Numeric minimizer of the eigenvalue profile sits at u* = 1 + sigma^2.

    Bisects on the sign of a central difference (step 1e-4 u) until the
    midpoint stops moving. The bracket grows with u*, and the error is
    relative to u*, because the profile flattens as u grows."""
    worst = 0.0
    for sigma in sigmas:
        target = 1.0 + sigma**2
        lo, hi = 1e-6, max(10.0, 4.0 * target)
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            h = 1e-4 * mid
            if eigenvalue_loss_profile(mid + h, sigma, schedule) < eigenvalue_loss_profile(mid - h, sigma, schedule):
                lo = mid
            else:
                hi = mid
        worst = max(worst, abs(mid - target) / target)
    return CheckResult("profile_minimizer_location", worst, 1e-6, worst <= 1e-6,
                       detail="largest |u - u*| / u*")


def check_profile_convexity(schedule: NoiseSchedule, sigma: float) -> CheckResult:
    """Central second differences of the profile are positive on [0.1, 5]."""
    h = 1e-3
    grid = np.linspace(0.1, 5.0, 25)
    second = []
    for u in grid:
        f = lambda x: eigenvalue_loss_profile(x, sigma, schedule)
        second.append((f(u + h) - 2.0 * f(u) + f(u - h)) / h**2)
    worst = float(min(second))
    return CheckResult("profile_convexity", worst, 0.0, worst > 0.0,
                       detail="minimum second difference on the grid")


def _frame(dim: int, rank: int, tag: int) -> np.ndarray:
    """The data frame of one check: a fixed random orthonormal frame per
    (dim, rank), drawn from the check's own ``tag`` and not from the seed."""
    return random_frame(derive(int(dim * 1000 + rank), tag), dim, rank)


def check_gap_identity(dim: int, rank: int, sigma: float) -> CheckResult:
    """At the analytic minimizer the W2 gap equals (d - r) sigma^2."""
    model = LinearModel(basis=_frame(dim, rank, 5), sigma=sigma)
    report = wasserstein_report(model, analytic_minimizer(model))
    err = abs(report.gap - (dim - rank) * sigma**2)
    return CheckResult(f"w2_gap_identity_d{dim}_r{rank}", err, 1e-9, err <= 1e-9)


def check_closed_vs_monte_carlo(
    seed: int, schedule: NoiseSchedule, instances: int, n: int
) -> CheckResult:
    """Closed-form loss within 4 standard errors of the sampling estimator.

    The instances are drawn in order from one stream, then scored on every CPU;
    each has its own sampling stream, so the value does not depend on the CPUs."""
    rng = derive(seed, 6)
    drawn = []
    for i in range(instances):
        d, r = 6, 2
        model = LinearModel(basis=random_frame(rng, d, r), sigma=float(rng.uniform(0.1, 0.8)))
        u = random_frame(rng, d, r)
        v = rng.standard_normal((d, r))
        drawn.append((i, model, GeneratorParams(u=u, v=v)))

    def ratio(instance, _):
        i, model, p = instance
        closed = loss_closed_form(model, p, schedule)
        est, stderr = loss_monte_carlo(model, p, schedule, n, derive(seed, 7, i))
        return abs(closed - est) / (4.0 * stderr)

    worst_ratio = 0.0
    for value in parallel.map_groups(ratio, drawn, lambda: None):
        worst_ratio = max(worst_ratio, value)
    return CheckResult("closed_form_vs_monte_carlo", worst_ratio, 1.0, worst_ratio <= 1.0,
                       detail="max |closed - MC| / (4 stderr)")


def check_minimizer_optimality(
    dim: int,
    rank: int,
    sigma: float,
    schedule: NoiseSchedule,
    seed: int,
) -> CheckResult:
    """Random perturbations of the minimizer strictly increase the loss."""
    rng = derive(seed, 8)
    model = LinearModel(basis=_frame(dim, rank, 8), sigma=sigma)
    star = analytic_minimizer(model)
    base = loss_closed_form(model, star, schedule)
    min_margin = np.inf
    for _ in range(50):
        scale = float(rng.uniform(1e-2, 0.3))
        u = retract(star.u, scale * rng.standard_normal(star.u.shape))
        v = star.v + scale * rng.standard_normal(star.v.shape)
        loss = loss_closed_form(model, GeneratorParams(u=u, v=v), schedule)
        min_margin = min(min_margin, loss - base)
    return CheckResult("minimizer_optimality", float(min_margin), 0.0, min_margin > 0.0,
                       detail="smallest loss increase over perturbations")


def check_descent_recovery(
    dim: int,
    rank: int,
    sigma: float,
    schedule: NoiseSchedule,
    seeds: int,
    max_iters: int,
) -> CheckResult:
    """Riemannian descent from random starts reaches the minimizer family: the
    final U spans the data frame (largest principal angle) and V^T V is
    (1 + sigma^2) I (Frobenius deviation), each within 1e-3.

    The starts run on every CPU, in contiguous runs of seeds, one process each
    (``parallel.map_processes``): a start is Python-bound work on small
    matrices, which threads would not overlap.  Each process sends back only
    its count, and each start is computed as on one CPU."""
    model = LinearModel(basis=_frame(dim, rank, 9), sigma=sigma)
    target_gram = (1.0 + sigma**2) * np.eye(rank)

    def converged(starts: range) -> int:
        successes = 0
        for k in starts:
            p0 = random_params(dim, rank, seed=1000 + k)
            p_final, _ = optimize(model, p0, schedule, max_iters)
            if (principal_angles(p_final.u, model.basis)[0] <= 1e-3
                    and np.linalg.norm(p_final.gram() - target_gram) <= 1e-3):
                successes += 1
        return successes

    successes = sum(parallel.map_processes(converged, range(seeds)))
    needed = math.ceil(0.9 * seeds)
    return CheckResult("descent_recovers_minimizer", float(successes), float(needed),
                       successes >= needed, detail=f"{successes}/{seeds} converged")


def check_von_neumann(seed: int) -> CheckResult:
    """|tr(AB)| bounded by the sorted singular-value inner product."""
    rng = derive(seed, 10)
    worst = -np.inf
    for _ in range(50):
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        a = (a + a.T) / 2.0
        b = (b + b.T) / 2.0
        bound = float(np.dot(np.sort(np.linalg.svd(a, compute_uv=False))[::-1],
                             np.sort(np.linalg.svd(b, compute_uv=False))[::-1]))
        worst = max(worst, abs(float(np.trace(a @ b))) - bound)
    return CheckResult("von_neumann_trace_bound", worst, 1e-9, worst <= 1e-9)


def check_sample_fit_roundtrip(seed: int) -> CheckResult:
    """``fit_gaussian`` recovers the covariance C = I + M M^T / 24 within 0.05
    (max-norm) from 1e5 draws z L^T, L the Cholesky factor of C."""
    m = derive(seed, 11).standard_normal((6, 6))
    cov = np.eye(6) + m @ m.T / 24.0
    xs = derive(seed, 12).standard_normal((100000, 6)) @ np.linalg.cholesky(cov).T
    _, fitted = fit_gaussian(xs)
    err = float(np.max(np.abs(fitted - cov)))
    return CheckResult("sample_fit_roundtrip", err, 0.05, err <= 0.05)


def run_verification(
    dim: int,
    rank: int,
    sigma: float,
    seed: int,
    schedule: NoiseSchedule,
    seeds: int = 20,
    max_iters: int = 2000,
    mc_instances: int = 20,
    mc_samples: int = 100000,
) -> list[CheckResult]:
    """The full battery; deterministic in (arguments, seed).  ``seeds`` and
    ``max_iters`` set the descent-recovery check: its number of random starts
    and the iteration budget of each."""
    checks = [
        check_woodbury(seed, schedule),
        check_w2_bures(seed),
        check_eigen_residual(seed),
        check_trace_bound(seed),
        check_profile_minimizer(schedule, sigmas=(0.1, 0.2, 0.5, sigma)),
        check_profile_convexity(schedule, sigma=max(sigma, 0.1)),
        check_gap_identity(dim, rank, sigma),
        check_closed_vs_monte_carlo(seed, schedule, instances=mc_instances, n=mc_samples),
        check_minimizer_optimality(dim, rank, sigma, schedule, seed),
        check_descent_recovery(dim, rank, sigma, schedule, seeds, max_iters),
        check_von_neumann(seed),
        check_sample_fit_roundtrip(seed),
    ]
    return checks
