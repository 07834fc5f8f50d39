"""Numerical verification battery for the linear-Gaussian theory.

Each check pits a structured-path computation against an independent oracle
(dense inverse, dense Bures distance, finite differences, Monte Carlo,
brute-force perturbation) and records value, threshold, and verdict.  The
battery is what the ``verify`` CLI command runs and what the acceptance suite
reuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .gaussians import (
    LowRankGaussian,
    fit_gaussian,
    sample,
    structured_inverse,
    symmetric_eigen,
    w2_commuting,
)
from .linear_theory import (
    GeneratorParams,
    LinearModel,
    analytic_minimizer,
    eigenvalue_loss_profile,
    loss_closed_form,
    loss_monte_carlo,
    principal_angles,
    trace_maximizer_check,
    wasserstein_report,
)
from .metrics import frechet_gaussian
from .rng import derive
from .schedule import NoiseSchedule
from .stiefel import optimize, random_params, retract


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool
    detail: str = ""


def _random_low_rank(rng, d=None) -> LowRankGaussian:
    if d is None:
        d = int(rng.integers(2, 21))
    r = int(rng.integers(1, d))
    f = retract(np.zeros((d, r)), rng.standard_normal((d, r)))
    return LowRankGaussian(f, float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.05, 2.0)))


def check_woodbury(seed: int) -> CheckResult:
    """Structured inverse vs dense LU inverse, entrywise."""
    rng = derive(seed, 1)
    worst = 0.0
    for _ in range(20):
        g = _random_low_rank(rng)
        floor_inv, corr = structured_inverse(g)
        inv_structured = floor_inv * np.eye(g.dim) - corr * (g.factor @ g.factor.T)
        worst = max(worst, float(np.max(np.abs(inv_structured - np.linalg.inv(g.dense_cov())))))
    return CheckResult("woodbury_vs_dense_inverse", worst, 1e-10, worst <= 1e-10)


def check_w2_bures(seed: int) -> CheckResult:
    """Commuting-pair W2 vs the dense Bures formula on shared-factor pairs."""
    rng = derive(seed, 2)
    worst = 0.0
    for _ in range(20):
        a = _random_low_rank(rng, d=int(rng.integers(3, 12)))
        b = LowRankGaussian(a.factor, float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.01, 2.0)))
        zero = np.zeros(a.dim)
        bures = frechet_gaussian(zero, a.dense_cov(), zero, b.dense_cov())
        worst = max(worst, abs(w2_commuting(a, b) - bures))
    return CheckResult("w2_commuting_vs_bures", worst, 1e-9, worst <= 1e-9)


def check_eigen_residual(seed: int) -> CheckResult:
    rng = derive(seed, 3)
    worst = 0.0
    for _ in range(10):
        m = rng.standard_normal((8, 8))
        a = (m + m.T) / 2.0
        eig = symmetric_eigen(a)
        recon = (eig.vectors * eig.values) @ eig.vectors.T
        worst = max(worst, float(np.max(np.abs(recon - a))))
    return CheckResult("eigen_reconstruction", worst, 1e-8, worst <= 1e-8)


def check_trace_bound(seed: int) -> CheckResult:
    """tr(EE^T U M U^T) never exceeds tr(M); frames E Q attain it."""
    rng = derive(seed, 4)
    worst_excess = -np.inf
    attained_ok = True
    for _ in range(100):
        d = int(rng.integers(3, 10))
        r = int(rng.integers(1, d))
        e = retract(np.zeros((d, r)), rng.standard_normal((d, r)))
        u = retract(np.zeros((d, r)), rng.standard_normal((d, r)))
        b = rng.standard_normal((r, r))
        spd = b @ b.T + 0.1 * np.eye(r)
        proj = e.T @ u
        value = float(np.sum((proj @ spd) * proj))
        worst_excess = max(worst_excess, value - float(np.trace(spd)))
        q, _ = np.linalg.qr(rng.standard_normal((r, r)))
        attained_ok = attained_ok and trace_maximizer_check(e, spd, e @ q)
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
    rng = derive(int(dim * 1000 + rank), tag)
    return retract(np.zeros((dim, rank)), rng.standard_normal((dim, rank)))


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
        e = retract(np.zeros((d, r)), rng.standard_normal((d, r)))
        model = LinearModel(basis=e, sigma=float(rng.uniform(0.1, 0.8)))
        u = retract(np.zeros((d, r)), rng.standard_normal((d, r)))
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
    """fit_gaussian(sample(g, 1e5)) recovers the covariance within 0.05."""
    rng = derive(seed, 11)
    g = _random_low_rank(rng, d=6)
    xs = sample(g, 100000, derive(seed, 12))
    _, cov = fit_gaussian(xs)
    err = float(np.max(np.abs(cov - g.dense_cov())))
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
        check_woodbury(seed),
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
