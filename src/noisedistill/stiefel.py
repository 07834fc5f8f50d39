"""First-order Riemannian descent over {U^T U = I} x {V} for the closed-form
loss, used to confirm numerically that descent from random starts lands on the
analytic minimizer family (U spanning the data subspace, V^T V = (1+sigma^2) I).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, StalledOptimizationError
from .linear_theory import GeneratorParams, LinearModel, loss_closed_form, quadrature_terms
from .rng import make_rng
from .schedule import NoiseSchedule

ARMIJO_C1 = 1e-4
MIN_STEP = 1e-14
VTV_FLOOR = 1e-10
STEP_SIZE = 0.2  # first trial step of the line search
GRAD_TOL = 1e-7  # Riemannian gradient norm that counts as converged


@dataclass
class OptTrace:
    """A descent run: the iteration number and loss of each iterate, and
    whether the last one met the gradient tolerance."""

    iters: list = field(default_factory=list, init=False)
    losses: list = field(default_factory=list, init=False)
    converged: bool = field(default=False, init=False)

    def append(self, it, loss):
        self.iters.append(int(it))
        self.losses.append(float(loss))


def euclidean_gradient(m: LinearModel, p: GeneratorParams, s: NoiseSchedule) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean (ambient) gradient of the closed-form loss in (U, V).

    Differentiates the schedule-averaged trace expression directly: writing
    W = V^T V, P = E^T U, beta_t^2 = sigma^2 + sigma_t^2 and
    gamma_t = 1/(beta_t^2 (beta_t^2 + 1)),

        dU = E_t[ 2 c_t ] * E P W,                 c_t = gamma_t^2 - 2 gamma_t / beta_t^2,
        dV = 2 V ( E_t[beta_t^{-4}] I + E_t[c_t] P^T P - S E_t[diag 1/(sigma_t^2+lam)^2] S^T ),

    with (lam, S) the eigendecomposition of W; sigma_t^2 and the two sums over t
    come from ``quadrature_terms``.
    """
    _, weights = s.quadrature()
    t = quadrature_terms(m.sigma, m.dim, m.rank, s)

    w = p.gram()
    lam, sw = np.linalg.eigh(w)
    proj = m.basis.T @ p.u
    diag_sum = weights @ (1.0 / (t.st2[:, None] + lam[None, :]) ** 2)

    du = 2.0 * t.c_sum * (m.basis @ (proj @ w))
    dv = 2.0 * (t.a_sum * p.v + t.c_sum * p.v @ (proj.T @ proj) - (p.v @ sw) * diag_sum @ sw.T)
    return du, dv


def tangent_project(u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Project an ambient U-gradient onto the Stiefel tangent space at u."""
    utdu = u.T @ du
    return du - u @ ((utdu + utdu.T) / 2.0)


def retract(u: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Map u + direction back onto the Stiefel manifold: the Q factor of its
    QR decomposition, with signs fixed so R has a nonnegative diagonal."""
    q, r = np.linalg.qr(u + direction)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def riemannian_step(
    m: LinearModel,
    p: GeneratorParams,
    direction: tuple[np.ndarray, np.ndarray],
    slope: float,
    s: NoiseSchedule,
    step_size: float,
    loss_current: float,
) -> tuple[GeneratorParams, float, float]:
    """One backtracked descent step; returns (new params, accepted step, new loss).

    ``direction`` is the Riemannian gradient (xi, dV): the U-gradient projected
    to the tangent space at U, and the V-gradient; ``slope`` is its squared
    norm.  U is retracted along -xi (QR with a positive-diagonal fix); V moves
    by plain descent.  A trial step is rejected when it leaves Theta (building
    its ``GeneratorParams`` raises ``PreconditionError``) or when its V^T V has
    an eigenvalue below ``VTV_FLOOR`` (read off the params' ``spectrum``); it
    is accepted when it then satisfies the Armijo condition with c1 = 1e-4.
    Otherwise the step is halved, and below 1e-14 it raises
    ``StalledOptimizationError``.
    """
    xi, dv = direction
    if slope == 0.0:
        return p, step_size, loss_current

    eta = step_size
    while True:
        try:
            candidate = GeneratorParams(u=retract(p.u, -eta * xi), v=p.v - eta * dv)
        except PreconditionError:  # the trial left Theta
            candidate = None
        if candidate is not None and candidate.spectrum[0] >= VTV_FLOOR:
            loss_new = loss_closed_form(m, candidate, s)
            if loss_new <= loss_current - ARMIJO_C1 * eta * slope:
                return candidate, eta, loss_new
        eta *= 0.5
        if eta < MIN_STEP:
            raise StalledOptimizationError(
                f"line search underflowed below {MIN_STEP:g} at loss {loss_current:.6e}"
            )


def random_params(d: int, r: int, seed: int) -> GeneratorParams:
    """Feasible random start: U from QR of a Gaussian matrix, V = U."""
    rng = make_rng(seed)
    u = retract(np.zeros((d, r)), rng.standard_normal((d, r)))
    return GeneratorParams(u=u, v=u.copy())


def optimize(
    m: LinearModel,
    p0: GeneratorParams,
    s: NoiseSchedule,
    max_iters: int,
) -> tuple[GeneratorParams, OptTrace]:
    """Run descent until the Riemannian gradient norm drops below GRAD_TOL, for
    at most ``max_iters`` steps.

    Returns the last iterate, the one the trace's final row describes, and the
    trace of (iteration, loss) per iterate; non-convergence is reported
    through ``trace.converged`` rather than an error.  Every accepted step
    passes the Armijo test, so no step raises the loss and the last iterate
    has the lowest.  ``GeneratorParams`` checked that ``p0`` lies in Theta.
    """
    trace = OptTrace()

    p = p0
    loss = loss_closed_form(m, p, s)
    eta = STEP_SIZE

    for it in range(max_iters + 1):
        du, dv = euclidean_gradient(m, p, s)
        xi = tangent_project(p.u, du)
        slope = float(np.sum(xi * xi) + np.sum(dv * dv))
        trace.append(it, loss)

        if np.sqrt(slope) <= GRAD_TOL:
            trace.converged = True
            return p, trace
        if it == max_iters:
            break
        try:
            p, accepted, loss = riemannian_step(m, p, (xi, dv), slope, s, eta, loss)
        except StalledOptimizationError:
            # No further float-representable decrease; stop here
            # (typically this happens sitting on the minimizer).
            break
        # Grow the trial step after a clean acceptance, so the line search
        # stays near the largest workable step without re-tuning.
        eta = min(accepted * 1.5, 1e3 * STEP_SIZE) if accepted == eta else accepted

    return p, trace
