"""Riemannian descent over the generator constraint set."""

import numpy as np
import pytest

from noisedistill import stiefel
from noisedistill.errors import StalledOptimizationError
from noisedistill.linear_theory import (
    GeneratorParams,
    LinearModel,
    analytic_minimizer,
    loss_closed_form,
    principal_angles,
)
from noisedistill.rng import make_rng
from noisedistill.schedule import NoiseSchedule
from noisedistill.stiefel import (
    VTV_FLOOR,
    euclidean_gradient,
    optimize,
    random_params,
    retract,
    riemannian_step,
    tangent_project,
)


def frame(d, r, rng):
    return retract(np.zeros((d, r)), rng.standard_normal((d, r)))


def model(seed=0, d=6, r=2, sigma=0.3):
    return LinearModel(basis=frame(d, r, make_rng(seed)), sigma=sigma)


SCHED = NoiseSchedule()
ITERS = 2000  # the verify battery's budget per descent


def line_search(m, p, grads, step_size, loss):
    """``riemannian_step`` along the Euclidean gradient ``grads``, projected and
    measured as ``optimize`` does."""
    xi, dv = tangent_project(p.u, grads[0]), grads[1]
    return riemannian_step(m, p, (xi, dv), float(np.sum(xi * xi) + np.sum(dv * dv)), SCHED, step_size, loss)


class TestEuclideanGradient:
    def test_finite_difference_agreement_on_v(self):
        rng = make_rng(1)
        m = model(1)
        p = GeneratorParams(u=frame(6, 2, rng), v=rng.standard_normal((6, 2)))
        _, dv = euclidean_gradient(m, p, SCHED)
        h = 1e-6
        for i, j in [(0, 0), (3, 1), (5, 0)]:
            vp, vm = p.v.copy(), p.v.copy()
            vp[i, j] += h
            vm[i, j] -= h
            fd = (
                loss_closed_form(m, GeneratorParams(u=p.u, v=vp), SCHED)
                - loss_closed_form(m, GeneratorParams(u=p.u, v=vm), SCHED)
            ) / (2 * h)
            assert dv[i, j] == pytest.approx(fd, rel=1e-5)

    def test_finite_difference_agreement_on_u_tangent(self):
        rng = make_rng(200)  # distinct from the model's frame stream
        m = model(2)
        p = GeneratorParams(u=frame(6, 2, rng), v=rng.standard_normal((6, 2)))
        du, _ = euclidean_gradient(m, p, SCHED)
        xi = tangent_project(p.u, rng.standard_normal((6, 2)))
        h = 1e-6
        fd = (
            loss_closed_form(m, GeneratorParams(u=retract(p.u, h * xi), v=p.v), SCHED)
            - loss_closed_form(m, GeneratorParams(u=retract(p.u, -h * xi), v=p.v), SCHED)
        ) / (2 * h)
        assert float(np.sum(du * xi)) == pytest.approx(fd, rel=1e-5)

    def test_riemannian_gradient_vanishes_at_minimizer(self):
        m = model(3, sigma=0.5)
        star = analytic_minimizer(m)
        du, dv = euclidean_gradient(m, star, SCHED)
        xi = tangent_project(star.u, du)
        assert np.sqrt(np.sum(xi**2) + np.sum(dv**2)) <= 1e-7

    def test_gauge_direction_has_zero_derivative(self):
        rng = make_rng(4)
        m = model(4)
        p = GeneratorParams(u=frame(6, 2, rng), v=rng.standard_normal((6, 2)))
        du, dv = euclidean_gradient(m, p, SCHED)
        omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
        directional = float(np.sum(du * (p.u @ omega)) + np.sum(dv * (p.v @ omega)))
        assert abs(directional) <= 1e-9 * max(1.0, np.abs(du).max() + np.abs(dv).max())


class TestRiemannianStep:
    def test_zero_gradient_leaves_params_untouched(self):
        rng = make_rng(10)
        m = model(10)
        p = GeneratorParams(u=frame(6, 2, rng), v=rng.standard_normal((6, 2)))
        zeros = (np.zeros_like(p.u), np.zeros_like(p.v))
        loss = loss_closed_form(m, p, SCHED)
        p2, step, after = line_search(m, p, zeros, 0.2, loss)
        assert p2 is p and step == 0.2 and after == loss

    def test_step_from_perturbed_minimizer_decreases_loss(self):
        rng = make_rng(11)
        m = model(11, sigma=0.5)
        star = analytic_minimizer(m)
        p = GeneratorParams(
            u=retract(star.u, 0.05 * rng.standard_normal(star.u.shape)),
            v=star.v + 0.05 * rng.standard_normal(star.v.shape),
        )
        before = loss_closed_form(m, p, SCHED)
        grads = euclidean_gradient(m, p, SCHED)
        _, _, after = line_search(m, p, grads, 0.2, before)
        assert after < before

    def test_feasibility_after_step(self):
        rng = make_rng(12)
        m = model(12)
        p = random_params(6, 2, seed=5)
        grads = euclidean_gradient(m, p, SCHED)
        p2, _, _ = line_search(m, p, grads, 0.2, loss_closed_form(m, p, SCHED))
        assert np.max(np.abs(p2.u.T @ p2.u - np.eye(2))) <= 1e-10

    def test_retraction_idempotent_on_zero_tangent(self):
        u = frame(6, 2, make_rng(13))
        assert retract(u, np.zeros_like(u)) is not u
        # the step-level contract: zero direction keeps the point bit-exact
        q = retract(u, 0.0 * u)
        assert np.allclose(q @ (q.T @ u), u, atol=1e-14)

    def test_floor_rejects_a_trial_step_before_it_becomes_params(self):
        # the full step zeroes V's first column exactly, so V^T V is singular;
        # the floor must reject it and the half step must be taken
        m = model(16, sigma=0.5)
        e = m.basis
        p = GeneratorParams(u=e, v=2.0 * e)
        grads = (np.zeros_like(e), 4.0 * p.v * [1.0, 0.0])
        p2, step, after = line_search(m, p, grads, 0.25, loss_closed_form(m, p, SCHED))
        assert step == 0.125
        assert np.linalg.eigvalsh(p2.gram())[0] >= VTV_FLOOR  # p2 is params, so U is on the manifold
        assert after == loss_closed_form(m, p2, SCHED)

    def test_each_trial_step_computes_one_spectrum(self, monkeypatch):
        """The floor test and the params share one ``eigvalsh`` per trial."""
        m = model(22, d=8, sigma=0.5)
        p0 = random_params(8, 2, seed=1000)
        calls = {"retract": 0, "eigvalsh": 0}

        def counted(name, fn):
            def spy(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return spy

        monkeypatch.setattr(stiefel, "retract", counted("retract", retract))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        _, trace = optimize(m, p0, SCHED, 40)
        assert calls["retract"] >= len(trace.iters) - 1 > 0
        assert calls["eigvalsh"] == calls["retract"]

    def test_stall_raises_on_ascent_direction(self):
        rng = make_rng(150)
        m = model(15, sigma=0.5)
        p = GeneratorParams(u=frame(6, 2, rng), v=rng.standard_normal((6, 2)))
        du, dv = euclidean_gradient(m, p, SCHED)
        # feeding the negated gradient makes every trial step go uphill, so
        # backtracking can never satisfy Armijo and must underflow
        with pytest.raises(StalledOptimizationError):
            line_search(m, p, (-du, -dv), 0.2, loss_closed_form(m, p, SCHED))


class TestOptimize:
    def test_init_at_minimizer_terminates_immediately(self):
        m = model(20, sigma=0.5)
        star = analytic_minimizer(m)
        p, trace = optimize(m, star, SCHED, ITERS)
        assert trace.converged
        assert trace.iters[-1] <= 1

    def test_multi_seed_convergence_study(self):
        m = LinearModel(basis=frame(8, 2, make_rng(21)), sigma=0.5)
        successes = 0
        for k in range(8):
            p0 = random_params(8, 2, seed=100 + k)
            p, _ = optimize(m, p0, SCHED, ITERS)
            if (principal_angles(p.u, m.basis)[0] <= 1e-3
                    and np.linalg.norm(p.gram() - 1.25 * np.eye(2)) <= 1e-3):
                successes += 1
        assert successes >= 7

    def test_zero_noise_convergence(self):
        # sigma = 0 with a very small schedule floor is brutally conditioned
        # (misaligned mass is penalized at 1/sigma_min^4 and V collapses
        # before U can rotate); a floor of 0.2 keeps the specialization
        # testable without changing what the minimizer is.
        m = LinearModel(basis=frame(6, 2, make_rng(22)), sigma=0.0)
        sched = NoiseSchedule(0.2, 5.0)
        p, _ = optimize(m, random_params(6, 2, seed=3), sched, ITERS)
        assert principal_angles(p.u, m.basis)[0] <= 1e-3
        assert np.linalg.norm(p.gram() - np.eye(2)) <= 1e-3

    def test_monotone_loss_and_feasibility_along_trace(self):
        m = model(23, d=8, r=2, sigma=0.5)
        p, trace = optimize(m, random_params(8, 2, seed=9), SCHED, ITERS)
        losses = np.array(trace.losses)
        assert np.all(np.diff(losses) <= 1e-12)
        assert np.max(np.abs(p.u.T @ p.u - np.eye(2))) <= 1e-10

    def test_convergence_certificate(self):
        m = model(24, d=8, r=2, sigma=0.5)
        p, trace = optimize(m, random_params(8, 2, seed=17), SCHED, ITERS)
        assert trace.converged
        gap = loss_closed_form(m, p, SCHED) - loss_closed_form(m, analytic_minimizer(m), SCHED)
        assert gap <= 1e-6

    def test_gauge_quotient_metrics_invariant(self):
        rng = make_rng(25)
        m = model(25)
        p = GeneratorParams(u=frame(6, 2, rng), v=rng.standard_normal((6, 2)))
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        p2 = GeneratorParams(u=p.u @ q, v=p.v @ q)
        a1 = principal_angles(p.u, m.basis)[0]
        a2 = principal_angles(p2.u, m.basis)[0]
        assert a1 == pytest.approx(a2, abs=1e-10)
        assert np.linalg.norm(p.gram() - 1.09 * np.eye(2)) == pytest.approx(
            np.linalg.norm(p2.gram() - 1.09 * np.eye(2)), abs=1e-10
        )

