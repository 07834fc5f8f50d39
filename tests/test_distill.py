"""Distillation engine: estimators and the alternation loop."""

import numpy as np
import pytest

from noisedistill import distill
from noisedistill.diffusion import DIVERGENCE_THRESHOLD
from noisedistill.distill import (
    DistillConfig,
    draw_perturbation,
    fake_update,
    generator_forward,
    generator_update,
    init_distillation,
    loss_weights,
    run_distillation,
    x_g_grad_dmd,
    x_g_grad_sds,
    x_g_grad_sid,
)
from noisedistill.errors import DivergenceError, PreconditionError
from noisedistill.nets import DenseNet
from noisedistill.rng import derive, make_rng
from noisedistill.schedule import NoiseSchedule

SCHED = NoiseSchedule(0.05, 2.0)


def tiny_teacher(seed=0, sizes=(3, 4, 2)):
    return DenseNet.initialized(list(sizes), derive(seed, 1))


def config(**kw):
    base = dict(method="sid", mode="adjusted", alpha=1.2, lr_fake=1e-3, lr_gen=1e-3,
                steps=4, batch_size=8, sigma_hat=0.1, schedule=SCHED, seed=0,
                eval_every=2, weighting="sigma2")
    base.update(kw)
    return DistillConfig(**base)


def no_metrics(state):
    return {}


def perturbed_state(cfg, seed=0, scale=0.3):
    state = init_distillation(tiny_teacher(seed), cfg)
    rng = derive(seed, 9)
    state.fake.set_flat(state.fake.get_flat() + scale * rng.standard_normal(state.fake.n_params()))
    state.generator.set_flat(
        state.generator.get_flat() + scale * rng.standard_normal(state.generator.n_params())
    )
    return state


def generator_grads(x_g_grad, state, z, rng):
    """An estimator's gradient for the generator's parameters, carried back
    from x_g as ``generator_update`` does."""
    p = draw_perturbation(state, z, rng)
    return state.generator.backward(p.cache_g, x_g_grad(state, p))


def flat(grads):
    return np.concatenate([g.ravel() for g in grads])


class TestInit:
    def test_fake_equals_teacher_everywhere(self):
        state = init_distillation(tiny_teacher(1), config())
        x = derive(1, 2).standard_normal((16, 2))
        assert np.array_equal(state.fake.forward(x, 0.7), state.teacher.forward(x, 0.7))

    def test_generator_finite_on_standard_normals(self):
        state = init_distillation(tiny_teacher(2), config())
        z = derive(2, 2).standard_normal((1000, 2))
        assert np.all(np.isfinite(generator_forward(state.generator, z, SCHED)))

    def test_same_seed_identical_states(self):
        a = init_distillation(tiny_teacher(3), config())
        b = init_distillation(tiny_teacher(3), config())
        assert a.fake.params_digest() == b.fake.params_digest()
        assert a.generator.params_digest() == b.generator.params_digest()

    def test_non_square_teacher_rejected(self):
        with pytest.raises(PreconditionError):
            init_distillation(DenseNet.initialized([3, 4, 1], derive(0, 1)), config())


class TestEstimatorZeros:
    def test_dmd_zero_at_fake_equals_teacher(self):
        state = init_distillation(tiny_teacher(5), config(method="dmd"))
        z = derive(5, 2).standard_normal((8, 2))
        grads = generator_grads(x_g_grad_dmd, state, z, make_rng(1))
        assert all(np.all(g == 0) for g in grads)

    def test_sid_zero_at_fake_equals_teacher(self):
        state = init_distillation(tiny_teacher(6), config())
        z = derive(6, 2).standard_normal((8, 2))
        grads = generator_grads(x_g_grad_sid, state, z, make_rng(1))
        assert all(np.all(g == 0) for g in grads)

    def test_sds_zero_when_teacher_predicts_noise_exactly(self):
        # a teacher whose eps-prediction equals the injected noise comes from
        # f(x_t) = x_t - sigma_t * eps = x_g (adjusted mode at sigma_hat 0);
        # emulate with an exact stand-in
        cfg = config(method="sds", sigma_hat=0.0, mode="adjusted")
        state = init_distillation(tiny_teacher(7), cfg)
        z = derive(7, 2).standard_normal((8, 2))

        class ExactTeacher:
            data_dim = 2

            def forward(self, x, sigma):
                return perturbation.x_g

        rng = make_rng(3)
        perturbation = draw_perturbation(state, z, rng)
        state.teacher = ExactTeacher()
        grads = generator_grads(x_g_grad_sds, state, z, make_rng(3))
        assert max(np.abs(g).max() for g in grads) <= 1e-12

    def test_zero_weight_gives_zero_gradient(self):
        state = perturbed_state(config(method="sds", weighting="constant"), seed=8)
        z = derive(8, 2).standard_normal((8, 2))
        grads = generator_grads(x_g_grad_sds, state, z, make_rng(2))
        assert any(np.any(g != 0) for g in grads)
        # the weighting hook controls the scale: sigma2 weights differ from constant
        state2 = perturbed_state(config(method="sds", weighting="sigma2"), seed=8)
        grads2 = generator_grads(x_g_grad_sds, state2, z, make_rng(2))
        assert not np.allclose(flat(grads), flat(grads2))

    def test_dmd_antisymmetric_in_swapped_nets(self):
        cfg = config(method="dmd")
        state = perturbed_state(cfg, seed=9)
        z = derive(9, 2).standard_normal((8, 2))
        g1 = generator_grads(x_g_grad_dmd, state, z, make_rng(5))
        state.teacher, state.fake = state.fake, state.teacher
        g2 = generator_grads(x_g_grad_dmd, state, z, make_rng(5))
        assert np.allclose(flat(g1), -flat(g2), atol=1e-12)


class TestEstimatorFiniteDifferences:
    """Each estimator must equal central finite differences of its surrogate
    objective with the same frozen draws, at <= 1e-5 relative error."""

    def _fd(self, state, objective, h=1e-6):
        base = state.generator.get_flat()
        out = np.zeros_like(base)
        for i in range(base.size):
            for sign in (1.0, -1.0):
                probe = base.copy()
                probe[i] += sign * h
                state.generator.set_flat(probe)
                if sign > 0:
                    up = objective()
                else:
                    dn = objective()
            out[i] = (up - dn) / (2 * h)
        state.generator.set_flat(base)
        return out

    def _check(self, analytic, fd):
        denom = np.maximum(np.abs(analytic) + np.abs(fd), 1e-8)
        assert float(np.max(np.abs(analytic - fd) / denom)) <= 1e-5

    def test_sds_vjp(self):
        cfg = config(method="sds")
        state = perturbed_state(cfg, seed=10)
        z = derive(10, 2).standard_normal((5, 2))
        n = z.shape[0]

        p0 = draw_perturbation(state, z, make_rng(11))
        f_phi = state.teacher.forward(p0.x_t, p0.sigma_t)
        eps_phi = (p0.x_t - f_phi) / p0.sigma_t[:, None]
        u_frozen = loss_weights(cfg.weighting, p0.sigma_t, f_phi, p0.x_g) * (eps_phi - p0.eps) / n

        def objective():
            p = draw_perturbation(state, z, make_rng(11))
            return float(np.sum(u_frozen * p.x_g))

        analytic = flat(generator_grads(x_g_grad_sds, state, z, make_rng(11)))
        self._check(analytic, self._fd(state, objective))

    def test_dmd_vjp(self):
        cfg = config(method="dmd")
        state = perturbed_state(cfg, seed=12)
        z = derive(12, 2).standard_normal((5, 2))
        n = z.shape[0]

        p0 = draw_perturbation(state, z, make_rng(13))
        f_phi = state.teacher.forward(p0.x_t, p0.sigma_t)
        f_psi = state.fake.forward(p0.x_t, p0.sigma_t)
        s_diff = (f_psi - f_phi) / (p0.sigma_t**2)[:, None]  # s_psi - s_phi
        u_frozen = loss_weights(cfg.weighting, p0.sigma_t, f_phi, p0.x_g) * s_diff / n

        def objective():
            p = draw_perturbation(state, z, make_rng(13))
            return float(np.sum(u_frozen * p.x_g))

        analytic = flat(generator_grads(x_g_grad_dmd, state, z, make_rng(13)))
        self._check(analytic, self._fd(state, objective))

    @pytest.mark.parametrize("alpha", [1.2, 1.0])
    def test_sid_full_estimator(self, alpha):
        cfg = config(method="sid", alpha=alpha)
        state = perturbed_state(cfg, seed=14)
        z = derive(14, 2).standard_normal((5, 2))
        n = z.shape[0]

        p0 = draw_perturbation(state, z, make_rng(15))
        f_phi0 = state.teacher.forward(p0.x_t, p0.sigma_t)
        w_frozen = loss_weights(cfg.weighting, p0.sigma_t, f_phi0, p0.x_g) / n

        def objective():
            p = draw_perturbation(state, z, make_rng(15))
            f_phi = state.teacher.forward(p.x_t, p.sigma_t)
            f_psi = state.fake.forward(p.x_t, p.sigma_t)
            term1 = (1 - alpha) * np.sum(w_frozen[:, 0] * np.sum((f_psi - f_phi) ** 2, axis=1))
            term2 = np.sum(w_frozen[:, 0] * np.sum((f_phi - f_psi) * (f_psi - p.x_g), axis=1))
            return float(term1 + term2)

        analytic = flat(generator_grads(x_g_grad_sid, state, z, make_rng(15)))
        self._check(analytic, self._fd(state, objective))

    def test_sid_alpha_one_matches_hand_product_rule(self):
        # 2-parameter toy: a linear generator G(z) = theta * z with frozen
        # linear teacher/fake stand-ins; assemble the alpha=1 gradient by hand
        class LinearNet:
            def __init__(self, a):
                self.a = np.array(a, dtype=float)
                self.data_dim = 2

            def forward(self, x, sigma):
                return x * self.a

            def forward_cached(self, x, sigma):
                return x * self.a, ("lin", x)

            def backward(self, cache, upstream, params=True):
                _, x = cache
                d_input = upstream * self.a
                return [np.sum(upstream * x, axis=0)] if params else d_input

        cfg = config(method="sid", alpha=1.0, weighting="constant", sigma_hat=0.0)
        gen = LinearNet([1.3, 0.7])
        state = init_distillation(tiny_teacher(16), cfg)
        state.generator = gen
        state.teacher = LinearNet([0.9, 1.1])
        state.fake = LinearNet([0.8, 1.2])

        z = derive(16, 2).standard_normal((4, 2))
        analytic = generator_grads(x_g_grad_sid, state, z, make_rng(17))[0]

        p = draw_perturbation(state, z, make_rng(17))
        a_phi, a_psi, a_g = state.teacher.a, state.fake.a, gen.a
        n = z.shape[0]
        # J = mean_i (f_phi - f_psi) . (f_psi - x_g), x_t = a_g z + sig eps
        # d/da_g: through x_t in both nets and through x_g directly
        x_t, x_g = p.x_t, p.x_g
        dxt_da = z  # d x_t / d a_g (elementwise parameterization)
        f_phi, f_psi = x_t * a_phi, x_t * a_psi
        term_xt = ((a_phi - a_psi) * (f_psi - x_g) + f_phi * a_psi - f_psi * a_psi) * dxt_da
        term_xg = -(f_phi - f_psi) * z
        hand = np.sum(term_xt + term_xg, axis=0) / n
        assert np.allclose(analytic, hand, rtol=1e-10, atol=1e-12)


class TestAlternation:
    def test_fake_update_lr_zero_keeps_params(self):
        state = init_distillation(tiny_teacher(20), config(lr_fake=1e-30))
        before = state.fake.get_flat().copy()
        fake_update(state, make_rng(1))
        assert np.allclose(state.fake.get_flat(), before, atol=1e-20)

    def test_adjusted_sigma_zero_equals_standard_bitwise(self):
        for mode in ("standard", "adjusted"):
            state = init_distillation(tiny_teacher(21), config(mode=mode, sigma_hat=0.0))
            fake_update(state, make_rng(9))
            if mode == "standard":
                standard_digest = state.fake.params_digest()
            else:
                assert state.fake.params_digest() == standard_digest

    def test_generator_update_zero_gradient_case(self):
        # DMD at psi == phi: zero gradient, theta untouched on the first step
        state = init_distillation(tiny_teacher(22), config(method="dmd"))
        before = state.generator.get_flat().copy()
        generator_update(state, make_rng(2))
        assert np.array_equal(state.generator.get_flat(), before)
        assert state.gen_opt.t == 1  # optimizer bookkeeping advanced

    def test_fake_loss_decreases_on_frozen_generator(self):
        cfg = config(steps=500, batch_size=64, lr_fake=2e-3, lr_gen=1e-3, sigma_hat=0.05)
        state = init_distillation(DenseNet.initialized([3, 24, 24, 2], derive(23, 1)), cfg)
        rng = make_rng(3)
        losses = [fake_update(state, rng) for _ in range(500)]
        # monotone trend with tolerance; the loss keeps an irreducible
        # posterior-variance floor, so only the direction is asserted
        assert np.mean(losses[-100:]) < 0.75 * np.mean(losses[:50])

    def test_loop_body_ordering(self, monkeypatch):
        calls = []

        def recording(name, real):
            def wrapper(state, rng):
                calls.append((name, state.step))
                return real(state, rng)
            return wrapper

        for name in ("fake_update", "generator_update"):
            monkeypatch.setattr(distill, name, recording(name, getattr(distill, name)))
        teacher = tiny_teacher(24)
        cfg = config(steps=3, eval_every=10)
        run_distillation(teacher, cfg, eval_hook=no_metrics,
                         loss_limit=DIVERGENCE_THRESHOLD)
        per_step = {}
        for name, step in calls:
            per_step.setdefault(step, []).append(name)
        assert sorted(per_step) == [1, 2, 3]
        for step, names in per_step.items():
            assert names == ["fake_update", "generator_update"]

    def test_adjusted_mode_rejects_sigma_hat_at_sigma_max(self):
        for sigma_hat in (SCHED.sigma_max, 1.5 * SCHED.sigma_max):
            with pytest.raises(PreconditionError, match="sigma_max"):
                config(mode="adjusted", sigma_hat=sigma_hat)
            config(mode="standard", sigma_hat=sigma_hat)  # its fake update does not clip

    def test_teacher_immutable_and_deterministic_history(self):
        teacher = tiny_teacher(26)
        digest = teacher.params_digest()
        cfg = config(steps=6, eval_every=3)
        _, hist1 = run_distillation(teacher, cfg, eval_hook=no_metrics,
                                    loss_limit=DIVERGENCE_THRESHOLD)
        assert teacher.params_digest() == digest
        _, hist2 = run_distillation(teacher, cfg, eval_hook=no_metrics,
                                    loss_limit=DIVERGENCE_THRESHOLD)
        assert repr(hist1) == repr(hist2)  # repr-compare so nan == nan rows agree

    def test_divergence_in_the_eval_hook_keeps_the_last_evaluated_generator(self):
        seen = {}

        def hook(state):
            if state.step == 4:
                raise DivergenceError("samples diverged", diagnostics={"source": "test"})
            seen[state.step] = state.generator.params_digest()
            return {}

        with pytest.raises(DivergenceError) as caught:
            run_distillation(tiny_teacher(28), config(steps=6, eval_every=1),
                             eval_hook=hook, loss_limit=DIVERGENCE_THRESHOLD)
        assert sorted(seen) == [0, 1, 2, 3]
        assert caught.value.checkpoint.params_digest() == seen[3]
        assert caught.value.diagnostics == {"source": "test", "step": 4}

    def test_sds_skips_fake_updates(self):
        teacher = tiny_teacher(27)
        state, hist = run_distillation(teacher, config(method="sds", steps=3),
                                       eval_hook=no_metrics, loss_limit=DIVERGENCE_THRESHOLD)
        assert state.fake_opt.t == 0  # the fake net never took a step
        assert state.gen_opt.t == 3
        assert np.isnan(hist[-1]["fake_loss"])
