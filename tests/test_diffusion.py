"""Denoiser training objectives, pretraining loop, sampling, checkpoints."""

import json
from dataclasses import replace

import numpy as np
import pytest

from noisedistill.diffusion import (
    TrainConfig,
    ambient_sample,
    denoising_loss,
    load_checkpoint,
    pretrain,
    save_checkpoint,
)
from noisedistill.errors import DivergenceError, PreconditionError
from noisedistill.gaussians import fit_gaussian
from noisedistill.nets import DenseNet
from noisedistill.rng import derive, make_rng
from noisedistill.schedule import NoiseSchedule
from noisedistill.toydata import make_dataset

SCHED = NoiseSchedule(0.02, 2.5)


def tiny_net(seed=0, sizes=(3, 16, 16, 2)):
    return DenseNet.initialized(list(sizes), derive(seed, 1))


class TestLossDegenerations:
    def test_sigma_hat_zero_reduces_to_standard_bitwise(self):
        data = make_dataset("ring", 256, 0.05, seed=1)
        cfg = TrainConfig(batch_size=32, lr=1e-3, steps=20, schedule=SCHED, sigma_hat=0.0, seed=5)
        net_a, net_s = tiny_net(1), tiny_net(1)
        curve_a = pretrain(net_a, data, replace(cfg, mode="ambient"))
        curve_s = pretrain(net_s, data, replace(cfg, mode="standard"))
        assert curve_a == curve_s
        assert np.array_equal(net_a.get_flat(), net_s.get_flat())

    def test_negative_sigma_hat_rejected(self):
        with pytest.raises(PreconditionError):
            denoising_loss(tiny_net(1), np.zeros((4, 2)), -0.1, SCHED, make_rng(0))

    def test_clipped_level_gives_exactly_zero_per_sample_loss(self):
        # constant schedule at sigma_hat: every draw is clipped, x_t == y
        net = tiny_net(2)
        sigma_hat = 0.3
        sched = NoiseSchedule(sigma_hat / 2, sigma_hat / 2)  # always below, always clipped
        batch = derive(2, 2).standard_normal((16, 2))
        loss, grads = denoising_loss(net, batch, sigma_hat, sched, make_rng(6))
        assert loss == 0.0
        assert all(np.all(g == 0) for g in grads)

    def test_identical_seeds_identical_loss(self):
        net = tiny_net(3)
        batch = derive(3, 2).standard_normal((16, 2))
        l1, _ = denoising_loss(net, batch, 0.0, SCHED, make_rng(9))
        l2, _ = denoising_loss(net, batch, 0.0, SCHED, make_rng(9))
        assert l1 == l2

    def test_duplicated_rows_leave_loss_unchanged(self):
        # duplicating the batch with a duplicated RNG pattern keeps the mean
        net = tiny_net(4)
        batch = derive(4, 2).standard_normal((8, 2))
        rng = make_rng(11)
        l1, _ = denoising_loss(net, batch, 0.0, SCHED, rng)
        # expectation argument: mean over duplicated rows equals mean over rows
        doubled = np.vstack([batch, batch])
        l2s = [denoising_loss(net, doubled, 0.0, SCHED, make_rng(s))[0] for s in range(40)]
        l1s = [denoising_loss(net, batch, 0.0, SCHED, make_rng(s))[0] for s in range(40)]
        assert np.mean(l2s) == pytest.approx(np.mean(l1s), rel=0.15)

    def test_gradients_flow_to_all_parameters(self):
        net = tiny_net(5)
        batch = derive(5, 2).standard_normal((64, 2))
        loss, grads = denoising_loss(net, batch, 0.0, SCHED, make_rng(12))
        assert loss >= 0
        assert all(np.any(g != 0) for g in grads)

    def test_empty_batch_rejected(self):
        with pytest.raises(PreconditionError):
            denoising_loss(tiny_net(6), np.empty((0, 2)), 0.0, SCHED, make_rng(0))


class TestMemorizationFloor:
    def test_single_point_floor_via_monte_carlo_oracle(self):
        # Brute-force oracle: with one repeated training point the posterior
        # mean is that point, so the attainable floor of the loss is 0, while
        # the identity predictor f(x_t) = x_t sits at the residual-noise level
        # E||x_t - x||^2 = d * sigma0^2.
        sigma0 = 0.1
        sched = NoiseSchedule(sigma0, sigma0)
        point = np.array([0.4, -0.2])
        rng = make_rng(20)
        eps = rng.standard_normal((200000, 2))
        mc_identity = float(np.mean(np.sum((sigma0 * eps) ** 2, axis=1)))
        assert mc_identity == pytest.approx(2 * sigma0**2, rel=0.02)
        # posterior mean of a point mass is the point itself: the floor is 0
        mc_floor = float(np.mean(np.sum((np.tile(point, (8, 1)) - point) ** 2, axis=1)))
        assert mc_floor == 0.0

        # a trained net on the repeated point approaches the floor, far below
        # the identity predictor's residual level
        net = DenseNet.initialized([3, 16, 16, 2], derive(21, 1))
        data = np.tile(point, (512, 1))

        class _Data:
            points = data

        cfg = TrainConfig(batch_size=64, lr=3e-3, steps=2500, schedule=sched, seed=3,
                          mode="standard")
        curve = pretrain(net, _Data(), cfg)
        tail = float(np.mean(curve[-100:]))
        assert tail < 0.1 * mc_identity


def _rms(diff):
    return float(np.sqrt(np.mean(np.sum(diff**2, axis=1))))


def _empirical_ambient_minimizer(points, sigma_hat, x_t, sigma_t):
    """Exact minimizer over f of the ambient objective on a finite point set.

    With y uniform over ``points`` and x_t = y + sqrt(sigma_t^2 - sigma_hat^2)
    eps, the objective is minimized where w_net f + w_skip x_t = E[y | x_t],
    and that conditional mean is the softmax-weighted kernel mean of the points.
    """
    resid_var = sigma_t**2 - sigma_hat**2
    sq_dist = (np.sum(x_t**2, axis=1)[:, None] - 2.0 * x_t @ points.T
               + np.sum(points**2, axis=1)[None, :])
    logits = -sq_dist / (2.0 * resid_var)
    weights = np.exp(logits - logits.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    return (weights @ points - (sigma_hat**2 / sigma_t**2) * x_t) / (resid_var / sigma_t**2)


class TestAmbientPosteriorMean:
    def test_linear_gaussian_oracle_at_three_noise_levels(self):
        # 2-D rank-1 linear-Gaussian data observed at sigma_hat = 0.2: the
        # ambient objective should drive f toward the clean posterior mean
        # E[x0 | x_t] = EE^T (EE^T + sigma_t^2 I)^{-1} x_t, not toward the
        # noisy one E[y | x_t] = (EE^T + sigma_hat^2 I)(EE^T + sigma_t^2 I)^{-1} x_t.
        e = np.array([[0.6], [0.8]])
        rng = derive(30, 1)
        z = rng.standard_normal((4096, 1))
        sigma_data = 0.2
        clean = z @ e.T
        noisy = clean + sigma_data * rng.standard_normal(clean.shape)

        class _Data:
            points = noisy

        sched = NoiseSchedule(0.05, 2.0)
        net = DenseNet.initialized([3, 64, 64, 2], derive(30, 2))
        cfg = TrainConfig(batch_size=384, lr=1e-3, steps=20000, schedule=sched,
                          sigma_hat=sigma_data, seed=5, mode="ambient")
        pretrain(net, _Data(), cfg)

        def posterior_means(x, sigma_t):
            """E[x0 | x_t] and E[y | x_t] under the perturbed marginal."""
            inv_cov = np.linalg.inv(e @ e.T + sigma_t**2 * np.eye(2))
            noisy_gain = (e @ e.T + sigma_data**2 * np.eye(2)) @ inv_cov
            return x @ (e @ e.T @ inv_cov).T, x @ noisy_gain.T

        test_rng = derive(30, 3)
        levels = []
        for sigma_t in (0.3, 0.6, 1.2):
            cov = e @ e.T + sigma_t**2 * np.eye(2)
            x_t = (test_rng.standard_normal((512, 1)) @ e.T
                   + sigma_t * test_rng.standard_normal((512, 2)))
            # Agreement is asserted on the bulk of the perturbed marginal
            # N(0, cov): Mahalanobis radius at most 3 under cov.  The 3-sigma
            # tails hold ~1% of the training inputs and carry little signal.
            bulk = np.einsum("ij,jk,ik->i", x_t, np.linalg.inv(cov), x_t) <= 9.0
            levels.append((sigma_t, x_t[bulk]))

        def violations(predict):
            # Bulk RMS error to E[x0 | x_t] at every level, and at sigma_t <= 0.6
            # an error well below the error to E[y | x_t].  At sigma_t = 1.2 the
            # two means differ by only ~0.04 RMS, too little to tell them apart.
            # Six training seeds measure at most 0.022 / 0.019 / 0.033 RMS and a
            # ratio of at most 0.24; mode="standard" measures 0.094 / 0.065 RMS
            # and a ratio of 1.6-2.3.
            found = set()
            for sigma_t, x in levels:
                pred = predict(x, sigma_t)
                clean_mean, noisy_mean = posterior_means(x, sigma_t)
                clean_err = _rms(pred - clean_mean)
                if clean_err > 0.045:
                    found.add(("rms", sigma_t))
                if sigma_t <= 0.6 and clean_err > 0.5 * _rms(pred - noisy_mean):
                    found.add(("closer to E[y|x_t]", sigma_t))
            return found

        # Power: the noisy-data posterior mean (0.137 and 0.073 RMS from
        # E[x0 | x_t] at sigma_t = 0.3 and 0.6) must fail both checks, and the
        # midpoint of the two means, equally far from each (0.036 RMS at
        # sigma_t = 0.6), must fail the discrimination check.
        assert violations(lambda x, s: posterior_means(x, s)[1]) >= {
            ("rms", 0.3), ("rms", 0.6),
            ("closer to E[y|x_t]", 0.3), ("closer to E[y|x_t]", 0.6),
        }
        assert violations(lambda x, s: np.mean(posterior_means(x, s), axis=0)) >= {
            ("closer to E[y|x_t]", 0.3), ("closer to E[y|x_t]", 0.6),
        }
        # Attainability: the exact minimizer of the ambient objective on these
        # 4096 points must pass.  No max-error bound is asserted: the
        # minimizer's own worst-case error is 0.049 on the 2x-typical-radius
        # ball the test once used (0.11 on this bulk), so a max-error bound of
        # 0.05 sat on the finite-sample floor that no trained net can beat.
        assert violations(
            lambda x, s: _empirical_ambient_minimizer(noisy, sigma_data, x, s)
        ) == set()
        assert violations(net.forward) == set()


class TestPretrain:
    def test_zero_steps_leaves_net_unchanged(self):
        net = tiny_net(40)
        digest = net.params_digest()
        data = make_dataset("ring", 256, 0.05, seed=1)
        curve = pretrain(net, data, TrainConfig(steps=0, schedule=SCHED, seed=0, mode="ambient"))
        assert net.params_digest() == digest
        assert curve == []

    def test_two_seeds_differ_but_stay_healthy(self):
        data = make_dataset("ring", 512, 0.05, seed=2)
        nets = []
        for seed in (0, 1):
            net = tiny_net(41)
            cfg = TrainConfig(batch_size=64, lr=1e-3, steps=300, schedule=SCHED,
                              sigma_hat=0.05, seed=seed, mode="ambient")
            curve = pretrain(net, data, cfg)
            assert all(np.isfinite(v) and v < 1e6 for v in curve)
            nets.append(net.get_flat())
        assert not np.array_equal(nets[0], nets[1])

    def test_deterministic_for_fixed_seed(self):
        data = make_dataset("ring", 512, 0.05, seed=3)
        flats = []
        for _ in range(2):
            net = tiny_net(42)
            cfg = TrainConfig(batch_size=32, lr=1e-3, steps=200, schedule=SCHED, seed=7,
                              mode="standard")
            curve = pretrain(net, data, cfg)
            flats.append((net.get_flat(), tuple(curve)))
        assert np.array_equal(flats[0][0], flats[1][0])
        assert flats[0][1] == flats[1][1]

    def test_divergence_detector(self):
        data = make_dataset("ring", 512, 0.05, seed=4)
        net = tiny_net(43)
        net.weights[-1][...] *= 1e9  # guarantee an absurd loss
        cfg = TrainConfig(batch_size=32, lr=1e-3, steps=10, schedule=SCHED, seed=0,
                          mode="standard")
        with pytest.raises(DivergenceError) as exc:
            pretrain(net, data, cfg)
        assert "step" in exc.value.diagnostics

    def test_unknown_mode_rejected(self):
        with pytest.raises(PreconditionError):
            TrainConfig(schedule=SCHED, seed=0, mode="tweedie")


class _ZeroNet:
    """Denoiser stand-in predicting 0 everywhere."""

    data_dim = 2

    def forward(self, x, sigma):
        return np.zeros_like(x)


class _OracleDenoiser:
    """Exact posterior mean for N(0, EE^T) data under VE noise."""

    def __init__(self, e):
        self.e = e
        self.data_dim = e.shape[0]

    def forward(self, x, sigma):
        cov = self.e @ self.e.T + sigma**2 * np.eye(self.data_dim)
        gain = self.e @ self.e.T @ np.linalg.inv(cov)
        return x @ gain.T


class TestAmbientSampling:
    def test_zero_net_contracts_geometrically(self):
        # with f == 0 the recursion is x <- x * sigma_prev/sigma_t, which
        # telescopes to exactly sigma_min/sigma_max
        rng = make_rng(50)
        sched = NoiseSchedule(0.05, 5.0)
        net = _ZeroNet()
        (x,) = ambient_sample(net, 0.0, ("full",), 256, rng, sched, 40)
        rng2 = make_rng(50)
        x_init = rng2.standard_normal((256, 2)) * sched.sigma_max
        expected = x_init * (sched.sigma_min / sched.sigma_max)
        assert np.allclose(x, expected, atol=1e-12)

    def test_truncated_immediate_exit_at_large_sigma_hat(self):
        sched = NoiseSchedule(0.05, 2.0)
        net = _ZeroNet()
        (out,) = ambient_sample(net, sched.sigma_max + 1.0, ("truncated",), 64, make_rng(51), sched, 16)
        assert np.allclose(out, 0.0)  # one-step denoise of the initial noise

    def test_oracle_denoiser_recovers_data_covariance(self):
        e = np.array([[0.6], [0.8]])
        sched = NoiseSchedule(0.02, 5.0)
        net = _OracleDenoiser(e)
        (x,) = ambient_sample(net, 0.0, ("full",), 10000, make_rng(52), sched, 64)
        _, cov = fit_gaussian(x)
        assert np.max(np.abs(cov - e @ e.T)) <= 0.1

    def test_grid_refinement_changes_little_on_oracle(self):
        e = np.array([[0.6], [0.8]])
        sched = NoiseSchedule(0.02, 5.0)
        net = _OracleDenoiser(e)
        (x64,) = ambient_sample(net, 0.0, ("full",), 512, make_rng(53), sched, 64)
        (x128,) = ambient_sample(net, 0.0, ("full",), 512, make_rng(53), sched, 128)
        displacement = float(np.mean(np.linalg.norm(x64 - x128, axis=1)))
        assert displacement <= 0.05

    def test_bad_mode_and_steps_rejected(self):
        with pytest.raises(PreconditionError):
            ambient_sample(_ZeroNet(), 0.0, ("full",), 8, make_rng(0), SCHED, 1)
        for modes in (("midway",), (), ("full", "midway"), "full"):  # a bare name is no tuple
            with pytest.raises(PreconditionError, match="unknown sampling modes"):
                ambient_sample(_ZeroNet(), 0.0, modes, 8, make_rng(0), SCHED, 16)


def reference_walk(net, sigma_hat, mode, n, rng, schedule, steps):
    """The reverse walk written out step by step, one sampler per walk."""
    grid = schedule.sampling_grid(steps)
    x = rng.standard_normal((n, net.data_dim)) * grid[0]
    for i in range(len(grid) - 1):
        x0_hat = net.forward(x, grid[i])
        if mode == "truncated" and grid[i + 1] < sigma_hat:
            return x0_hat
        x = x - ((grid[i] - grid[i + 1]) / grid[i]) * (x - x0_hat)
    return x


class _CountingNet:
    """A net whose ``forward`` calls are counted."""

    def __init__(self, net):
        self.net, self.data_dim, self.calls = net, net.data_dim, 0

    def forward(self, x, sigma):
        self.calls += 1
        return self.net.forward(x, sigma)


class TestOneWalk:
    """One reverse walk serves both samplers, bit for bit as separate walks."""

    STEPS = 12
    GRID = SCHED.sampling_grid(STEPS)
    # below sigma_min (no truncation), inside the grid, just below and above
    # its second level (truncation at the last or the first step)
    SIGMA_HATS = (0.0, 0.01, 0.05, 0.3, float(GRID[1]), float(GRID[1]) * 1.001, 3.0)

    @pytest.mark.parametrize("sigma_hat", SIGMA_HATS)
    def test_joint_walk_equals_single_walks(self, sigma_hat):
        net = tiny_net(70)
        full, trunc = ambient_sample(net, sigma_hat, ("full", "truncated"), 300, make_rng(71),
                                     SCHED, self.STEPS)
        for mode, got in (("full", full), ("truncated", trunc)):
            (alone,) = ambient_sample(net, sigma_hat, (mode,), 300, make_rng(71), SCHED, self.STEPS)
            expected = reference_walk(net, sigma_hat, mode, 300, make_rng(71), SCHED, self.STEPS)
            assert np.array_equal(alone, expected)
            assert np.array_equal(got, expected)
        trunc_first, full_second = ambient_sample(net, sigma_hat, ("truncated", "full"), 300,
                                                  make_rng(71), SCHED, self.STEPS)
        assert np.array_equal(trunc_first, trunc) and np.array_equal(full_second, full)

    @pytest.mark.parametrize("sigma_hat", SIGMA_HATS)
    def test_forward_counts(self, sigma_hat):
        """The truncated walk stops after its truncation step; a walk that
        serves the full sampler makes every one of the steps - 1 passes."""
        below = [i for i in range(self.STEPS - 1) if self.GRID[i + 1] < sigma_hat]
        stop = below[0] + 1 if below else self.STEPS - 1
        for modes, calls in ((("truncated",), stop), (("full",), self.STEPS - 1),
                             (("full", "truncated"), self.STEPS - 1)):
            net = _CountingNet(_ZeroNet())
            ambient_sample(net, sigma_hat, modes, 16, make_rng(73), SCHED, self.STEPS)
            assert net.calls == calls, modes

    @pytest.mark.parametrize("modes", [("full",), ("truncated",), ("full", "truncated")],
                             ids=["full", "truncated", "full+truncated"])
    def test_overflowing_first_draw_names_sigma_max(self, modes):
        net = _CountingNet(tiny_net(74, (3, 4, 2)))
        with pytest.raises(PreconditionError, match=r"sigma_max 1e\+308 is too large"):
            ambient_sample(net, 0.05, modes, 64, make_rng(75), NoiseSchedule(0.035, 1e308), 8)
        assert net.calls == 0


class TestCheckpoints:
    def test_roundtrip_value_exact(self, tmp_path):
        net = tiny_net(60)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, net, "ambient", 0.077, SCHED, "config_hash=abc seed=9 version=0.1.0")
        loaded, mode, sigma_hat, schedule = load_checkpoint(path)
        assert mode == "ambient" and sigma_hat == 0.077
        assert schedule == SCHED
        assert loaded.layer_sizes == net.layer_sizes
        assert np.array_equal(loaded.get_flat(), net.get_flat())
        payload = json.loads(path.read_text())  # only the fields a reader uses
        assert sorted(payload) == ["biases", "format", "layer_sizes", "mode", "provenance",
                                   "schedule", "sigma_hat", "version", "weights"]
        assert payload["version"] == 2
        assert payload["provenance"] == "config_hash=abc seed=9 version=0.1.0"

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(PreconditionError):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage", ["short_weight", "short_bias", "nan_weight", "inf_bias",
                                        "unknown_mode", "missing_version", "negative_sigma_hat"])
    def test_rejects_shape_mismatch_nonfinite_and_unknown_mode(self, tmp_path, damage):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, tiny_net(61), "ambient", 0.0, SCHED, "")
        payload = json.loads(path.read_text())
        if damage == "short_weight":
            payload["weights"][1] = payload["weights"][1][:-1]
        elif damage == "short_bias":
            payload["biases"][0] = payload["biases"][0][:-1]
        elif damage == "nan_weight":
            payload["weights"][0][0][0] = float("nan")
        elif damage == "inf_bias":
            payload["biases"][2][0] = float("inf")
        elif damage == "missing_version":
            del payload["version"]
        elif damage == "negative_sigma_hat":
            payload["sigma_hat"] = -0.1
        else:
            payload["mode"] = "tweedie"
        path.write_text(json.dumps(payload))
        with pytest.raises(PreconditionError):
            load_checkpoint(path)
