"""Moment-based evaluation: Frechet distance, proximal variant, selection."""

import numpy as np
import pytest

from noisedistill.diffusion import ambient_sample
from noisedistill.errors import PreconditionError
from noisedistill.gaussians import LowRankGaussian, fit_gaussian, sample, w2_commuting
from noisedistill.metrics import (
    evaluate_sources,
    frechet_between_samples,
    frechet_gaussian,
    proximal_fid,
    select_best_checkpoint,
)
from noisedistill.nets import DenseNet
from noisedistill.rng import derive, make_rng
from noisedistill.schedule import NoiseSchedule
from noisedistill.stiefel import retract
from noisedistill.toydata import make_dataset, sample_clean


class TestFrechetGaussian:
    def test_identical_inputs_zero(self):
        rng = make_rng(1)
        m = rng.standard_normal((3, 3))
        cov = m @ m.T
        mu = rng.standard_normal(3)
        assert frechet_gaussian(mu, cov, mu, cov) == 0.0

    def test_mean_shift_only(self):
        cov = np.array([[1.0, 0.2], [0.2, 0.5]])
        assert frechet_gaussian([0, 0], cov, [3, 4], cov) == pytest.approx(25.0, abs=1e-9)

    def test_commuting_case_matches_w2_plus_mean(self):
        rng = make_rng(2)
        f = retract(np.zeros((5, 2)), rng.standard_normal((5, 2)))
        a = LowRankGaussian(f, 1.2, 0.3)
        b = LowRankGaussian(f, 0.4, 0.9)
        mu1 = rng.standard_normal(5)
        mu2 = rng.standard_normal(5)
        expected = float(np.sum((mu1 - mu2) ** 2)) + w2_commuting(a, b)
        got = frechet_gaussian(mu1, a.dense_cov(), mu2, b.dense_cov())
        assert got == pytest.approx(expected, abs=1e-9)

    def test_symmetry(self):
        rng = make_rng(3)
        m1 = rng.standard_normal((2, 2))
        m2 = rng.standard_normal((2, 2))
        c1, c2 = m1 @ m1.T, m2 @ m2.T
        assert frechet_gaussian([0, 1], c1, [1, 0], c2) == pytest.approx(
            frechet_gaussian([1, 0], c2, [0, 1], c1), rel=1e-10
        )

    def test_identity_of_indiscernibles(self):
        rng = make_rng(4)
        m = rng.standard_normal((2, 2))
        cov = m @ m.T
        val = frechet_gaussian([0.3, 0.4], cov, [0.3, 0.4], cov + 1e-12 * np.eye(2))
        assert val <= 1e-9

    def test_marginally_indefinite_clamped(self):
        cov = np.array([[1.0, 0.0], [0.0, -5e-9]])  # within tolerance, clamped
        assert frechet_gaussian([0, 0], cov, [0, 0], np.eye(2)) >= 0.0

    def test_indefinite_beyond_tolerance_rejected(self):
        with pytest.raises(PreconditionError):
            frechet_gaussian([0, 0], np.diag([1.0, -1e-3]), [0, 0], np.eye(2))

    def test_two_homogeneous_in_sample_scale(self):
        # F(s a, s b) = s^2 F(a, b): finite samples of any spread give a number,
        # and the symmetry check scales with the matrices it guards
        rng = derive(30, 0)
        a = rng.standard_normal((4000, 2)) @ np.array([[1.0, 0.3], [0.0, 0.5]])
        b = 0.7 * rng.standard_normal((4000, 2)) + np.array([0.2, -0.1])
        base = frechet_between_samples(a, b)
        assert base > 0.1
        for s in (1.0, 1e2, 1e3, 1e5):
            assert frechet_between_samples(s * a, s * b) == pytest.approx(s**2 * base, rel=1e-9)

    def test_asymmetric_matrix_rejected_at_any_scale(self):
        asym = np.array([[1.0, 0.5], [0.0, 1.0]])
        for s in (1e-3, 1.0, 1e10):
            with pytest.raises(PreconditionError):
                frechet_gaussian([0, 0], s * asym, [0, 0], s * np.eye(2))


class TestProximalFid:
    def test_self_consistency_goes_to_zero(self):
        # generated == clean distribution, reference == clean + sigma noise:
        # after re-corruption both sides share the same law
        rng = derive(10, 0)
        n = 10000
        angle = rng.uniform(0, 2 * np.pi, n)
        clean = 0.25 * np.column_stack([np.cos(angle), np.sin(angle)])
        angle2 = rng.uniform(0, 2 * np.pi, n)
        reference = 0.25 * np.column_stack([np.cos(angle2), np.sin(angle2)])
        reference = reference + 0.05 * rng.standard_normal((n, 2))
        value = proximal_fid(clean, 0.05, reference, derive(10, 1))
        assert value <= 0.05

    def test_sigma_zero_reduces_to_plain_frechet(self):
        rng = make_rng(11)
        gen = rng.standard_normal((500, 2))
        ref = rng.standard_normal((500, 2)) + 0.3
        assert proximal_fid(gen, 0.0, ref, make_rng(0)) == frechet_between_samples(gen, ref)

    def test_deterministic_for_fixed_seed(self):
        rng = make_rng(12)
        gen = rng.standard_normal((200, 2))
        ref = rng.standard_normal((200, 2))
        a = proximal_fid(gen, 0.1, ref, make_rng(5))
        b = proximal_fid(gen, 0.1, ref, make_rng(5))
        assert a == b

    def test_insufficient_samples_rejected(self):
        with pytest.raises(PreconditionError):
            proximal_fid(np.zeros((10, 2)), 0.1, np.zeros((200, 2)), make_rng(0))


class TestSelection:
    def test_monotone_history_selects_last(self):
        history = [{"step": s, "proximal_fid": 1.0 / (s + 1), "frechet_clean": 2.0 / (s + 1)}
                   for s in range(5)]
        sel = select_best_checkpoint(history)
        assert sel["selected_step"] == 4
        assert sel["frechet_clean"] == pytest.approx(0.4)
        assert sel["best_frechet_clean"] == pytest.approx(0.4)

    def test_tie_breaks_to_earliest_step(self):
        history = [
            {"step": 0, "proximal_fid": 0.5, "frechet_clean": 0.5},
            {"step": 1, "proximal_fid": 0.2, "frechet_clean": 0.3},
            {"step": 2, "proximal_fid": 0.2, "frechet_clean": 0.1},
        ]
        assert select_best_checkpoint(history)["selected_step"] == 1

    def test_reports_gap_to_true_minimum(self):
        history = [
            {"step": 0, "proximal_fid": 0.9, "frechet_clean": 0.9},
            {"step": 1, "proximal_fid": 0.1, "frechet_clean": 0.3},
            {"step": 2, "proximal_fid": 0.2, "frechet_clean": 0.2},
        ]
        sel = select_best_checkpoint(history)
        assert sel["selected_step"] == 1
        assert sel["frechet_clean"] == pytest.approx(0.3)
        assert sel["best_frechet_clean"] == pytest.approx(0.2)

    def test_empty_history_rejected(self):
        with pytest.raises(PreconditionError):
            select_best_checkpoint([{"step": 0}])

    def test_selection_type(self):
        """The selection is the selection.csv row, keyed by its columns."""
        sel = select_best_checkpoint([{"step": 3, "proximal_fid": 0.4, "frechet_clean": 0.5}])
        assert list(sel) == ["selected_step", "proximal_fid", "frechet_clean", "best_frechet_clean"]
        assert sel == {"selected_step": 3, "proximal_fid": 0.4, "frechet_clean": 0.5,
                       "best_frechet_clean": 0.5}


class TestSampleSize:
    def test_sample_size_stability_tracked(self):
        # doubling n changes the sample-fit metric by roughly O(1/sqrt(n));
        # tracked as a sanity trend, not a hard bound
        g = LowRankGaussian(np.eye(4)[:, :2], 1.0, 0.2)
        ref = sample(g, 20000, derive(20, 0))
        vals = []
        for n in (2500, 10000):
            xs = sample(g, n, derive(20, 1))
            vals.append(frechet_between_samples(xs[:n], ref))
        assert vals[1] <= vals[0] * 1.5


class TestEvaluateSources:
    """Both teacher rows come from one reverse walk on the derive(seed, 104) draw."""

    SCHED = NoiseSchedule(0.035, 1.0)
    SEED, N_EVAL, STEPS = 5, 512, 12
    DATA = make_dataset("ring", 256, 0.05, seed=5)
    TEACHER = DenseNet.initialized([3, 16, 16, 2], derive(5, 1))

    def teacher_rows(self, sigma_hat):
        rows = evaluate_sources(self.DATA, sigma_hat, (self.TEACHER, self.SCHED), None, self.SEED,
                                self.N_EVAL, self.STEPS)
        assert [r["source"] for r in rows] == ["raw_noisy", "teacher_full", "teacher_truncated"]
        return {r["source"]: {k: r[k] for k in ("frechet_clean", "proximal_fid", "w2_fit")}
                for r in rows[1:]}

    def scores(self, samples, sigma_hat):
        """The row metrics of ``samples``, computed from the public functions."""
        mu_c, cov_c = fit_gaussian(sample_clean("ring", self.N_EVAL, derive(self.SEED, 101)))
        mu, cov = fit_gaussian(samples)
        return {"frechet_clean": frechet_gaussian(mu, cov, mu_c, cov_c),
                "proximal_fid": proximal_fid(samples, sigma_hat, self.DATA.points,
                                             derive(self.SEED, 103)),
                "w2_fit": frechet_between_samples(samples, self.DATA.points)}

    def walk(self, mode, sigma_hat):
        return ambient_sample(self.TEACHER, sigma_hat, mode, self.N_EVAL, derive(self.SEED, 104),
                              self.SCHED, self.STEPS)

    @pytest.mark.parametrize("sigma_hat", [0.05, 0.3])
    def test_rows_equal_single_walks_on_one_draw(self, sigma_hat):
        rows = self.teacher_rows(sigma_hat)
        assert rows["teacher_full"] == self.scores(self.walk("full", sigma_hat), sigma_hat)
        assert rows["teacher_truncated"] == self.scores(self.walk("truncated", sigma_hat), sigma_hat)
        assert rows["teacher_full"] != rows["teacher_truncated"]

    def test_one_walk_of_sample_steps_minus_one_passes(self, monkeypatch):
        levels, forward = [], self.TEACHER.forward
        monkeypatch.setattr(self.TEACHER, "forward",
                            lambda x, sigma: levels.append(sigma) or forward(x, sigma))
        self.teacher_rows(0.05)
        assert levels == list(self.SCHED.sampling_grid(self.STEPS)[:-1])

    def test_sigma_hat_below_sigma_min_gives_equal_rows(self):
        rows = self.teacher_rows(0.02)
        assert rows["teacher_truncated"] == rows["teacher_full"]

    def test_sigma_hat_above_the_second_level_truncates_at_the_first_denoise(self):
        grid = self.SCHED.sampling_grid(self.STEPS)
        sigma_hat = 0.5 * (grid[0] + grid[1])
        x = derive(self.SEED, 104).standard_normal((self.N_EVAL, 2)) * grid[0]
        rows = self.teacher_rows(sigma_hat)
        assert rows["teacher_truncated"] == self.scores(self.TEACHER.forward(x, grid[0]), sigma_hat)
