"""Noise schedules, seeded streams, and toy dataset construction."""

import numpy as np
import pytest

from noisedistill.errors import PreconditionError
from noisedistill.rng import derive, make_rng
from noisedistill.schedule import NoiseSchedule
from noisedistill.toydata import make_dataset, sample_clean


class TestNoiseSchedule:
    def test_endpoints_and_monotonicity(self):
        s = NoiseSchedule(0.02, 5.0)
        t = np.linspace(0, 1, 100)
        vals = s.sigma(t)
        assert vals[0] == pytest.approx(0.02)
        assert vals[-1] == pytest.approx(5.0)
        assert np.all(np.diff(vals) > 0)
        assert np.all((vals >= 0.02) & (vals <= 5.0))

    def test_constant_schedule(self):
        s = NoiseSchedule(0.3, 0.3)
        assert s.sigma(0.0) == s.sigma(0.7) == 0.3

    def test_quadrature_integrates_polynomials_exactly(self):
        nodes, weights = NoiseSchedule().quadrature()
        assert nodes.shape == weights.shape == (64,)
        assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-14)
        # Gauss-Legendre with 64 nodes is exact for degree <= 127
        for k in (1, 15, 63, 127):
            assert float(np.dot(weights, nodes**k)) == pytest.approx(1 / (k + 1), abs=1e-12)

    def test_quadrature_is_one_read_only_rule(self):
        nodes, weights = NoiseSchedule().quadrature()
        for arr in (nodes, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.5
        again = NoiseSchedule(0.3, 0.3).quadrature()
        assert np.array_equal(again[0], nodes) and np.array_equal(again[1], weights)

    def test_sampling_grid_decreasing(self):
        s = NoiseSchedule(0.05, 2.0)
        grid = s.sampling_grid(16)
        assert grid[0] == pytest.approx(2.0)
        assert grid[-1] == pytest.approx(0.05)
        assert np.all(np.diff(grid) < 0)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(PreconditionError):
            NoiseSchedule(0.0, 1.0)
        with pytest.raises(PreconditionError):
            NoiseSchedule(2.0, 1.0)
        with pytest.raises(PreconditionError):
            NoiseSchedule(0.02, np.inf)
        with pytest.raises(PreconditionError):
            NoiseSchedule(0.02, np.nan)


class TestRng:
    def test_same_seed_same_stream(self):
        assert np.array_equal(make_rng(5).standard_normal(8), make_rng(5).standard_normal(8))

    def test_derive_paths_are_independent_and_stable(self):
        a1 = derive(3, 1).standard_normal(4)
        a2 = derive(3, 1).standard_normal(4)
        b = derive(3, 2).standard_normal(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_philox_backed(self):
        assert make_rng(0).bit_generator.__class__.__name__ == "Philox"


class TestToyData:
    def test_ring_geometry(self):
        pts = sample_clean("ring", 2000, make_rng(1))
        radii = np.linalg.norm(pts, axis=1)
        assert np.allclose(radii, 0.25, atol=1e-12)

    def test_mode_grid_centers(self):
        pts = sample_clean("mode_grid", 500, make_rng(2))
        assert set(np.unique(np.abs(pts))) <= {0.0, 0.25}

    def test_two_moons_bounded(self):
        pts = sample_clean("two_moons", 500, make_rng(3))
        assert np.all(np.abs(pts) <= 0.6)

    def test_dataset_carries_clean_counterpart(self):
        data = make_dataset("ring", 512, 0.05, seed=4)
        noise = data.points - data.clean
        assert np.std(noise) == pytest.approx(0.05, rel=0.1)
        assert data.n == 512

    def test_deterministic_in_seed(self):
        a = make_dataset("ring", 256, 0.05, seed=5)
        b = make_dataset("ring", 256, 0.05, seed=5)
        assert np.array_equal(a.points, b.points)

    def test_minimum_size_enforced(self):
        with pytest.raises(PreconditionError):
            make_dataset("ring", 100, 0.05, seed=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(PreconditionError):
            make_dataset("spiral", 512, 0.05, seed=0)
