"""Frame check and moment fitting."""

import numpy as np
import pytest

from noisedistill.errors import PreconditionError
from noisedistill.gaussians import check_orthonormal, fit_gaussian
from noisedistill.rng import derive, make_rng


class TestCheckOrthonormal:
    def test_rejects_non_orthonormal_factor(self):
        with pytest.raises(PreconditionError, match="not orthonormal"):
            check_orthonormal(np.array([[1.0], [1.0]]), "factor")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_factor(self, bad):
        with pytest.raises(PreconditionError, match="factor contains non-finite entries"):
            check_orthonormal(np.array([[bad], [0.0]]), "factor")


class TestFitGaussian:
    def test_two_point_hand_computation(self):
        mean, cov = fit_gaussian(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert np.allclose(mean, [1.0, 0.0])
        assert np.allclose(cov, [[2.0, 0.0], [0.0, 0.0]])

    def test_constant_samples_zero_covariance(self):
        mean, cov = fit_gaussian(np.tile([1.5, -2.0], (50, 1)))
        assert np.allclose(mean, [1.5, -2.0])
        assert np.allclose(cov, 0.0)

    def test_rejects_single_sample(self):
        with pytest.raises(PreconditionError):
            fit_gaussian(np.array([[1.0, 2.0]]))

    def test_output_symmetric(self):
        xs = make_rng(45).standard_normal((200, 4))
        _, cov = fit_gaussian(xs)
        assert np.array_equal(cov, cov.T)

    def test_roundtrip_recovers_covariance(self):
        m = make_rng(44).standard_normal((6, 6))
        cov = 0.1 * np.eye(6) + m @ m.T / 6.0
        xs = derive(44, 1).standard_normal((100000, 6)) @ np.linalg.cholesky(cov).T
        _, fitted = fit_gaussian(xs)
        assert np.max(np.abs(fitted - cov)) <= 0.05
