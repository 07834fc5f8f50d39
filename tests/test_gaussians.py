"""Factored-Gaussian core: structured inverses, commuting W2, eigen, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisedistill.errors import PreconditionError
from noisedistill.gaussians import (
    EigenDecomp,
    LowRankGaussian,
    fit_gaussian,
    sample,
    structured_inverse,
    symmetric_eigen,
    w2_commuting,
)
from noisedistill.rng import derive, make_rng
from noisedistill.stiefel import retract


def random_frame(d, r, rng):
    return retract(np.zeros((d, r)), rng.standard_normal((d, r)))


def random_gaussian(rng, d=None, max_d=20):
    if d is None:
        d = int(rng.integers(2, max_d + 1))
    r = int(rng.integers(1, d))
    return LowRankGaussian(
        random_frame(d, r, rng), float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.05, 2.0))
    )


class TestLowRankGaussian:
    def test_rejects_non_orthonormal_factor(self):
        with pytest.raises(PreconditionError):
            LowRankGaussian(np.array([[1.0], [1.0]]), 1.0, 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_factor(self, bad):
        with pytest.raises(PreconditionError, match="factor contains non-finite entries"):
            LowRankGaussian(np.array([[bad], [0.0]]), 1.0, 0.1)

    def test_rejects_all_zero_scales(self):
        f = np.array([[1.0], [0.0]])
        with pytest.raises(PreconditionError):
            LowRankGaussian(f, 0.0, 0.0)

    def test_degenerate_floor_is_a_legal_distribution(self):
        g = LowRankGaussian(np.eye(3)[:, :1], 1.0, 0.0)
        assert g.floor == 0.0
        assert np.allclose(np.linalg.eigvalsh(g.dense_cov()), [0.0, 0.0, 1.0])


class TestStructuredInverse:
    def test_isotropic_case(self):
        g = LowRankGaussian(np.eye(4)[:, :2], 0.0, 0.5)
        floor_inv, correction = structured_inverse(g)
        assert floor_inv == pytest.approx(2.0)
        assert correction == 0.0

    def test_spiked_axis_value(self):
        # d=2, r=1, F=e1, s=1, c=0.04: correction = 1 / (0.04 * 1.04)
        g = LowRankGaussian(np.array([[1.0], [0.0]]), 1.0, 0.04)
        floor_inv, correction = structured_inverse(g)
        assert floor_inv == pytest.approx(25.0)
        assert correction == pytest.approx(1.0 / (0.04 * 1.04), rel=1e-14)

    def test_matches_dense_inverse_oracle(self):
        rng = make_rng(11)
        for _ in range(30):
            g = random_gaussian(rng)
            floor_inv, corr = structured_inverse(g)
            structured = floor_inv * np.eye(g.dim) - corr * (g.factor @ g.factor.T)
            dense = np.linalg.inv(g.dense_cov())
            assert np.max(np.abs(structured - dense)) <= 1e-10

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(d=st.integers(2, 20), data=st.data())
    def test_matches_dense_inverse_on_random_members(self, d, data):
        r = data.draw(st.integers(1, d - 1))
        factor = random_frame(d, r, make_rng(data.draw(st.integers(0, 2**16))))
        spike = data.draw(st.just(0.0) | st.floats(0.0, 3.0))
        g = LowRankGaussian(factor, spike, data.draw(st.floats(0.05, 2.0)))
        floor_inv, corr = structured_inverse(g)
        structured = floor_inv * np.eye(d) - corr * (factor @ factor.T)
        assert np.max(np.abs(structured - np.linalg.inv(g.dense_cov()))) <= 1e-10

    def test_inverse_times_cov_is_identity(self):
        rng = make_rng(12)
        g = random_gaussian(rng, d=6)
        floor_inv, corr = structured_inverse(g)
        inv = floor_inv * np.eye(6) - corr * (g.factor @ g.factor.T)
        assert np.max(np.abs(inv @ g.dense_cov() - np.eye(6))) <= 1e-10

    def test_zero_floor_raises(self):
        g = LowRankGaussian(np.eye(3)[:, :1], 1.0, 0.0)
        with pytest.raises(PreconditionError):
            structured_inverse(g)



def dense_bures(a, b):
    va, qa = np.linalg.eigh(a)
    root = (qa * np.sqrt(np.clip(va, 0, None))) @ qa.T
    vi = np.linalg.eigvalsh(root @ b @ root)
    return float(np.trace(a) + np.trace(b) - 2.0 * np.sum(np.sqrt(np.clip(vi, 0, None))))


@st.composite
def commuting_pairs(draw):
    """Two members whose factors span column subsets of one orthonormal basis
    (shared, nested, overlapping or disjoint), each turned by its own r x r
    rotation; spikes include 0 on either side, floors stay >= 0.01, where the
    dense oracle is accurate."""
    d = draw(st.integers(2, 8))
    rng = make_rng(draw(st.integers(0, 2**16)))
    basis = random_frame(d, d, rng)
    columns = st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True)
    spike = st.just(0.0) | st.floats(0.0, 3.0)
    floor = st.floats(0.01, 2.0)
    members = []
    for _ in range(2):
        cols = draw(columns)
        factor = basis[:, cols] @ random_frame(len(cols), len(cols), rng)
        members.append(LowRankGaussian(factor, draw(spike), draw(floor)))
    return tuple(members)


class TestW2Commuting:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(commuting_pairs())
    def test_matches_bures_oracle_on_commuting_pairs(self, pair):
        a, b = pair
        assert w2_commuting(a, b) == pytest.approx(dense_bures(a.dense_cov(), b.dense_cov()), abs=1e-9)

    def test_identical_distributions(self):
        g = random_gaussian(make_rng(20), d=5)
        assert w2_commuting(g, g) == pytest.approx(0.0, abs=1e-12)

    def test_clean_vs_noisy_formula(self):
        # r=1 spike against its sigma-noised version: 2 + s^2 - 2 sqrt(1+s^2) + (d-1) s^2
        d, sigma = 3, 0.2
        f = np.eye(d)[:, :1]
        clean = LowRankGaussian(f, 1.0, 0.0)
        noisy = LowRankGaussian(f, 1.0, sigma**2)
        expected = 2 + sigma**2 - 2 * np.sqrt(1 + sigma**2) + (d - 1) * sigma**2
        assert w2_commuting(clean, noisy) == pytest.approx(expected, abs=1e-12)

    def test_matches_bures_oracle_on_shared_factor_pairs(self):
        rng = make_rng(21)
        for _ in range(25):
            a = random_gaussian(rng, d=int(rng.integers(3, 12)))
            b = LowRankGaussian(a.factor, float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.01, 2.0)))
            assert w2_commuting(a, b) == pytest.approx(dense_bures(a.dense_cov(), b.dense_cov()), abs=1e-9)

    def test_commuting_distinct_factors(self):
        # disjoint axis-aligned factors commute; oracle still applies
        f1 = np.eye(5)[:, :2]
        f2 = np.eye(5)[:, 2:3]
        a = LowRankGaussian(f1, 1.3, 0.2)
        b = LowRankGaussian(f2, 0.7, 0.5)
        assert w2_commuting(a, b) == pytest.approx(dense_bures(a.dense_cov(), b.dense_cov()), abs=1e-9)

    def test_symmetry(self):
        rng = make_rng(22)
        for _ in range(10):
            a = random_gaussian(rng, d=6)
            b = LowRankGaussian(a.factor, float(rng.uniform(0, 2)), float(rng.uniform(0.01, 2)))
            assert w2_commuting(a, b) == pytest.approx(w2_commuting(b, a), abs=1e-10)

    def test_scaling_both_covariances_scales_distance(self):
        rng = make_rng(23)
        a = random_gaussian(rng, d=6)
        b = LowRankGaussian(a.factor, 0.5, 0.8)
        k = 3.7
        ak = LowRankGaussian(a.factor, k * a.spike, k * a.floor)
        bk = LowRankGaussian(b.factor, k * b.spike, k * b.floor)
        assert w2_commuting(ak, bk) == pytest.approx(k * w2_commuting(a, b), rel=1e-10)

    def test_non_commuting_rejected(self):
        theta = 0.7
        f1 = np.array([[1.0], [0.0]])
        f2 = np.array([[np.cos(theta)], [np.sin(theta)]])
        a = LowRankGaussian(f1, 1.0, 0.1)
        b = LowRankGaussian(f2, 1.0, 0.1)
        with pytest.raises(PreconditionError):
            w2_commuting(a, b)


class TestSymmetricEigen:
    def test_identity(self):
        eig = symmetric_eigen(np.eye(3))
        assert np.allclose(eig.values, [1.0, 1.0, 1.0])

    def test_diagonal_descending_and_axis_aligned(self):
        eig = symmetric_eigen(np.diag([1.0, 3.0]))
        assert np.allclose(eig.values, [3.0, 1.0])
        assert np.allclose(np.abs(eig.vectors), [[0.0, 1.0], [1.0, 0.0]])

    def test_2x2_characteristic_polynomial_roots(self):
        a = np.array([[2.0, 1.0], [1.0, -1.0]])
        tr, det = np.trace(a), np.linalg.det(a)
        disc = np.sqrt(tr**2 - 4 * det)
        expected = np.array([(tr + disc) / 2, (tr - disc) / 2])
        assert np.allclose(symmetric_eigen(a).values, expected, atol=1e-10)

    def test_3x3_analytic_case(self):
        # circulant-symmetric matrix with known spectrum {a+2b, a-b, a-b}
        a_val, b_val = 2.0, 0.6
        a = np.full((3, 3), b_val) + (a_val - b_val) * np.eye(3)
        expected = np.sort([a_val + 2 * b_val, a_val - b_val, a_val - b_val])[::-1]
        assert np.allclose(symmetric_eigen(a).values, expected, atol=1e-10)

    def test_residual_per_pair(self):
        rng = make_rng(30)
        m = rng.standard_normal((8, 8))
        a = (m + m.T) / 2
        eig = symmetric_eigen(a)
        for lam, v in zip(eig.values, eig.vectors.T):
            assert np.linalg.norm(a @ v - lam * v) <= 1e-8

    def test_reconstruction_invariant(self):
        rng = make_rng(31)
        m = rng.standard_normal((12, 12))
        a = (m + m.T) / 2
        eig = symmetric_eigen(a)
        recon = (eig.vectors * eig.values) @ eig.vectors.T
        assert np.max(np.abs(recon - a)) <= 1e-8
        assert isinstance(eig, EigenDecomp)

    def test_rejects_non_symmetric(self):
        with pytest.raises(PreconditionError):
            symmetric_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSampling:
    def test_isotropic_sample_covariance(self):
        g = LowRankGaussian(np.eye(4)[:, :1], 0.0, 1.0)
        xs = sample(g, 100000, make_rng(40))
        _, cov = fit_gaussian(xs)
        assert np.max(np.abs(cov - np.eye(4))) <= 0.05

    def test_fixed_seed_is_deterministic(self):
        g = random_gaussian(make_rng(41), d=5)
        a = sample(g, 100, make_rng(7))
        b = sample(g, 100, make_rng(7))
        assert np.array_equal(a, b)

    def test_degenerate_support(self):
        f = random_frame(6, 1, make_rng(42))
        g = LowRankGaussian(f, 1.0, 0.0)
        xs = sample(g, 500, make_rng(43))
        residual = xs - (xs @ f) @ f.T
        assert np.max(np.abs(residual)) <= 1e-12

    def test_roundtrip_recovers_covariance(self):
        rng = make_rng(44)
        g = random_gaussian(rng, d=6)
        xs = sample(g, 100000, derive(44, 1))
        _, cov = fit_gaussian(xs)
        assert np.max(np.abs(cov - g.dense_cov())) <= 0.05


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
