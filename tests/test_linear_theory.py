"""Exact linear-Gaussian theory: losses, minimizers, W2 accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from noisedistill import verify
from noisedistill.errors import PreconditionError
from noisedistill.linear_theory import (
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
from noisedistill.rng import derive, make_rng
from noisedistill.schedule import NoiseSchedule
from noisedistill.stiefel import retract
from noisedistill.verify import check_profile_minimizer


def frame(d, r, rng):
    return retract(np.zeros((d, r)), rng.standard_normal((d, r)))


def random_model(rng, d=5, r=2, sigma=0.3):
    return LinearModel(basis=frame(d, r, rng), sigma=sigma)


def random_params(rng, d, r):
    return GeneratorParams(u=frame(d, r, rng), v=rng.standard_normal((d, r)))


class TestClosedFormLoss:
    def test_integrand_matches_dense_frobenius_oracle(self):
        # loss at fixed t equals ||(S^-1 - T^-1) T^{1/2}||_F^2 computed densely
        rng = make_rng(10)
        d, r = 5, 2
        m = random_model(rng, d, r, sigma=0.4)
        p = random_params(rng, d, r)
        for st in (0.1, 0.5, 2.0):
            s_cov = m.basis @ m.basis.T + (m.sigma**2 + st**2) * np.eye(d)
            t_cov = p.u @ p.gram() @ p.u.T + st**2 * np.eye(d)
            vals, vecs = np.linalg.eigh(t_cov)
            t_half = (vecs * np.sqrt(vals)) @ vecs.T
            diff = np.linalg.inv(s_cov) - np.linalg.inv(t_cov)
            dense = float(np.sum((diff @ t_half) ** 2))
            # a constant schedule puts every quadrature node at sigma_t = st
            assert loss_integrand(m, p, NoiseSchedule(st, st)) == pytest.approx(dense, rel=1e-10)

    def test_minimizer_aligned_constant_schedule_oracle(self):
        # U = E, V^T V = (1 + sigma^2) I under a constant schedule
        rng = make_rng(11)
        d, r, sigma, s0 = 6, 2, 0.5, 0.3
        m = random_model(rng, d, r, sigma)
        p = GeneratorParams(u=m.basis, v=np.sqrt(1 + sigma**2) * m.basis)
        sched = NoiseSchedule(s0, s0)
        s_cov = m.basis @ m.basis.T + (sigma**2 + s0**2) * np.eye(d)
        t_cov = (1 + sigma**2) * (m.basis @ m.basis.T) + s0**2 * np.eye(d)
        vals, vecs = np.linalg.eigh(t_cov)
        t_half = (vecs * np.sqrt(vals)) @ vecs.T
        diff = np.linalg.inv(s_cov) - np.linalg.inv(t_cov)
        dense = float(np.sum((diff @ t_half) ** 2))
        assert loss_closed_form(m, p, sched) == pytest.approx(dense, rel=1e-10)

    def test_orthogonal_gauge_invariance(self):
        rng = make_rng(12)
        m = random_model(rng, 6, 2, 0.3)
        p = random_params(rng, 6, 2)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        p2 = GeneratorParams(u=p.u @ q, v=p.v @ q)
        sched = NoiseSchedule()
        assert loss_closed_form(m, p, sched) == pytest.approx(
            loss_closed_form(m, p2, sched), rel=1e-10
        )

    def test_nonnegative_over_random_params(self):
        rng = make_rng(13)
        sched = NoiseSchedule()
        for _ in range(20):
            m = random_model(rng, 6, 2, float(rng.uniform(0.05, 1.0)))
            p = random_params(rng, 6, 2)
            assert loss_closed_form(m, p, sched) >= -1e-9

    def test_minimizer_below_perturbations(self):
        rng = make_rng(14)
        m = random_model(rng, 6, 2, 0.5)
        sched = NoiseSchedule()
        star = analytic_minimizer(m)
        base = loss_closed_form(m, star, sched)
        for _ in range(50):
            scale = float(rng.uniform(1e-2, 0.5))
            u = retract(star.u, scale * rng.standard_normal(star.u.shape))
            v = star.v + scale * rng.standard_normal(star.v.shape)
            assert loss_closed_form(m, GeneratorParams(u=u, v=v), sched) > base

    def test_rejects_params_outside_theta(self):
        rng = make_rng(15)
        m = random_model(rng, 5, 2, 0.3)
        with pytest.raises(PreconditionError):
            loss_closed_form(m, GeneratorParams(u=np.ones((5, 2)), v=rng.standard_normal((5, 2))),
                             NoiseSchedule())


class TestGeneratorParams:
    def test_rejects_u_off_the_stiefel_manifold_by_1e9(self):
        u = np.eye(5)[:, :2] * np.sqrt(1.0 + 1e-9)  # max |U^T U - I| = 1e-9
        with pytest.raises(PreconditionError, match="U columns are not orthonormal"):
            GeneratorParams(u=u, v=u)

    def test_rejects_rank_deficient_v(self):
        u = np.eye(5)[:, :2]
        with pytest.raises(PreconditionError, match=r"V\^T V must be positive definite"):
            GeneratorParams(u=u, v=u * [1.0, 0.0])

    def test_rejects_nan_in_u(self):
        with pytest.raises(PreconditionError, match="U contains non-finite entries"):
            GeneratorParams(u=[[np.nan], [0.0], [0.0]], v=[[1.0], [0.0], [0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_v(self, bad):
        with pytest.raises(PreconditionError, match="V contains non-finite entries"):
            GeneratorParams(u=[[1.0], [0.0], [0.0]], v=[[bad], [0.0], [0.0]])

    def test_rejects_a_finite_v_whose_gram_overflows_to_a_nan_spectrum(self):
        v = np.array([[1e200, 1e200], [1e200, -1e200], [0.0, 0.0]])
        with np.errstate(over="ignore"), pytest.raises(PreconditionError, match="smallest eigenvalue nan"):
            GeneratorParams(u=np.eye(3)[:, :2], v=v)

    def test_keeps_the_checked_gram_and_spectrum(self):
        p = random_params(make_rng(3), 5, 2)
        w = p.v.T @ p.v
        assert np.array_equal(p.gram(), (w + w.T) / 2.0)
        assert np.array_equal(p.spectrum, np.linalg.eigvalsh(p.gram()))


class TestLinearModel:
    def test_rejects_nan_in_basis(self):
        with pytest.raises(PreconditionError, match="basis contains non-finite entries"):
            LinearModel(basis=[[np.nan], [0.0], [0.0]], sigma=0.5)

    def test_rejects_nan_sigma(self):
        with pytest.raises(PreconditionError, match="sigma must be nonnegative, got nan"):
            LinearModel(basis=np.eye(3)[:, :1], sigma=float("nan"))

    def test_rejects_infinite_sigma(self):
        with pytest.raises(PreconditionError, match="sigma must be finite, got inf"):
            LinearModel(basis=np.eye(3)[:, :1], sigma=float("inf"))


def unblocked_monte_carlo(m, p, s, n, rng):
    """``loss_monte_carlo`` as one whole-batch pass: the reference for its blocks."""
    sigma_ts = s.sample_sigma(rng, n)[:, None]
    lam, sw = np.linalg.eigh(p.gram())
    basis = p.u @ sw
    z = rng.standard_normal((n, p.rank))
    eps = rng.standard_normal((n, m.dim))
    x_t = (z * np.sqrt(lam)) @ basis.T + sigma_ts * eps
    beta2 = m.sigma**2 + sigma_ts**2
    gamma = 1.0 / (beta2 * (beta2 + 1.0))
    score_noisy = -(x_t / beta2 - gamma * (x_t @ m.basis) @ m.basis.T)
    st2 = sigma_ts**2
    core = lam[None, :] / (st2 * (lam[None, :] + st2))
    score_gen = -(x_t / st2 - ((x_t @ basis) * core) @ basis.T)
    sq = np.sum((score_noisy - score_gen) ** 2, axis=1)
    return float(np.mean(sq)), float(np.std(sq, ddof=1) / np.sqrt(n))


class TestMonteCarloLoss:
    def test_agreement_with_closed_form(self):
        sched = NoiseSchedule()
        rng = make_rng(20)
        for i in range(20):
            m = random_model(rng, 6, 2, float(rng.uniform(0.1, 0.8)))
            p = random_params(rng, 6, 2)
            closed = loss_closed_form(m, p, sched)
            est, stderr = loss_monte_carlo(m, p, sched, 100000, derive(20, i))
            assert abs(closed - est) <= 4 * stderr

    def test_agreement_at_minimizer(self):
        rng = make_rng(21)
        m = random_model(rng, 6, 2, 0.5)
        sched = NoiseSchedule()
        star = analytic_minimizer(m)
        closed = loss_closed_form(m, star, sched)
        est, stderr = loss_monte_carlo(m, star, sched, 100000, derive(21, 0))
        assert abs(closed - est) <= 4 * stderr

    @pytest.mark.parametrize("n", [100, 101, 4095, 4096, 4097, 8191, 8192, 8193, 12289, 100000])
    def test_blocks_equal_the_unblocked_estimate(self, n):
        """The estimate runs in MC_BLOCK-sample blocks; on the verify battery's
        20 instances it equals the whole-batch formulas bit for bit."""
        sched = NoiseSchedule()
        rng = derive(1, 6)  # instances as verify.check_closed_vs_monte_carlo builds them
        for i in range(20):
            m = LinearModel(basis=frame(6, 2, rng), sigma=float(rng.uniform(0.1, 0.8)))
            p = random_params(rng, 6, 2)
            got = loss_monte_carlo(m, p, sched, n, derive(1, 7, i))
            assert got == unblocked_monte_carlo(m, p, sched, n, derive(1, 7, i)), i

    @pytest.mark.parametrize("n", [100, 4097, 12289])
    def test_stream_holds_t_then_rank_r_latent_then_eps(self, n):
        """The estimate consumes n uniforms, n r latent normals and n d noise
        normals, and nothing else."""
        rng = make_rng(23)
        m = random_model(rng, 6, 2, 0.3)
        p = random_params(rng, 6, 2)
        used, twin = derive(23, 1), derive(23, 1)
        loss_monte_carlo(m, p, NoiseSchedule(), n, used)
        twin.uniform(size=n)
        twin.standard_normal(n * p.rank)
        twin.standard_normal(n * m.dim)
        assert repr(used.bit_generator.state) == repr(twin.bit_generator.state)  # holds arrays

    def test_stderr_clt_scaling(self):
        rng = make_rng(22)
        m = random_model(rng, 6, 2, 0.4)
        p = random_params(rng, 6, 2)
        sched = NoiseSchedule()
        _, se1 = loss_monte_carlo(m, p, sched, 50000, derive(22, 1))
        _, se2 = loss_monte_carlo(m, p, sched, 100000, derive(22, 2))
        assert se2 == pytest.approx(se1 / np.sqrt(2), rel=0.15)


class TestAnalyticMinimizer:
    def test_zero_noise_fixed_point(self):
        rng = make_rng(30)
        m = random_model(rng, 6, 2, 0.0)
        star = analytic_minimizer(m)
        assert np.allclose(star.gram(), np.eye(2), atol=1e-12)
        rep = wasserstein_report(m, star)
        assert rep.w2_distilled_clean == pytest.approx(0.0, abs=1e-12)

    def test_gram_value(self):
        rng = make_rng(31)
        m = random_model(rng, 6, 2, 0.5)
        star = analytic_minimizer(m)
        assert np.allclose(star.gram(), 1.25 * np.eye(2), atol=1e-12)

    def test_any_orthogonal_q_attains_same_loss(self):
        rng = make_rng(32)
        m = random_model(rng, 6, 2, 0.4)
        sched = NoiseSchedule()
        base = loss_closed_form(m, analytic_minimizer(m), sched)
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            frame = m.basis @ q
            rotated = GeneratorParams(u=frame, v=np.sqrt(1.0 + m.sigma**2) * frame)
            assert loss_closed_form(m, rotated, sched) == pytest.approx(base, rel=1e-10)


def dense_bures(a, b):
    va, qa = np.linalg.eigh(a)
    root = (qa * np.sqrt(np.clip(va, 0, None))) @ qa.T
    vi = np.linalg.eigvalsh(root @ b @ root)
    return float(np.trace(a) + np.trace(b) - 2.0 * np.sum(np.sqrt(np.clip(vi, 0, None))))


def shared_factor_cov(f, spike, floor):
    return spike * (f @ f.T) + floor * np.eye(f.shape[0])


class TestW2SharedFactor:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(d=st.integers(2, 12), data=st.data())
    def test_matches_bures_oracle(self, d, data):
        """Spikes include 0 on either side; floors stay >= 0.01, where the dense
        oracle is accurate."""
        r = data.draw(st.integers(1, d - 1))
        f = frame(d, r, make_rng(data.draw(st.integers(0, 2**16))))
        spike, floor = st.just(0.0) | st.floats(0.0, 3.0), st.floats(0.01, 2.0)
        a = (data.draw(spike), data.draw(floor))
        b = (data.draw(spike), data.draw(floor))
        expected = dense_bures(shared_factor_cov(f, *a), shared_factor_cov(f, *b))
        assert w2_shared_factor(d, r, a, b) == pytest.approx(expected, abs=1e-9)

    def test_identical_distributions_are_exactly_zero(self):
        assert w2_shared_factor(5, 2, (1.3, 0.4), (1.3, 0.4)) == 0.0

    def test_clean_vs_noisy_formula(self):
        # r=1 spike against its sigma-noised version: 2 + s^2 - 2 sqrt(1+s^2) + (d-1) s^2
        d, sigma = 3, 0.2
        expected = 2 + sigma**2 - 2 * np.sqrt(1 + sigma**2) + (d - 1) * sigma**2
        assert w2_shared_factor(d, 1, (1.0, 0.0), (1.0, sigma**2)) == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self):
        rng = make_rng(22)
        for _ in range(10):
            a, b = tuple(rng.uniform(0, 2, 2)), tuple(rng.uniform(0.01, 2, 2))
            assert w2_shared_factor(6, 2, a, b) == pytest.approx(w2_shared_factor(6, 2, b, a), abs=1e-10)

    def test_scaling_both_covariances_scales_distance(self):
        a, b, k = (1.1, 0.3), (0.5, 0.8), 3.7
        scaled = w2_shared_factor(6, 2, (k * a[0], k * a[1]), (k * b[0], k * b[1]))
        assert scaled == pytest.approx(k * w2_shared_factor(6, 2, a, b), rel=1e-10)


class TestWassersteinReport:
    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1e3, 1e6])
    def test_noisy_distance_is_the_shared_factor_closed_form(self, sigma):
        """At the clean generator (V = E) the distilled distance is 0, so the
        gap is W2^2(noisy, clean) = r (sqrt(1 + sigma^2) - 1)^2 + (d - r) sigma^2."""
        d, r = 6, 2
        m = LinearModel(basis=frame(d, r, make_rng(43)), sigma=sigma)
        rep = wasserstein_report(m, GeneratorParams(u=m.basis, v=m.basis))
        expected = r * (np.sqrt(1 + sigma**2) - 1) ** 2 + (d - r) * sigma**2
        assert rep.w2_distilled_clean == pytest.approx(0.0, abs=1e-12)
        assert rep.gap + rep.w2_distilled_clean == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d,r,sigma", [(8, 2, 0.5), (16, 4, 0.2), (4, 1, 0.1)])
    def test_gap_identity(self, d, r, sigma):
        m = LinearModel(basis=frame(d, r, make_rng(d + r)), sigma=sigma)
        rep = wasserstein_report(m, analytic_minimizer(m))
        assert rep.gap == pytest.approx((d - r) * sigma**2, abs=1e-9)

    def test_minimizer_gap_example(self):
        m = LinearModel(basis=frame(8, 2, make_rng(40)), sigma=0.5)
        rep = wasserstein_report(m, analytic_minimizer(m))
        assert rep.gap == pytest.approx(1.5, abs=1e-9)

    def test_rank_one_distilled_distance(self):
        sigma = 0.3
        m = LinearModel(basis=frame(5, 1, make_rng(41)), sigma=sigma)
        rep = wasserstein_report(m, analytic_minimizer(m))
        expected = 2 + sigma**2 - 2 * np.sqrt(1 + sigma**2)
        assert rep.w2_distilled_clean == pytest.approx(expected, abs=1e-12)

    def test_orthogonal_generator_counts_unmatched_mass(self):
        # generator supported on col(E)^perp: commuting, but misses all of col(E)
        rng = make_rng(42)
        d, r = 6, 2
        e = np.eye(d)[:, :r]
        m = LinearModel(basis=e, sigma=0.2)
        u_perp = np.eye(d)[:, r : 2 * r]
        p = GeneratorParams(u=u_perp, v=1.3 * u_perp)
        rep = wasserstein_report(m, p)
        lam = 1.3**2
        assert rep.w2_distilled_clean == pytest.approx(r * lam + r * 1.0, abs=1e-10)

    def test_off_stiefel_generator_rejected(self):
        # U = 2 e0 gives C = 4 e0 e0^T at distance 1 from E E^T; the trace identity assumes U^T U = I
        m = LinearModel(basis=np.eye(3)[:, :1], sigma=0.2)
        with pytest.raises(PreconditionError):
            wasserstein_report(m, GeneratorParams(u=2.0 * np.eye(3)[:, :1], v=np.eye(3)[:, :1]))

    def test_non_commuting_rejected(self):
        d, r = 4, 1
        e = np.eye(d)[:, :r]
        m = LinearModel(basis=e, sigma=0.2)
        mixed = np.array([[np.cos(0.6)], [np.sin(0.6)], [0.0], [0.0]])
        p = GeneratorParams(u=mixed, v=mixed)
        with pytest.raises(PreconditionError):
            wasserstein_report(m, p)

    def test_degenerate_gram_splits_cleanly(self):
        # W = I with one aligned and one orthogonal column: repeated eigenvalue
        # must not trip the angle check
        d = 6
        e = np.eye(d)[:, :2]
        m = LinearModel(basis=e, sigma=0.1)
        u = np.column_stack([np.eye(d)[:, 0], np.eye(d)[:, 3]])
        p = GeneratorParams(u=u, v=u)
        rep = wasserstein_report(m, p)
        # aligned direction: (1,1) -> 0; orthogonal: lam=1 vs 0 -> 1; unmatched col(E): 1
        assert rep.w2_distilled_clean == pytest.approx(2.0, abs=1e-10)

    def test_distinct_eigenvalues_split_between_subspaces(self):
        # W = diag(1.7, 0.4): the 1.7 direction lies in col(E), the 0.4 one outside
        d = 6
        m = LinearModel(basis=np.eye(d)[:, :2], sigma=0.1)
        u = np.column_stack([np.eye(d)[:, 0], np.eye(d)[:, 3]])
        p = GeneratorParams(u=u, v=u * np.sqrt([1.7, 0.4]))
        rep = wasserstein_report(m, p)
        # aligned: (sqrt(1.7) - 1)^2; outside: 0.4 vs 0; unmatched col(E): 1
        expected = (np.sqrt(1.7) - 1.0) ** 2 + 0.4 + 1.0
        assert rep.w2_distilled_clean == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("angle,accepted", [(1e-10, True), (1e-5, False)])
    def test_misalignment_tolerance(self, angle, accepted):
        d = 4
        m = LinearModel(basis=np.eye(d)[:, :1], sigma=0.2)
        tilted = np.array([[np.cos(angle)], [0.0], [np.sin(angle)], [0.0]])
        p = GeneratorParams(u=tilted, v=np.sqrt(1.04) * tilted)
        if accepted:
            rep = wasserstein_report(m, p)
            assert rep.gap == pytest.approx((d - 1) * 0.2**2, abs=1e-9)
        else:
            with pytest.raises(PreconditionError):
                wasserstein_report(m, p)


class TestEigenvalueProfile:
    @pytest.mark.parametrize("sigma", [0.1, 0.2, 0.5])
    def test_numeric_minimizer_location(self, sigma):
        sched = NoiseSchedule()
        res = minimize_scalar(
            lambda u: eigenvalue_loss_profile(u, sigma, sched),
            bounds=(1e-6, 10.0),
            method="bounded",
            options={"xatol": 1e-10},
        )
        assert abs(res.x - (1 + sigma**2)) <= 1e-6

    @pytest.mark.parametrize("sigma", [2.0, 3.5, 5.0, 10.0, 100.0])
    def test_verify_locates_minimizer_at_large_sigma(self, sigma):
        # u* = 1 + sigma^2 exceeds 10 from sigma = 3, where the profile is flat
        assert check_profile_minimizer(NoiseSchedule(), sigmas=(sigma,)).passed

    @pytest.mark.parametrize("shift", [0.0, 2e-6])
    def test_verify_row_fails_on_a_shifted_minimizer(self, shift, monkeypatch):
        # a profile whose minimizer sits at u* / (1 - shift) reads a relative error of ~shift
        orig = verify.eigenvalue_loss_profile
        monkeypatch.setattr(verify, "eigenvalue_loss_profile",
                            lambda u, sigma, s: orig(u * (1.0 - shift), sigma, s))
        row = check_profile_minimizer(NoiseSchedule(), sigmas=(0.1, 0.2, 0.5))
        if shift:
            assert not row.passed and row.value == pytest.approx(shift, rel=0.1)
        else:
            assert row.passed

    def test_convexity_by_finite_differences(self):
        sched = NoiseSchedule()
        h = 1e-3
        for u in np.linspace(0.1, 5.0, 30):
            f = lambda x: eigenvalue_loss_profile(x, 0.5, sched)
            second = (f(u + h) - 2 * f(u) + f(u - h)) / h**2
            assert second > 0

    def test_constant_schedule_critical_point_identity(self):
        sigma, s0 = 0.4, 0.7
        sched = NoiseSchedule(s0, s0)
        u_star = 1 + sigma**2
        h = 1e-6
        deriv = (
            eigenvalue_loss_profile(u_star + h, sigma, sched)
            - eigenvalue_loss_profile(u_star - h, sigma, sched)
        ) / (2 * h)
        assert abs(deriv) <= 1e-9

    def test_rejects_nonpositive_u(self):
        with pytest.raises(PreconditionError):
            eigenvalue_loss_profile(0.0, 0.3, NoiseSchedule())


class TestTraceMaximizer:
    def test_bound_never_exceeded_on_rotation_grid(self):
        # d=3, r=1: brute-force grid over directions on the sphere
        e = np.eye(3)[:, :1]
        spd = np.array([[1.7]])
        best = -np.inf
        for theta in np.linspace(0, np.pi, 60):
            for phi in np.linspace(0, 2 * np.pi, 60):
                u = np.array([[np.cos(theta)], [np.sin(theta) * np.cos(phi)], [np.sin(theta) * np.sin(phi)]])
                val = float(np.sum((e.T @ u) @ spd * (e.T @ u)))
                best = max(best, val)
                assert val <= np.trace(spd) + 1e-9
        assert best == pytest.approx(np.trace(spd), abs=1e-3)


class TestVonNeumannBound:
    def test_trace_bounded_by_singular_values(self):
        rng = make_rng(60)
        for _ in range(50):
            d = int(rng.integers(2, 8))
            a = rng.standard_normal((d, d))
            b = rng.standard_normal((d, d))
            a = (a + a.T) / 2
            b = (b + b.T) / 2
            sa = np.sort(np.linalg.svd(a, compute_uv=False))[::-1]
            sb = np.sort(np.linalg.svd(b, compute_uv=False))[::-1]
            assert abs(np.trace(a @ b)) <= float(np.dot(sa, sb)) + 1e-9


class TestPrincipalAngles:
    def test_identical_subspaces(self):
        f = frame(6, 2, make_rng(70))
        assert principal_angles(f, f)[0] == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_subspaces(self):
        assert principal_angles(np.eye(4)[:, :2], np.eye(4)[:, 2:])[0] == pytest.approx(np.pi / 2)

    def test_largest_angle_first(self):
        """Rotating one column of a frame by 0.3 rad out of its span gives the
        angles 0.3 and 0, in that order."""
        a = np.eye(4)[:, :2]
        b = np.column_stack([np.cos(0.3) * a[:, 0] + np.sin(0.3) * np.eye(4)[:, 2], a[:, 1]])
        assert principal_angles(a, b) == pytest.approx([0.3, 0.0], abs=1e-7)
