"""The closed-form loss, its gradient and the descent read the t-only terms
from ``quadrature_terms`` and keep every bit of the formulas that computed
those terms on every call.

The references below are copies of those formulas as they stood before the
terms were cached; each comparison is exact (``==``, ``np.array_equal``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisedistill.errors import StalledOptimizationError
from noisedistill.linear_theory import (
    GeneratorParams,
    LinearModel,
    loss_closed_form,
    loss_integrand,
    quadrature_terms,
)
from noisedistill.rng import make_rng
from noisedistill.schedule import NoiseSchedule
from noisedistill.stiefel import (
    ARMIJO_C1,
    GRAD_TOL,
    MIN_STEP,
    STEP_SIZE,
    VTV_FLOOR,
    euclidean_gradient,
    optimize,
    random_params,
    retract,
    tangent_project,
)


def reference_integrand(m, p, sigma_t):
    d, r = m.dim, m.rank
    sigma_t = np.asarray(sigma_t, dtype=float)
    beta2 = m.sigma**2 + sigma_t**2
    gamma = 1.0 / (beta2 * (beta2 + 1.0))
    st2 = sigma_t**2

    w = p.gram()
    lam = np.linalg.eigvalsh(w)
    proj = m.basis.T @ p.u
    tr_w = float(np.trace(w))
    tr_pwp = float(np.sum((proj @ w) * proj))

    tr_sinv2_t = (tr_w + st2 * d) / beta2**2 + (gamma**2 - 2.0 * gamma / beta2) * (tr_pwp + st2 * r)
    tr_sinv = d / beta2 - r * gamma
    lam_term = lam[..., None] / (st2 * (lam[..., None] + st2))
    tr_tinv = d / st2 - np.sum(lam_term, axis=0)
    return tr_sinv2_t - 2.0 * tr_sinv + tr_tinv


def reference_loss(m, p, s):
    nodes, weights = s.quadrature()
    return float(np.dot(weights, reference_integrand(m, p, s.sigma(nodes))))


def reference_gradient(m, p, s):
    nodes, weights = s.quadrature()
    w = p.gram()
    lam, sw = np.linalg.eigh(w)
    proj = m.basis.T @ p.u

    st2 = s.sigma(nodes) ** 2
    beta2 = m.sigma**2 + st2
    gamma = 1.0 / (beta2 * (beta2 + 1.0))
    c_sum = float(np.dot(weights, gamma**2 - 2.0 * gamma / beta2))
    a_sum = float(np.dot(weights, 1.0 / beta2**2))
    diag_sum = weights @ (1.0 / (st2[:, None] + lam[None, :]) ** 2)

    du = 2.0 * c_sum * (m.basis @ (proj @ w))
    dv = 2.0 * (a_sum * p.v + c_sum * p.v @ (proj.T @ proj) - (p.v @ sw) * diag_sum @ sw.T)
    return du, dv


def reference_step(m, p, grads, s, step_size, loss_current):
    du, dv = grads
    xi = tangent_project(p.u, du)
    slope = float(np.sum(xi * xi) + np.sum(dv * dv))
    if slope == 0.0:
        return p, step_size, loss_current
    eta = step_size
    while True:
        u_new = retract(p.u, -eta * xi)
        v_new = p.v - eta * dv
        w = v_new.T @ v_new
        if np.linalg.eigvalsh((w + w.T) / 2.0)[0] >= VTV_FLOOR:
            candidate = GeneratorParams(u=u_new, v=v_new)
            loss_new = reference_loss(m, candidate, s)
            if loss_new <= loss_current - ARMIJO_C1 * eta * slope:
                return candidate, eta, loss_new
        eta *= 0.5
        if eta < MIN_STEP:
            raise StalledOptimizationError("underflow")


def reference_optimize(m, p, s, max_iters):
    iters, losses = [], []
    loss = reference_loss(m, p, s)
    eta = STEP_SIZE
    for it in range(max_iters + 1):
        du, dv = reference_gradient(m, p, s)
        xi = tangent_project(p.u, du)
        grad_norm = float(np.sqrt(np.sum(xi * xi) + np.sum(dv * dv)))
        iters.append(it)
        losses.append(loss)
        if grad_norm <= GRAD_TOL or it == max_iters:
            break
        try:
            p, accepted, loss = reference_step(m, p, (du, dv), s, eta, loss)
        except StalledOptimizationError:
            break
        eta = min(accepted * 1.5, 1e3 * STEP_SIZE) if accepted == eta else accepted
    return p, iters, losses


def frame(d, r, rng):
    return retract(np.zeros((d, r)), rng.standard_normal((d, r)))


@st.composite
def instances(draw):
    """(model, params, schedule) over d, r, sigma (0 and 1e6 included) and the schedule."""
    d = draw(st.integers(2, 9))
    r = draw(st.integers(1, d - 1))
    sigma = draw(st.one_of(st.sampled_from([0.0, 1e6]), st.floats(1e-3, 1e3)))
    sigma_min = draw(st.floats(1e-3, 2.0))
    sigma_max = sigma_min * draw(st.sampled_from([1.0, 1.5, 250.0, 1e3]))
    rng = make_rng(draw(st.integers(0, 2**16)))
    m = LinearModel(basis=frame(d, r, rng), sigma=sigma)
    p = GeneratorParams(u=frame(d, r, rng), v=rng.standard_normal((d, r)))
    return m, p, NoiseSchedule(sigma_min, sigma_max)


class TestBitIdentity:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(instances())
    def test_closed_form_loss_is_the_quadrature_of_the_integrand(self, instance):
        m, p, s = instance
        nodes, weights = s.quadrature()
        reference = reference_integrand(m, p, s.sigma(nodes))
        assert np.array_equal(loss_integrand(m, p, s), reference)
        assert loss_closed_form(m, p, s) == float(np.dot(weights, reference))

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(instances())
    def test_gradient_keeps_its_bits(self, instance):
        m, p, s = instance
        du, dv = euclidean_gradient(m, p, s)
        ref_du, ref_dv = reference_gradient(m, p, s)
        assert np.array_equal(du, ref_du) and np.array_equal(dv, ref_dv)

    @pytest.mark.parametrize("k", range(3))
    def test_descent_keeps_its_bits(self, k):
        """The verify battery's descent (dim 8, rank 2, sigma 0.5, its start seeds)."""
        m = LinearModel(basis=frame(8, 2, make_rng(9)), sigma=0.5)
        s = NoiseSchedule()
        p0 = random_params(8, 2, seed=1000 + k)
        p, trace = optimize(m, p0, s, 2000)
        ref_p, ref_iters, ref_losses = reference_optimize(m, p0, s, 2000)
        assert trace.iters == ref_iters and trace.losses == ref_losses
        assert np.array_equal(p.u, ref_p.u) and np.array_equal(p.v, ref_p.v)


class TestCache:
    def test_cached_arrays_and_the_kept_gram_are_read_only(self):
        terms = quadrature_terms(0.5, 6, 2, NoiseSchedule())
        for name in ("st2", "d_st2", "beta4", "c", "r_st2", "two_tr_sinv", "d_over_st2"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(terms, name)[0] = 1.0
        p = random_params(6, 2, seed=1)
        with pytest.raises(ValueError, match="read-only"):
            p.gram()[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            p.spectrum[0] = 1.0

    def test_one_entry_per_sigma_shape_and_schedule(self):
        s = NoiseSchedule(0.02, 5.0)
        keys = [(0.5, 6, 2, s), (0.6, 6, 2, s), (0.5, 7, 2, s), (0.5, 6, 3, s),
                (0.5, 6, 2, NoiseSchedule(0.02, 4.0)), (0.5, 6, 2, NoiseSchedule(0.03, 5.0))]
        entries = [quadrature_terms(*key) for key in keys]
        assert quadrature_terms(0.5, 6, 2, NoiseSchedule(0.02, 5.0)) is entries[0]  # an equal key hits
        assert len({id(e) for e in entries}) == len(keys)
        assert all(not np.array_equal(entries[0].two_tr_sinv, e.two_tr_sinv) for e in entries[1:])

    def test_alternating_models_and_schedules_read_their_own_terms(self):
        rng = make_rng(3)
        e = frame(6, 2, rng)
        p = GeneratorParams(u=frame(6, 2, rng), v=rng.standard_normal((6, 2)))
        cases = [(LinearModel(basis=e, sigma=sigma), s)
                 for sigma in (0.0, 0.5, 1e6) for s in (NoiseSchedule(), NoiseSchedule(0.1, 2.0))]
        for m, s in cases * 2:
            assert loss_closed_form(m, p, s) == reference_loss(m, p, s)
