"""Manual dense-net forward/backward and the Adam optimizer."""

import itertools
import multiprocessing
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from noisedistill.diffusion import TrainConfig, load_checkpoint, pretrain, save_checkpoint
from noisedistill.distill import DistillConfig, fake_update, generator_update, init_distillation
from noisedistill.errors import PreconditionError
from noisedistill.nets import ROW_BLOCK, Adam, DenseNet, silu, silu_grad
from noisedistill.rng import derive, make_rng
from noisedistill.schedule import NoiseSchedule
from noisedistill.toydata import make_dataset


def tiny_net(seed=0, sizes=(3, 6, 5, 2)):
    return DenseNet.initialized(list(sizes), derive(seed, 1))


def flat_grads(grads):
    return np.concatenate([g.ravel() for g in grads])


class TestConstructor:
    W = [np.ones((4, 3)), np.ones((2, 4))]
    B = [np.zeros(4), np.zeros(2)]

    def test_layer_sizes_are_read_off_the_shapes(self):
        net = DenseNet(self.W, self.B)
        assert net.layer_sizes == [3, 4, 2] and all(type(n) is int for n in net.layer_sizes)
        assert all(p.dtype == np.float64 for p in net.parameters())

    @pytest.mark.parametrize("weights, biases", [
        ([], []),  # no layer
        ([np.float64(1.0), np.ones((2, 4))], B),  # 0-d weight
        ([np.ones(3), np.ones((2, 4))], B),  # 1-d weight
        ([np.ones((4, 3, 1)), np.ones((2, 4))], B),  # 3-d weight
        (W, [np.zeros(4), np.zeros(3)]),  # bias of the wrong length
        (W, [np.zeros(4)]),  # a layer without its bias
        ([np.ones((4, 3)), np.ones((2, 5))], [np.zeros(4), np.zeros(2)]),  # fan_in != previous fan_out
        ([np.ones((0, 3)), np.ones((2, 0))], [np.zeros(0), np.zeros(2)]),  # a zero-size layer
        ([np.ones((4, 0))], [np.zeros(4)]),  # a zero-size input
    ])
    def test_rejects_arrays_that_do_not_chain_into_a_net(self, weights, biases):
        with pytest.raises(PreconditionError):
            DenseNet(weights, biases)

    @pytest.mark.parametrize("sizes", [[3], [3, 0, 2], [3, 4, -1]])
    def test_initialized_rejects_bad_layer_sizes_before_drawing(self, sizes):
        with pytest.raises(PreconditionError, match="bad layer sizes"):
            DenseNet.initialized(sizes, derive(6, 1))

    def test_initialized_draws_he_scaled_weights_and_zero_biases(self):
        sizes = [3, 8, 5, 2]
        net = DenseNet.initialized(sizes, derive(6, 1))
        rng = derive(6, 1)
        for fan_in, fan_out, w, b in zip(sizes[:-1], sizes[1:], net.weights, net.biases):
            assert np.array_equal(w, np.sqrt(2.0 / fan_in) * rng.standard_normal((fan_out, fan_in)))
            assert np.array_equal(b, np.zeros(fan_out))
        assert net.layer_sizes == sizes

    def test_copy_equals_its_source_and_shares_no_memory(self):
        net = tiny_net(2)
        dup = net.copy()
        assert dup.layer_sizes == net.layer_sizes
        assert all(np.array_equal(a, b) for a, b in zip(dup.parameters(), net.parameters()))
        assert not any(np.shares_memory(a, b) for a in dup.parameters() for b in net.parameters())


class TestForward:
    def test_zero_weight_net_outputs_last_bias(self):
        net = tiny_net()
        for w in net.weights:
            w[...] = 0.0
        net.biases[-1][...] = [0.7, -0.3]
        out = net.forward(np.zeros((4, 2)), 0.5)
        assert np.allclose(out, [0.7, -0.3])

    def test_fixed_seed_bit_identical(self):
        a = tiny_net(3)
        b = tiny_net(3)
        x = derive(9, 0).standard_normal((5, 2))
        assert np.array_equal(a.forward(x, 0.3), b.forward(x, 0.3))

    def test_dimension_mismatch_raises(self):
        net = tiny_net()
        with pytest.raises(PreconditionError):
            net.forward(np.zeros((2, 3)), 0.5)

    def test_jacobian_linearization_order(self):
        # ||f(x+h) - f(x) - J h|| = O(||h||^2) with J assembled from backward
        net = tiny_net(5)
        rng = derive(5, 2)
        x = rng.standard_normal((1, 2))
        sigma = 0.4
        f0, cache = net.forward_cached(x, sigma)
        jac = np.zeros((2, 2))
        for k in range(2):
            e = np.zeros((1, 2))
            e[0, k] = 1.0
            jac[k] = net.backward(cache, e, params=False)[0]
        errs = []
        for h in (1e-2, 1e-3):
            delta = rng.standard_normal((1, 2)) * h
            err = np.linalg.norm(net.forward(x + delta, sigma) - f0 - delta @ jac.T)
            errs.append(err / h**2)
        assert errs[1] <= 5 * errs[0]  # ratio stays O(1) under h -> h/10

    def test_silu_derivative_identity(self):
        z = np.linspace(-6, 6, 100)
        h = 1e-6
        numeric = (silu(z + h, np.empty_like(z)) - silu(z - h, np.empty_like(z))) / (2 * h)
        denom = np.empty_like(z)
        silu(z, denom)
        assert np.allclose(silu_grad(z, denom, np.empty_like(z), np.empty_like(z)), numeric, atol=1e-8)


class TestBackward:
    def test_single_linear_layer_analytic_gradient(self):
        # one affine layer, squared loss: dW = 2 (Wx + b - y) x^T
        net = DenseNet.initialized([3, 2], derive(7, 1))
        x = np.array([[0.3, -1.2]])
        sigma = 0.8
        y = np.array([[1.0, 0.5]])
        out, cache = net.forward_cached(x, sigma)
        upstream = 2.0 * (out - y)
        grads = net.backward(cache, upstream)
        inp = np.concatenate([x[0], [np.log(sigma) / 4.0]])
        assert np.allclose(grads[0], upstream.T @ inp[None, :], atol=1e-12)
        assert np.allclose(grads[1], upstream[0], atol=1e-12)

    def test_finite_difference_agreement(self):
        net = DenseNet.initialized([3, 16, 16, 2], derive(8, 1))
        rng = derive(8, 2)
        x = rng.standard_normal((6, 2))
        sigma = rng.uniform(0.1, 2.0, 6)
        upstream = rng.standard_normal((6, 2))
        _, cache = net.forward_cached(x, sigma)
        grads = net.backward(cache, upstream)
        analytic = flat_grads(grads)

        flat = net.get_flat()
        h = 1e-6
        idx = rng.choice(flat.size, size=80, replace=False)
        for i in idx:
            vp, vm = flat.copy(), flat.copy()
            vp[i] += h
            vm[i] -= h
            net.set_flat(vp)
            up = float(np.sum(net.forward(x, sigma) * upstream))
            net.set_flat(vm)
            dn = float(np.sum(net.forward(x, sigma) * upstream))
            net.set_flat(flat)
            fd = (up - dn) / (2 * h)
            denom = max(abs(fd), abs(analytic[i]), 1e-8)
            assert abs(analytic[i] - fd) / denom <= 1e-5

    def test_zero_upstream_zero_gradients(self):
        net = tiny_net(9)
        x = derive(9, 3).standard_normal((4, 2))
        _, cache = net.forward_cached(x, 0.5)
        grads = net.backward(cache, np.zeros((4, 2)))
        assert all(np.all(g == 0) for g in grads)
        assert np.all(net.backward(cache, np.zeros((4, 2)), params=False) == 0)


def reference_silu(z):
    return z / (1.0 + np.exp(-z))


def reference_silu_grad(z):
    s = 1.0 / (1.0 + np.exp(-z))
    return s * (1.0 + z * (1.0 - s))


class ReferenceNet(DenseNet):
    """The allocating forward/backward that the in-place kernels of
    ``DenseNet`` must reproduce bit for bit."""

    @classmethod
    def sharing(cls, net):
        return cls(net.weights, net.biases)

    def forward(self, x, sigma):
        return self.forward_cached(x, sigma)[0]

    def forward_cached(self, x, sigma):
        a = self._stack_input(x, sigma)
        pre = []
        acts = [a]
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w.T + b
            pre.append(z)
            a = reference_silu(z) if i < n_layers - 1 else z
            acts.append(a)
        return a, (pre, acts)

    def backward(self, cache, upstream, params=True):
        pre, acts = cache
        delta = np.atleast_2d(np.asarray(upstream, dtype=float))
        w_grads = [None] * len(self.weights)
        b_grads = [None] * len(self.biases)
        for i in range(len(self.weights) - 1, -1, -1):
            if i < len(self.weights) - 1:
                delta = delta * reference_silu_grad(pre[i])
            w_grads[i] = delta.T @ acts[i]
            b_grads[i] = delta.sum(axis=0)
            delta = delta @ self.weights[i]
        return w_grads + b_grads if params else delta[:, : self.data_dim]


def kernel_batch(seed=14, n=37):
    rng = derive(seed, 2)
    return rng.standard_normal((n, 2)), rng.uniform(0.05, 3.0, n), rng.standard_normal((n, 2))


class TestKernelsBitwise:
    """In-place kernels against the allocating formulas, with no tolerance."""

    Z = np.concatenate([np.linspace(-800.0, 800.0, 1601), 5.0 * derive(15, 0).standard_normal(500),
                        [0.0, -0.0, 1e-300, -1e-300]])

    def test_silu_matches_formula(self):
        with np.errstate(over="ignore"):
            assert np.array_equal(silu(self.Z, np.empty_like(self.Z)), reference_silu(self.Z))

    def test_silu_grad_from_stored_denominator(self):
        denom = np.empty_like(self.Z)
        with np.errstate(over="ignore"):
            silu(self.Z, denom)
            from_denom = silu_grad(self.Z, denom, np.empty_like(self.Z), np.empty_like(self.Z))
            reference = reference_silu_grad(self.Z)
        assert np.array_equal(from_denom, reference)

    def test_silu_grad_writes_into_given_buffers(self):
        denom, out, work = np.empty_like(self.Z), np.empty_like(self.Z), np.empty_like(self.Z)
        with np.errstate(over="ignore"):
            silu(self.Z, denom)
            result = silu_grad(self.Z, denom, out=out, work=work)
            reference = reference_silu_grad(self.Z)
        assert result is out
        assert np.array_equal(out, reference)

    def test_silu_writes_activation_over_input(self):
        z = self.Z.copy()
        with np.errstate(over="ignore"):
            out = silu(z, np.empty_like(z), out=z)
            assert out is z
            assert np.array_equal(z, reference_silu(self.Z))

    def test_forward_equals_cached_forward(self):
        net = tiny_net(14, sizes=(3, 24, 24, 24, 2))
        x, sigma, _ = kernel_batch()
        assert np.array_equal(net.forward(x, sigma), net.forward_cached(x, sigma)[0])

    def test_parameter_free_backward_gives_the_same_input_gradient(self):
        net = tiny_net(14, sizes=(3, 24, 24, 24, 2))
        x, sigma, upstream = kernel_batch()
        _, cache = net.forward_cached(x, sigma)
        _, ref_cache = ReferenceNet.sharing(net).forward_cached(x, sigma)
        d_input = ReferenceNet.sharing(net).backward(ref_cache, upstream, params=False)
        assert np.array_equal(net.backward(cache, upstream, params=False), d_input)

    def test_kernels_match_reference_net(self):
        net = tiny_net(14, sizes=(3, 24, 24, 24, 2))
        ref = ReferenceNet.sharing(net)
        x, sigma, upstream = kernel_batch()
        out, cache = net.forward_cached(x, sigma)
        ref_out, ref_cache = ref.forward_cached(x, sigma)
        assert np.array_equal(out, ref_out)
        grads = net.backward(cache, upstream)
        ref_grads = ref.backward(ref_cache, upstream)
        d_input = net.backward(cache, upstream, params=False)
        assert np.array_equal(d_input, ref.backward(ref_cache, upstream, params=False))
        assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))

    def test_second_forward_leaves_first_result_unchanged(self):
        net = tiny_net(14, sizes=(3, 24, 24, 2))
        x, sigma, _ = kernel_batch()
        first = net.forward(x, sigma)
        kept = first.copy()
        net.forward(-x, 2.0 * sigma)
        assert np.array_equal(first, kept)

    def test_backward_leaves_cache_and_upstream_unchanged(self):
        net = tiny_net(14, sizes=(3, 24, 24, 2))
        x, sigma, upstream = kernel_batch()
        _, cache = net.forward_cached(x, sigma)
        cache_before = [[a.copy() for a in part] for part in cache]
        upstream_before = upstream.copy()
        grads1, d1 = net.backward(cache, upstream), net.backward(cache, upstream, params=False)
        assert np.array_equal(upstream, upstream_before)
        assert all(np.array_equal(a, b) for part, kept in zip(cache, cache_before)
                   for a, b in zip(part, kept))
        grads2, d2 = net.backward(cache, upstream), net.backward(cache, upstream, params=False)
        assert np.array_equal(d1, d2)
        assert all(np.array_equal(g1, g2) for g1, g2 in zip(grads1, grads2))


class TestReverseBuffers:
    """``backward`` writes its hidden-width temporaries into buffers the net
    keeps across calls; nothing it returns may live in them."""

    SIZES = (3, 96, 96, 96, 2)

    def batch(self, n, seed):
        rng = derive(seed, 3)
        return rng.standard_normal((n, 2)), rng.uniform(0.05, 3.0, n), rng.standard_normal((n, 2))

    def test_backward_peaks_below_one_hidden_array(self):
        net = tiny_net(17, self.SIZES)
        x, sigma, upstream = self.batch(512, 0)
        _, cache = net.forward_cached(x, sigma)
        net.backward(cache, upstream)  # warm-up at the same row count
        tracemalloc.start()
        try:
            net.backward(cache, upstream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 96 * 8

    def test_returned_arrays_survive_later_calls(self):
        net = tiny_net(17, self.SIZES)
        x, sigma, upstream = self.batch(300, 1)
        _, cache = net.forward_cached(x, sigma)
        grads = net.backward(cache, upstream)
        d_only = net.backward(cache, upstream, params=False)
        returned = [*grads, d_only]
        kept = [a.copy() for a in returned]
        # another upstream, more rows, fewer rows
        for n, seed in [(300, 2), (700, 3), (5, 4)]:
            x, sigma, upstream = self.batch(n, seed)
            _, cache = net.forward_cached(x, sigma)
            later_grads = net.backward(cache, upstream)
            later_d_input = net.backward(cache, upstream, params=False)
        assert all(np.array_equal(a, b) for a, b in zip(returned, kept))
        # what larger calls left in the buffers does not leak into a smaller one
        ref = ReferenceNet.sharing(net)
        ref_cache = ref.forward_cached(x, sigma)[1]
        ref_grads = ref.backward(ref_cache, upstream)
        assert np.array_equal(later_d_input, ref.backward(ref_cache, upstream, params=False))
        assert all(np.array_equal(g, r) for g, r in zip(later_grads, ref_grads))

    def test_copies_and_loaded_nets_get_buffers_of_their_own(self, tmp_path):
        net = tiny_net(17, self.SIZES)
        x, sigma, upstream = self.batch(64, 5)
        _, cache = net.forward_cached(x, sigma)
        net.backward(cache, upstream)
        path = tmp_path / "net.json"
        save_checkpoint(path, net, "ambient", 0.05, NoiseSchedule(0.035, 1.0), "test")
        others = [net.copy(), load_checkpoint(path)[0]]
        for other in others:
            assert np.array_equal(other.backward(cache, upstream, params=False),
                                  net.backward(cache, upstream, params=False))
        nets = [net, *others]
        assert all(len(n._reverse) == 3 for n in nets)
        for a, b in itertools.combinations(nets, 2):
            assert not any(np.shares_memory(x, y) for x in a._reverse for y in b._reverse)


class TestBlockedForward:
    """The cache-free forward runs in ROW_BLOCK-row blocks through reused
    buffers; it must match the unblocked cached pass bit for bit."""

    NET = tiny_net(16, sizes=(3, 96, 96, 96, 2))
    BATCHES = [0, 1, 683, 1023, 1024, 1025, 2047, 2048, 2049, 3071, 16384, 16385]

    @pytest.mark.parametrize("n", BATCHES)
    @pytest.mark.parametrize("per_row_sigma", [False, True])
    def test_equals_unblocked_cached_forward(self, n, per_row_sigma):
        rng = derive(17, n)
        x = rng.standard_normal((n, 2))
        sigma = rng.uniform(0.02, 2.0, n) if per_row_sigma else 0.4
        out = self.NET.forward(x, sigma)
        assert out.shape == (n, 2)
        assert np.array_equal(out, self.NET.forward_cached(x, sigma)[0])

    def test_successive_multi_block_forwards_are_independent(self):
        x = derive(18, 0).standard_normal((3 * ROW_BLOCK + 5, 2))
        x_kept = x.copy()
        first = self.NET.forward(x, 0.3)
        kept = first.copy()
        second = self.NET.forward(-x, 1.7)
        assert np.array_equal(first, kept)
        assert np.array_equal(x, x_kept)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, x) and not np.shares_memory(second, x)

    def test_empty_batch_keeps_output_shape(self):
        assert self.NET.forward(np.zeros((0, 2)), 0.5).shape == (0, 2)
        assert tiny_net().forward(np.zeros((0, 2)), np.full(0, 0.5)).shape == (0, 2)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", BATCHES)
    @pytest.mark.parametrize("per_row_sigma", [False, True])
    def test_equals_unblocked_cached_forward_on_any_cpu_count(self, cpus, n, per_row_sigma, set_cpus):
        set_cpus(cpus)
        rng = derive(19, n)
        x = rng.standard_normal((n, 2))
        sigma = rng.uniform(0.02, 2.0, n) if per_row_sigma else 0.4
        assert np.array_equal(self.NET.forward(x, sigma), self.NET.forward_cached(x, sigma)[0])

    def test_concurrent_callers_get_their_sequential_results(self, set_cpus):
        set_cpus(5)  # more groups than this machine's cores
        inputs = [derive(20, k).standard_normal((16385, 2)) for k in range(2)]
        expected = [self.NET.forward(x, 0.3 + k) for k, x in enumerate(inputs)]
        results = [[] for _ in inputs]
        start = threading.Barrier(len(inputs))

        def caller(k):
            start.wait()
            for _ in range(5):
                results[k].append(self.NET.forward(inputs[k], 0.3 + k))

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, expected):
            assert len(got) == 5 and all(np.array_equal(g, want) for g in got)

    def test_worker_blocks_run_under_the_callers_error_state(self, set_cpus):
        """Only the rows of the second group overflow, so the error must come
        from a worker thread, which sees ``over="raise"`` only through the
        caller's context."""
        set_cpus(2)
        net = tiny_net(21, sizes=(3, 96, 96, 96, 2))
        for w in net.weights:
            w *= 1e110
        x = np.zeros((4 * ROW_BLOCK, 2))
        x[2 * ROW_BLOCK :] = derive(21, 0).standard_normal((2 * ROW_BLOCK, 2))
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                net.forward(x, 1.0)  # sigma 1 zeroes the noise channel of the benign rows

    def test_forked_child_runs_multi_block_forwards(self, set_cpus):
        set_cpus(2)
        x = derive(22, 0).standard_normal((4 * ROW_BLOCK, 2))
        want = self.NET.forward(x, 0.3)  # the pool's worker thread now runs
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=lambda: queue.put(self.NET.forward(x, 0.3)))
        child.start()
        try:
            got = queue.get(timeout=30)
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0
        assert np.array_equal(got, want)


class TestReferenceContract:
    """Training through the in-place kernels reproduces the reference net's
    loss curve and parameters exactly, so kernel changes cannot move artifacts."""

    SIZES = [3, 32, 32, 32, 2]
    SCHED = NoiseSchedule(0.035, 1.0)

    def run(self, as_net):
        data = make_dataset("ring", 512, 0.05, seed=4)
        teacher = as_net(DenseNet.initialized(self.SIZES, derive(4, 1)))
        tcfg = TrainConfig(batch_size=64, lr=1e-3, steps=20, schedule=self.SCHED, sigma_hat=0.05, seed=4,
                           mode="ambient")
        curve = pretrain(teacher, data, tcfg)
        dcfg = DistillConfig(mode="adjusted", sigma_hat=0.05, schedule=self.SCHED, seed=0, method="sid",
                             steps=3, batch_size=64)
        state = init_distillation(teacher, dcfg)
        state.fake, state.generator = as_net(state.fake), as_net(state.generator)
        rng = make_rng(5)
        trace = [(fake_update(state, rng), generator_update(state, rng)) for _ in range(dcfg.steps)]
        digests = [net.params_digest() for net in (teacher, state.fake, state.generator)]
        return curve, trace, digests

    def test_pretrain_and_sid_match_reference_net(self):
        curve, trace, digests = self.run(lambda net: net)
        ref_curve, ref_trace, ref_digests = self.run(ReferenceNet.sharing)
        assert curve == ref_curve
        assert trace == ref_trace
        assert digests == ref_digests


class TestParams:
    def test_flat_roundtrip(self):
        net = tiny_net(10)
        flat = net.get_flat()
        net2 = tiny_net(11)
        net2.set_flat(flat)
        assert np.array_equal(net2.get_flat(), flat)

    def test_copy_is_deep(self):
        net = tiny_net(12)
        dup = net.copy()
        dup.weights[0][0, 0] += 1.0
        assert net.weights[0][0, 0] != dup.weights[0][0, 0]

    def test_digest_tracks_parameters(self):
        net = tiny_net(13)
        d1 = net.params_digest()
        net.biases[-1][0] += 1e-9
        assert net.params_digest() != d1

    def test_param_count(self):
        net = DenseNet.initialized([3, 4, 2], derive(0, 1))
        assert net.n_params() == 4 * 3 + 4 + 2 * 4 + 2


class TestAdam:
    def test_matches_reference_formula(self):
        p = np.array([1.0, -2.0])
        g = np.array([0.5, 0.1])
        opt = Adam([p], lr=0.01)
        opt.step([g])
        # first step with bias correction: update = lr * g / (|g| + eps)
        expected = np.array([1.0, -2.0]) - 0.01 * g / (np.abs(g) + 1e-8)
        assert np.allclose(p, expected, atol=1e-10)

    def test_zero_gradient_keeps_params_at_init(self):
        p = np.array([0.3, 0.7])
        opt = Adam([p], lr=0.1)
        opt.step([np.zeros(2)])
        assert np.allclose(p, [0.3, 0.7])

    def test_descends_quadratic(self):
        p = np.array([5.0])
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            opt.step([2.0 * p])
        assert abs(p[0]) < 1e-2
