"""Small dense networks with explicit parameters and hand-written
reverse-mode gradients.

One architecture serves every role in the toy pipeline: denoisers condition
on the noise level through an extra scalar input channel (log(sigma)/4), and
the one-step generator is the same network read with that channel pinned.
Gradients are assembled manually so the package needs no autodiff framework
and every update is inspectable; correctness is pinned to finite differences
in the tests.
"""

from __future__ import annotations

import numpy as np

from . import parallel
from .errors import PreconditionError

# Rows per block of a cache-free forward pass.  Blocks hold 1024-2047 rows
# (fewer only when the whole batch is smaller) and must not shrink: below about
# 683 rows OpenBLAS switches a 96->2 matmul to its small-matrix kernel, whose
# results differ in the last bits.
ROW_BLOCK = 1024


def silu(z: np.ndarray, denom: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Sigmoid-weighted linear unit, z * sigmoid(z), computed as z / (1 + exp(-z)).

    ``denom`` (shaped like ``z``) receives 1 + exp(-z) for ``silu_grad`` to
    reuse; ``out`` may be ``z`` itself, which then holds the activation.
    """
    if denom is None:
        denom = np.empty_like(z)
    np.negative(z, out=denom)
    np.exp(denom, out=denom)
    denom += 1.0
    return np.divide(z, denom, out=out)


def silu_grad(z: np.ndarray, denom: np.ndarray | None = None, out: np.ndarray | None = None,
              work: np.ndarray | None = None) -> np.ndarray:
    """d silu / dz = s (1 + z (1 - s)) with s = 1 / denom, where ``denom`` is
    the 1 + exp(-z) that ``silu`` stored (recomputed when not given).

    ``out`` receives the result and ``work`` (shaped like ``z``) the factor
    1 + z (1 - s); each is allocated when not given.
    """
    if denom is None:
        denom = 1.0 + np.exp(-z)
    s = np.divide(1.0, denom, out=out)
    g = np.subtract(1.0, s, out=work)
    g *= z
    g += 1.0
    s *= g
    return s


class DenseNet:
    """Fully-connected net: Linear -> SiLU blocks, linear output layer.

    ``layer_sizes[0]`` counts the noise-level channel, so a 2-D denoiser with
    three hidden layers of 64 units is ``[3, 64, 64, 64, 2]``.  Parameters are
    float64 arrays; ``weights[i]`` has shape (fan_out, fan_in).
    """

    # The reverse pass's buffers.  A net sets its own on its first ``backward``,
    # so nets made without ``__init__`` (copies, loaded checkpoints) share none.
    _reverse: tuple = ()

    def __init__(self, layer_sizes: list[int], rng: np.random.Generator):
        if len(layer_sizes) < 2 or any(n < 1 for n in layer_sizes):
            raise PreconditionError(f"bad layer sizes {layer_sizes}")
        self.layer_sizes = list(layer_sizes)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(scale * rng.standard_normal((fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))

    @property
    def data_dim(self) -> int:
        """Dimension of the data part of the input (excludes the sigma channel)."""
        return self.layer_sizes[0] - 1

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    def n_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def copy(self) -> "DenseNet":
        dup = object.__new__(DenseNet)
        dup.layer_sizes = list(self.layer_sizes)
        dup.weights = [w.copy() for w in self.weights]
        dup.biases = [b.copy() for b in self.biases]
        return dup

    # -- forward / backward ------------------------------------------------

    def _stack_input(self, x: np.ndarray, sigma) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.data_dim:
            raise PreconditionError(
                f"input has {x.shape[1]} features, net expects {self.data_dim}"
            )
        sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (x.shape[0],))
        channel = np.log(sigma)[:, None] / 4.0
        return np.concatenate([x, channel], axis=1)

    def forward(self, x: np.ndarray, sigma) -> np.ndarray:
        """Evaluate the net on a batch (n, data_dim) at noise level(s) sigma."""
        out, _ = self.forward_cached(x, sigma, keep_cache=False)
        return out

    def forward_cached(self, x: np.ndarray, sigma, keep_cache: bool = True):
        """Forward pass keeping pre-activations, SiLU denominators and
        activations for a later backward pass.

        With ``keep_cache=False`` the pass runs in row blocks through reused
        buffers (see ``_forward_blocks``) and the returned cache is ``None``.
        """
        a = self._stack_input(x, sigma)
        if not keep_cache:
            return self._forward_blocks(a), None
        pre, denoms, acts = [], [], [a]
        denom = None
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w.T
            z += b
            if i == last:
                a = z
            else:
                denom = np.empty_like(z)
                a = silu(z, denom)
            pre.append(z)
            denoms.append(denom)
            acts.append(a)
        return a, (pre, denoms, acts)

    def _forward_blocks(self, a: np.ndarray) -> np.ndarray:
        """Cache-free forward of the stacked input ``a``, ``ROW_BLOCK`` rows at
        a time (the last block takes the remainder), so each layer's
        temporaries stay in L2.  The blocks run on every CPU through
        ``parallel.map_groups``, each group of blocks through its own two
        buffers.  Every element sees the same operations in the same order as
        the unblocked pass, whatever the number of groups."""
        n = a.shape[0]
        out = np.empty((n, self.out_dim))
        starts = [k * ROW_BLOCK for k in range(max(1, n // ROW_BLOCK))]
        blocks = list(zip(starts, starts[1:] + [n]))
        size = max(stop - start for start, stop in blocks) * max(self.layer_sizes[1:-1], default=0)
        parallel.map_groups(lambda block, pair: self._forward_block(a, out, block, pair), blocks,
                            lambda: (np.empty(size), np.empty(size)))
        return out

    def _forward_block(self, a, out, block, pair) -> None:
        """Forward rows ``block`` of ``a`` into ``out`` through the two flat
        buffers ``pair``: each layer writes into one, and the other, holding
        the layer's input that the matmul has consumed, takes the SiLU
        denominator.  The output layer writes straight into ``out``."""
        start, stop = block
        last = len(self.weights) - 1
        h = a[start:stop]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            shape = (h.shape[0], w.shape[0])
            z = out[start:stop] if i == last else pair[i % 2][: shape[0] * shape[1]].reshape(shape)
            np.matmul(h, w.T, out=z)
            z += b
            if i < last:
                silu(z, pair[(i + 1) % 2][: z.size].reshape(shape), out=z)
            h = z

    def backward(self, cache, upstream: np.ndarray, params: bool = True):
        """Reverse pass: gradients of sum(upstream * output) in params and input.

        Returns ``(grads, d_input)`` where ``grads`` matches the structure of
        ``parameters()`` and ``d_input`` is the (n, data_dim) gradient with
        respect to the data part of the input (the sigma channel is treated
        as a constant).  With ``params=False`` the parameter gradients are
        skipped and only ``d_input`` is returned.  Neither ``cache`` nor
        ``upstream`` is modified, and the returned arrays are fresh.

        The hidden-width temporaries go to three flat buffers that the net
        keeps across calls (see ``_reverse_buffers``), so a training step maps
        no fresh pages; one net's passes must therefore not run on two threads
        at once.  Each product delta @ W[i] for i >= 1 goes to whichever of
        two buffers does not hold delta, and silu_grad's factor to the third,
        with the free one of the two as its work space.
        """
        pre, denoms, acts = cache
        delta = np.atleast_2d(np.asarray(upstream, dtype=float))
        held, spare, factor = self._reverse_buffers(delta.shape[0])

        def view(buf, cols):
            return buf[: delta.shape[0] * cols].reshape(delta.shape[0], cols)

        last = len(self.weights) - 1
        w_grads = [None] * len(self.weights)
        b_grads = [None] * len(self.biases)
        for i in range(last, -1, -1):
            if i < last:  # delta is the product of the layer above, in ``held``
                cols = delta.shape[1]
                delta *= silu_grad(pre[i], denoms[i], out=view(factor, cols), work=view(spare, cols))
            if params:
                w_grads[i] = delta.T @ acts[i]
                b_grads[i] = delta.sum(axis=0)
            if i == 0:  # the input layer's product is small and returned: fresh
                delta = delta @ self.weights[0]
            else:
                delta = np.matmul(delta, self.weights[i], out=view(spare, self.layer_sizes[i]))
                held, spare = spare, held
        d_input = delta[:, : self.data_dim]
        return (w_grads + b_grads, d_input) if params else d_input

    def _reverse_buffers(self, rows: int) -> tuple:
        """Three flat buffers of at least ``rows`` times the widest hidden
        layer, kept on the net and grown only when a call needs more rows."""
        size = rows * max(self.layer_sizes[1:-1], default=0)
        if not self._reverse or self._reverse[0].size < size:
            self._reverse = (np.empty(size), np.empty(size), np.empty(size))
        return self._reverse

    # -- parameter plumbing --------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        """Live references, ordered weights then biases (update in place)."""
        return self.weights + self.biases

    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.parameters()])

    def set_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.size != self.n_params():
            raise PreconditionError(f"expected {self.n_params()} values, got {flat.size}")
        offset = 0
        for p in self.parameters():
            p[...] = flat[offset : offset + p.size].reshape(p.shape)
            offset += p.size

    def params_digest(self) -> str:
        """Stable hash of all parameters; used to assert immutability."""
        import hashlib

        h = hashlib.sha256()
        for p in self.parameters():
            h.update(np.ascontiguousarray(p).tobytes())
        return h.hexdigest()


def cosine_decay(step: int, steps: int) -> float:
    """Learning-rate factor: cosine from 1 at step 0 to 1/50 at step ``steps - 1``.
    There is no weight EMA; the late small-step phase is what lets a net settle
    below its batch-noise floor."""
    if steps <= 1:
        return 1.0
    frac = 0.5 * (1.0 + np.cos(np.pi * step / (steps - 1)))
    return 0.02 + 0.98 * frac


class Adam:
    """Adam with the fixed constants beta1=0.9, beta2=0.999, eps=1e-8."""

    def __init__(self, params: list[np.ndarray], lr: float):
        self.lr = lr
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
