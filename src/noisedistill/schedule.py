"""Bounded noise schedules shared by the exact theory and the neural pipeline."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError


@functools.cache  # built on first use (only verify needs it) and shared, hence read-only
def _gauss_legendre_64() -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(64)
    nodes, weights = (x + 1.0) / 2.0, w / 2.0
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class NoiseSchedule:
    """Variance-exploding noise levels ``sigma_t`` for ``t`` in (0, 1).

    The law is geometric interpolation, ``sigma_t = sigma_min *
    (sigma_max/sigma_min)**t``, which is monotone and keeps every level inside
    ``[sigma_min, sigma_max]``; ``t`` itself is always drawn uniformly.  A
    constant schedule is the ``sigma_min == sigma_max`` special case.  The
    strictly positive floor keeps score integrands finite at every level.
    """

    sigma_min: float = 0.02
    sigma_max: float = 5.0

    def __post_init__(self):
        if not (0 < self.sigma_min <= self.sigma_max < np.inf):
            raise PreconditionError(
                f"need 0 < sigma_min <= sigma_max < inf, got ({self.sigma_min}, {self.sigma_max})"
            )

    def sigma(self, t):
        """Noise level at time ``t`` (scalar or array)."""
        t = np.asarray(t, dtype=float)
        ratio = self.sigma_max / self.sigma_min
        out = self.sigma_min * ratio**t
        return float(out) if out.ndim == 0 else out

    def sample_sigma(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Noise levels at ``n`` times drawn from Unif(0, 1)."""
        return self.sigma(rng.uniform(0.0, 1.0, size=n))

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only nodes and weights of the one rule every average over
        t ~ Unif(0, 1) uses: 64-node Gauss-Legendre, exact for polynomials in
        t of degree up to 127."""
        return _gauss_legendre_64()

    def sampling_grid(self, steps: int) -> np.ndarray:
        """Decreasing geometric grid sigma_max = s[0] > ... > s[-1] = sigma_min."""
        if steps < 2:
            raise PreconditionError(f"need at least 2 grid points, got {steps}")
        return np.geomspace(self.sigma_max, self.sigma_min, steps)
