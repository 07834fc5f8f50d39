"""2-D toy datasets observed through additive Gaussian corruption.

All generators live at scale ~0.25 (ring radius 0.25, moons and mode grid
scaled to match) so the reference corruption level of 0.05 is a visible
20%-of-radius smear.  It barely moves the fitted moments, though: on the ring
each axis variance goes from 0.03125 to 0.03375, an expected noisy-to-clean
Frechet distance of 2(sqrt(0.03375) - sqrt(0.03125))^2 ~ 9.6e-5, as large as
the sampling error of a 1024-point fit (the `raw_noisy` eval row read 6.7e-5
to 2.45e-4 on seeds 1, 2, 3 and 7).  The moment metrics alone cannot show the
denoising effect; ROADMAP direction 2 adds metrics that can.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .rng import derive

KINDS = ("ring", "two_moons", "mode_grid")
MIN_POINTS = 256


@dataclass(frozen=True)
class ToyDataset:
    """Noisy training points plus the clean points they were corrupted from.

    ``points`` is the training data (clean + sigma_data * noise); the clean
    counterpart is kept so evaluation can measure distances to the underlying
    distribution without re-deriving it.
    """

    points: np.ndarray  # n x 2, the noisy observations
    clean: np.ndarray  # n x 2, pre-corruption counterparts
    kind: str
    sigma_data: float

    def __post_init__(self):
        if self.points.shape[0] < MIN_POINTS:
            raise PreconditionError(
                f"toy datasets need at least {MIN_POINTS} points, got {self.points.shape[0]}"
            )
        if not (np.all(np.isfinite(self.points)) and np.all(np.isfinite(self.clean))):
            raise PreconditionError("dataset contains non-finite points")

    @property
    def n(self) -> int:
        return self.points.shape[0]


SCALE = 0.25


def sample_clean(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points from one of the clean toy distributions."""
    if kind == "ring":
        angle = rng.uniform(0.0, 2.0 * np.pi, n)
        return SCALE * np.column_stack([np.cos(angle), np.sin(angle)])
    if kind == "two_moons":
        t = rng.uniform(0.0, np.pi, n)
        upper = rng.random(n) < 0.5
        x = np.where(upper, np.cos(t), 1.0 - np.cos(t))
        y = np.where(upper, np.sin(t), 0.5 - np.sin(t))
        return SCALE * np.column_stack([x - 0.5, y - 0.25])
    if kind == "mode_grid":
        centers = np.array([(i, j) for i in (-1.0, 0.0, 1.0) for j in (-1.0, 0.0, 1.0)])
        return SCALE * centers[rng.integers(0, len(centers), n)]
    raise PreconditionError(f"unknown dataset kind {kind!r}; choose from {KINDS}")


def make_dataset(kind: str, n: int, sigma_data: float, seed: int) -> ToyDataset:
    """Build a dataset: clean draw first, then one corruption pass at sigma_data."""
    if sigma_data < 0:
        raise PreconditionError(f"sigma_data must be nonnegative, got {sigma_data}")
    rng = derive(seed, 0)
    clean = sample_clean(kind, n, rng)
    noisy = clean + sigma_data * rng.standard_normal(clean.shape)
    return ToyDataset(points=noisy, clean=clean, kind=kind, sigma_data=sigma_data)
