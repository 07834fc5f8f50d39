"""Seeded random streams.

All randomness in the package flows through ``numpy.random.Generator``
instances backed by the Philox-4x64-10 counter-based bit generator.  Philox
produces the same stream on every platform for a given seed; ``derive``
addresses independent substreams by a tuple, so named uses of randomness
never share mutable state.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Root stream for a run."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def derive(seed: int, *path: int) -> np.random.Generator:
    """Deterministic stream addressed by a tuple, e.g. ``derive(seed, 3, 7)``.

    Used where a run needs named substreams (dataset creation, evaluation,
    per-checkpoint corruption) that must not advance each other.
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=path))
    )
