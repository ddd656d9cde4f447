"""Deterministic RNG derivation.

Every stochastic procedure draws from a generator derived from a 64-bit
master seed plus integer stream tags, so there is no global randomness and
identical configs reproduce identical runs bit for bit.
"""

from __future__ import annotations

import numpy as np

# Stream tags, one per consumer, so substreams never collide.
SPLIT_STREAM = 1
FOLD_STREAM = 2
FOREST_STREAM = 3
SVM_STREAM = 4
GENERATOR_STREAM = 5
GRID_STREAM = 6
FOREST_GRID_STREAM = 7


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed_sequence(seed, *tags)))


def seed_sequence(seed: int, *tags: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, *tags])


def derive_seed(seed: int, *tags: int) -> int:
    """A plain 64-bit integer sub-seed, for APIs that take ints."""
    return int(seed_sequence(seed, *tags).generate_state(1, np.uint64)[0])
