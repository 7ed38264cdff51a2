"""Seedable random number streams with a fixed substream-derivation rule.

Replicate ``i`` of any Monte Carlo run draws from the child generator
``substream(master_seed, i)``, where the child seed sequence is
``SeedSequence(master_seed, spawn_key=(i,))``.  Results are therefore
identical no matter how replicates are scheduled or parallelised.
``substreams(master_seed, n)`` spawns replicates 0..n-1 of one run in one
call; it takes no start index, so a run draws all its replicates at once.
"""
from __future__ import annotations

import numpy as np


def as_generator(seed) -> np.random.Generator:
    """Coerce an int, SeedSequence or Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Generator for replicate ``index`` under master seed ``master_seed``."""
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(int(index),))
    return np.random.default_rng(ss)


def substreams(master_seed: int, n: int) -> list[np.random.Generator]:
    """Generators for replicates ``0..n-1``: ``[substream(master_seed, i)
    for i in range(n)]``, spawned in one pass."""
    return [np.random.default_rng(c)
            for c in np.random.SeedSequence(int(master_seed)).spawn(n)]
