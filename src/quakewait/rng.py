"""Seedable random number streams with a fixed substream-derivation rule.

Replicate ``i`` of any Monte Carlo run draws from the child generator
``substream(master_seed, i)``, where the child seed sequence is
``SeedSequence(master_seed, spawn_key=(i,))``.  Results are therefore
identical no matter how replicates are scheduled or parallelised.
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


def substreams(master_seed: int, n: int, start: int = 0) -> list[np.random.Generator]:
    """Child generators for replicates ``start..start+n-1``.

    Equivalent to ``[substream(master_seed, i) for i in range(start,
    start + n)]`` but spawned in one pass, without building the first
    ``start`` children.
    """
    parent = np.random.SeedSequence(int(master_seed), n_children_spawned=int(start))
    return [np.random.default_rng(c) for c in parent.spawn(n)]
