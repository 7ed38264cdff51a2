"""The Monte Carlo replicate rule: seedable streams, one per replicate.
Single-stream samplers hand their seed to ``np.random.default_rng``.

Replicate ``i`` of any Monte Carlo run draws from the child generator
``substream(master_seed, i)``, where the child seed sequence is
``SeedSequence(master_seed, spawn_key=(i,))``.  Results are therefore
identical no matter how replicates are scheduled or parallelised.
``substreams(master_seed, n)`` builds replicates 0..n-1 of one run in one
call; it takes no start index, so a run draws all its replicates at once.

``substreams`` returns the same generators as ``substream``, bit for bit,
without building a ``SeedSequence`` per replicate.  A ``PCG64`` takes its
state from ``SeedSequence.generate_state(4, np.uint64)``, a fixed hash
(numpy's stream-compatibility policy, NEP 19, freezes it) of the entropy
words: the seed's 32-bit words, zero-padded to the pool size of 4 when a
spawn key is present, followed by the spawn key.  numpy fills a short pool
with the hash of 0, which is what the padding gives, so every child's pool
before its spawn index goes in is ``SeedSequence(master_seed).pool``.
``_child_states`` takes that pool from numpy and hashes in the spawn
indices, then hashes out the state words, on uint32 arrays with one column
per child.  One seed feeder per call then hands the rows to the ``PCG64``
constructors in order, so every generator of a call shares that feeder as
its (non-spawnable) ``seed_seq``.
"""
from __future__ import annotations

import functools
import operator

import numpy as np

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_STATE_WORDS = 4  # uint64 words of state a PCG64 asks for
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Generator for replicate ``index`` under master seed ``master_seed``."""
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(int(index),))
    return np.random.default_rng(ss)


def _hashmix(value: np.ndarray, init: int, mult: int, first: int) -> np.ndarray:
    """SeedSequence's hash of the rows of a (k, n) uint32 array, row j at
    hash step ``first + j``.  The hash constant at step s is
    ``init * mult**s`` mod 2**32 whatever the data, so one array operation
    hashes every row."""
    const = np.array([init * pow(mult, first + j, 2**32) % 2**32
                      for j in range(len(value) + 1)], dtype=np.uint32)[:, None]
    value = (value ^ const[:-1]) * const[1:]  # uint32 arrays wrap mod 2**32
    return value ^ (value >> _XSHIFT)


def _child_states(master_seed: int, n: int) -> np.ndarray:
    """Row i of this C-contiguous (n, 4) uint64 array is
    ``SeedSequence(master_seed, spawn_key=(i,)).generate_state(4, np.uint64)``.

    The pool comes from numpy.  ``mix_entropy`` has then taken
    ``4 * max(4, w)`` hash steps over the seed's w words: the pool fill,
    the 12 cross-mixes and 4 per word beyond the pool size.  The spawn
    index's four mixing steps and ``generate_state``'s eight output words
    run here on (4, n) and (8, n) uint32 arrays.  ValueError unless
    master_seed >= 0 and 0 <= n <= 2**32, so that every spawn index is one
    uint32 word.
    """
    if master_seed < 0:
        raise ValueError("master_seed must be nonnegative")
    if not 0 <= n <= 2**32:
        raise ValueError("n must lie in [0, 2**32]")
    n_words = -(-master_seed.bit_length() // 32)
    key = np.broadcast_to(np.arange(n, dtype=np.uint32), (_POOL_SIZE, n))
    key = _hashmix(key, _INIT_A, _MULT_A, _POOL_SIZE * max(_POOL_SIZE, n_words))
    pool = (_MIX_MULT_L * np.random.SeedSequence(master_seed).pool[:, None]
            - _MIX_MULT_R * key)
    pool ^= pool >> _XSHIFT
    lanes = np.arange(2 * _STATE_WORDS) % _POOL_SIZE
    state = _hashmix(pool[lanes], _INIT_B, _MULT_B, 0).astype(np.uint64)
    # uint32 word pairs (low, high) make one uint64, as generate_state does
    return np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)


@functools.cache
def _feeder_type() -> type:
    """The seed source that hands out the rows of one ``_child_states``
    array, in order, one per ``PCG64`` built from it.

    PCG64 asks it for ``(4, np.uint64)``; any other request means numpy
    seeds PCG64 differently from what ``_child_states`` computes, so it
    raises rather than let the streams change unnoticed.  So does a
    request beyond the last row, and ``close`` raises if a row is left
    unconsumed: either means a PCG64 did not take exactly one row.  The
    class is built on first use: subclassing ``ISeedSequence`` at import
    would import numpy.random into every CLI command, those that draw
    nothing included.
    """

    class Feeder(np.random.bit_generator.ISeedSequence):
        def __init__(self, states: np.ndarray):
            self._rows = iter(states)

        def generate_state(self, n_words, dtype=np.uint32):
            # the identity test skips np.dtype's cost on PCG64's own request
            if n_words != _STATE_WORDS or (dtype is not np.uint64
                                           and np.dtype(dtype) != np.uint64):
                raise RuntimeError(
                    f"expected a request for ({_STATE_WORDS}, uint64) state, "
                    f"got ({n_words}, {np.dtype(dtype)})")
            row = next(self._rows, None)
            if row is None:
                raise RuntimeError("every state row has been handed out")
            return row

        def close(self) -> None:
            if next(self._rows, None) is not None:
                raise RuntimeError("a state row was left unconsumed")

    return Feeder


def substreams(master_seed: int, n: int) -> list[np.random.Generator]:
    """Generators for replicates ``0..n-1``: ``[substream(master_seed, i)
    for i in range(n)]``, their states derived in one vectorised pass and
    fed to the ``PCG64`` constructors by one feeder.  They carry that
    feeder, not a SeedSequence, so ``Generator.spawn`` is not available
    on them."""
    feeder = _feeder_type()(_child_states(int(master_seed), operator.index(n)))
    gens = [np.random.Generator(np.random.PCG64(feeder)) for _ in range(n)]
    feeder.close()
    return gens
