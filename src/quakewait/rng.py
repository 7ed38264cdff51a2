"""The Monte Carlo replicate rule: one seedable stream per replicate.
Single-stream samplers hand their seed to ``np.random.default_rng``.

Replicate ``i`` under master seed ``s`` draws from a ``PCG64`` seeded with
words ``4i .. 4i+3`` of ``np.random.PCG64(s)``'s raw output: ``substreams``
takes a run's rows in one ``random_raw`` call, ``substream`` reaches row
``i`` with ``advance(4 i)``.  A stream depends on ``s`` and ``i`` only, so
results do not depend on how replicates are scheduled, and a run of n
replicates is a prefix of any longer run.  Each replicate keeps a generator
of its own, because replicates draw varying numbers of values (a Poisson
draw takes as many uniforms as its rejection loop needs); perfbench pins
one generator per replicate.  One feeder per call hands the rows to the
``PCG64`` constructors and is every generator's (non-spawnable) ``seed_seq``.
"""
from __future__ import annotations

import functools
import operator

import numpy as np

_STATE_WORDS = 4  # uint64 words of state a PCG64 asks for


@functools.cache
def _feeder_type() -> type:
    """The seed source that hands the rows of one (n, 4) uint64 array, in
    order, to the ``PCG64`` generators built from it.  It raises on any
    request but PCG64's ``(4, np.uint64)``, so that a change in numpy's
    seeding cannot change the streams unnoticed, and on a request past the
    last row; ``close`` raises if a row is left.  Built on first use:
    subclassing ``ISeedSequence`` at import would import numpy.random into
    every CLI command, those that draw nothing included.
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


def _generators(master_seed: int, first: int, n: int) -> list[np.random.Generator]:
    """Generators for replicates ``first .. first+n-1``, seeded with those
    rows of the rule and fed by one feeder."""
    if master_seed < 0:
        raise ValueError("master_seed must be nonnegative")
    master = np.random.PCG64(master_seed)
    master.advance(_STATE_WORDS * first)
    feeder = _feeder_type()(master.random_raw(_STATE_WORDS * n).reshape(n, _STATE_WORDS))
    gens = [np.random.Generator(np.random.PCG64(feeder)) for _ in range(n)]
    feeder.close()
    return gens


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Generator for replicate ``index`` under master seed ``master_seed``.
    ValueError unless master_seed >= 0 and 0 <= index < 2**32."""
    index = operator.index(index)
    if not 0 <= index < 2**32:
        raise ValueError("index must lie in [0, 2**32)")
    return _generators(int(master_seed), index, 1)[0]


def substreams(master_seed: int, n: int) -> list[np.random.Generator]:
    """``[substream(master_seed, i) for i in range(n)]``, seeded from one
    ``random_raw`` call.  They carry the call's feeder, not a SeedSequence,
    so ``Generator.spawn`` is not available on them.  ValueError unless
    master_seed >= 0 and 0 <= n <= 2**32."""
    n = operator.index(n)
    if not 0 <= n <= 2**32:
        raise ValueError("n must lie in [0, 2**32]")
    return _generators(int(master_seed), 0, n)
