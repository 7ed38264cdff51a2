import numpy as np
import pytest

from quakewait.rng import substream, substreams


@pytest.mark.parametrize("seed, n", [(0, 5), (7, 7), (123, 510)])
def test_substreams_match_single_substreams(seed, n):
    block = [g.random(4) for g in substreams(seed, n)]
    single = [substream(seed, i).random(4) for i in range(n)]
    assert len(block) == n
    assert all(np.array_equal(a, b) for a, b in zip(block, single))
