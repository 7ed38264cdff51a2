import numpy as np
import pytest

from quakewait.rng import substream, substreams


@pytest.mark.parametrize("seed, n, start", [(0, 5, 0), (7, 3, 4), (123, 10, 500)])
def test_substreams_from_start_match_single_substreams(seed, n, start):
    block = [g.random(4) for g in substreams(seed, n, start)]
    single = [substream(seed, i).random(4) for i in range(start, start + n)]
    assert len(block) == n
    assert all(np.array_equal(a, b) for a, b in zip(block, single))
