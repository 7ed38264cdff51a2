import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quakewait import rng
from quakewait.rng import _child_states, _fixed_state_type, substream, substreams


@pytest.mark.parametrize("seed, n", [(0, 5), (7, 7), (123, 510)])
def test_substreams_match_single_substreams(seed, n):
    block = [g.random(4) for g in substreams(seed, n)]
    single = [substream(seed, i).random(4) for i in range(n)]
    assert len(block) == n
    assert all(np.array_equal(a, b) for a, b in zip(block, single))


# seeds of 1 to 6 uint32 words, each word count drawn as often as the others;
# the zero padding to the pool size of 4 words stops at 2**128
_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96, 2**128 - 1, 2**128, 2**192 - 1]
seeds = st.one_of(
    st.sampled_from(_EDGE_SEEDS),
    st.integers(1, 6).flatmap(
        lambda w: st.integers(0 if w == 1 else 2 ** (32 * (w - 1)), 2 ** (32 * w) - 1)))


@given(seed=seeds, n=st.integers(0, 600))
@settings(max_examples=100, deadline=None)
def test_child_states_equal_seed_sequence_spawn(seed, n):
    states = _child_states(seed, n)
    ref = [c.generate_state(4, np.uint64) for c in np.random.SeedSequence(seed).spawn(n)]
    assert states.dtype == np.uint64 and states.shape == (n, 4)
    assert np.array_equal(states, np.array(ref, dtype=np.uint64).reshape(n, 4))


@given(seed=seeds, n=st.integers(0, 64))
@settings(max_examples=50, deadline=None)
def test_substreams_draw_as_substream(seed, n):
    gens = substreams(seed, n)
    assert len(gens) == n
    for i, g in enumerate(gens):
        ref = substream(seed, i)
        assert g.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(g.poisson(1e4, size=3), ref.poisson(1e4, size=3))
        assert np.array_equal(g.random(3), ref.random(3))


@given(seed=seeds, n=st.integers(0, 64))
@settings(max_examples=50, deadline=None)
def test_substreams_run_is_prefix_of_longer_run(seed, n):
    short = [g.bit_generator.state for g in substreams(seed, n)]
    longer = [g.bit_generator.state for g in substreams(seed, n + 1)]
    assert short == longer[:n]


@pytest.mark.parametrize("n_words, dtype", [
    (4, np.uint32), (2, np.uint64), (8, np.uint64), (8, np.uint32), (4, np.float64)])
def test_fixed_state_refuses_other_requests(n_words, dtype):
    fixed = _fixed_state_type()(_child_states(0, 1)[0])
    with pytest.raises(RuntimeError, match="expected a request"):
        fixed.generate_state(n_words, dtype)
    with pytest.raises(RuntimeError, match="expected a request"):
        fixed.generate_state(4)  # SeedSequence's default dtype is uint32


def test_substreams_bounds(monkeypatch):
    assert substreams(3, 0) == []
    with pytest.raises(ValueError, match="n must"):
        substreams(0, -1)
    with pytest.raises(ValueError, match="master_seed must"):
        substreams(-1, 3)

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before rejecting n")

    monkeypatch.setattr(rng.np, "full", no_allocation)
    monkeypatch.setattr(rng.np, "arange", no_allocation)
    monkeypatch.setattr(rng.np, "empty", no_allocation)
    with pytest.raises(ValueError, match="n must"):
        substreams(0, 2**32 + 1)
