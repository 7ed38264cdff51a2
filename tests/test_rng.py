import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quakewait import rng
from quakewait.rng import _child_states, _feeder_type, substream, substreams


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
    feeder = _feeder_type()(_child_states(0, 1))
    with pytest.raises(RuntimeError, match="expected a request"):
        feeder.generate_state(n_words, dtype)
    with pytest.raises(RuntimeError, match="expected a request"):
        feeder.generate_state(4)  # SeedSequence's default dtype is uint32
    # a refused request hands out no row
    assert np.array_equal(feeder.generate_state(4, np.uint64), _child_states(0, 1)[0])


@given(seed=seeds, n=st.integers(0, 40), taken=st.integers(0, 41))
@settings(max_examples=50, deadline=None)
def test_feeder_hands_out_each_row_once_in_order(seed, n, taken):
    states = _child_states(seed, n)
    feeder = _feeder_type()(states)
    for row in states[:taken]:
        assert np.array_equal(feeder.generate_state(4, np.dtype("uint64")), row)
    if taken < n:
        with pytest.raises(RuntimeError, match="left unconsumed"):
            feeder.close()
    else:
        with pytest.raises(RuntimeError, match="every state row"):
            feeder.generate_state(4, np.uint64)
        feeder.close()


def test_generators_of_one_call_share_one_feeder():
    gens = substreams(5, 3)
    feeder = gens[0].bit_generator.seed_seq
    assert all(g.bit_generator.seed_seq is feeder for g in gens)
    assert not isinstance(feeder, np.random.bit_generator.ISpawnableSeedSequence)
    with pytest.raises(TypeError):
        gens[0].spawn(1)


def test_substreams_raise_if_pcg64_skips_a_row(monkeypatch):
    # a PCG64 that seeded itself without asking its seed source would
    # leave the last row unconsumed
    real = np.random.PCG64
    built = []

    def pcg64(seed_seq):
        built.append(seed_seq)
        return real(0) if len(built) == 2 else real(seed_seq)

    monkeypatch.setattr(rng.np.random, "PCG64", pcg64)
    with pytest.raises(RuntimeError, match="left unconsumed"):
        substreams(0, 3)


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
