import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coldstart_dynaq.env import DomainError
from coldstart_dynaq.wordstream import _PAIRS, WordStream

# n == 1 draws nothing, 2**32 takes a 32-bit half as it is, and 2**31 + 5
# rejects about half of its draws
NS = (1, 2, 3, 11, 3000, 2**31 + 5, 2**32)


def test_stream_matches_numpy_draw_for_draw():
    draws, per_wrap = 1_000_000, 50_000
    ref, wrapped = np.random.default_rng(11), np.random.default_rng(11)
    # enter with a cached 32-bit half pending
    assert wrapped.integers(11) == ref.integers(11)
    plan = np.random.default_rng(12)
    kinds = plan.integers(len(NS) + 1, size=draws).tolist()
    for start in range(0, draws, per_wrap):
        want, got = [], []
        with WordStream(wrapped) as stream:
            for k in kinds[start:start + per_wrap]:
                if k == len(NS):
                    want.append(ref.random())
                    got.append(stream.random())
                else:
                    want.append(int(ref.integers(NS[k])))
                    got.append(stream.integers(NS[k]))
        assert got == want
        assert wrapped.bit_generator.state == ref.bit_generator.state
        # numpy's own draws between wraps, leaving a cached half or not
        for rng in (wrapped, ref):
            rng.random(3)
            rng.integers(5, size=start // per_wrap % 3)
            rng.integers(2**31 + 5)
        assert wrapped.bit_generator.state == ref.bit_generator.state


def numpy_burst(rng, k: int, n: int) -> tuple[list[int], list[float]]:
    """n interleaved rng.integers(k) and rng.random() draws, as burst's two lists."""
    indices, uniforms = [], []
    for _ in range(n):
        indices.append(int(rng.integers(k)))
        uniforms.append(rng.random())
    return indices, uniforms


# A burst reads its pairs from a cache that one fill gives _PAIRS pairs.
# The integers(5) between bursts puts the cache's unread words back on the
# buffer, so each burst starts a fill that takes them first: the lengths
# around _PAIRS end that fill or take the first pair of the next one, and
# 3 * _PAIRS spans several. 3 * 2**30 rejects a quarter of all low halves and 2**31 + 1 about
# half, so their bursts draw many pairs from the words; 246 and 2**32 - 5
# almost never reject, and 2**32 never does.
@pytest.mark.parametrize("k", [1, 2, 3, 246, 2**32 - 5, 2**32, 3 * 2**30, 2**31 + 1])
@pytest.mark.parametrize("cached", [False, True])
def test_burst_matches_interleaved_draws(k, cached):
    ref, wrapped = np.random.default_rng(21), np.random.default_rng(21)
    if cached:
        assert wrapped.integers(11) == ref.integers(11)
    with WordStream(wrapped) as stream:
        for n in (0, 1, 7, _PAIRS - 1, _PAIRS, _PAIRS + 1, 3 * _PAIRS, 300, 100):
            assert stream.burst(k, n) == numpy_burst(ref, k, n)
            # a scalar draw between bursts, from where the burst left off
            assert stream.integers(5) == ref.integers(5)
    assert wrapped.bit_generator.state == ref.bit_generator.state


# (kind, k, count): a burst of count pairs, a run of count random() or
# integers(k) calls, or a borrow whose generator draws count integers(k)
# and one random() itself
DRAWS = st.one_of(
    st.tuples(st.just("burst"), st.sampled_from(
        (1, 2, 3, 11, 246, 370, 3 * 2**30, 2**31 + 1, 2**32 - 5, 2**32)), st.integers(0, 700)),
    st.tuples(st.just("random"), st.just(0), st.integers(1, 300)),
    st.tuples(st.sampled_from(("integers", "borrow")), st.sampled_from(NS), st.integers(0, 3)),
)


def draw_both(stream, ref, kind, k, count):
    """One of DRAWS from the stream and the same calls on numpy's ref, which must agree."""
    if kind == "burst":
        assert stream.burst(k, count) == numpy_burst(ref, k, count)
    elif kind == "random":
        assert [stream.random() for _ in range(count)] == [ref.random() for _ in range(count)]
    elif kind == "integers":
        got = [stream.integers(k) for _ in range(count)]
        assert got == [int(ref.integers(k)) for _ in range(count)]
    else:
        with stream.borrow() as rng:
            # the lent generator is where numpy's own draws left the reference
            assert rng.bit_generator.state == ref.bit_generator.state
            assert rng.integers(k, size=count).tolist() == ref.integers(k, size=count).tolist()
            assert rng.random() == ref.random()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.booleans(), st.integers(0, 2**32), st.lists(DRAWS, max_size=12))
# the first random() refills a 256-word block, whose rest the burst's fill takes
@example(False, 3, [("random", 0, 1), ("burst", 370, 600)])
@example(True, 3, [("random", 0, 1), ("burst", 370, 600)])
# with these seeds the second burst rejects the last pair of the first
# fill, and the next burst fills the cache from the words after the redraw,
# with a cached half pending (seed 10) or none (seed 2)
@example(False, 10, [("burst", 2, _PAIRS - 3), ("burst", 3 * 2**30, 3), ("burst", 246, 300)])
@example(False, 2, [("burst", 2, _PAIRS - 3), ("burst", 3 * 2**30, 3), ("burst", 246, 300)])
def test_any_interleaving_of_draws_matches_numpy(cached, seed, draws):
    ref, wrapped = np.random.default_rng(seed), np.random.default_rng(seed)
    if cached:
        assert wrapped.integers(11) == ref.integers(11)
    with WordStream(wrapped) as stream:
        for kind, k, count in draws:
            draw_both(stream, ref, kind, k, count)
    assert wrapped.bit_generator.state == ref.bit_generator.state


# one integers(7) leaves the stream a cached half at the borrow, two use it up
@pytest.mark.parametrize("cached", [False, True])
def test_borrow_lends_the_generator_where_the_stream_left_it(cached):
    ref, wrapped = np.random.default_rng(31), np.random.default_rng(31)
    want_row, got_row = np.empty(5), np.empty(5)
    with WordStream(wrapped) as stream:
        # the first draw buffers a block of words the borrow must rewind
        assert stream.random() == ref.random()
        for _ in range(1 if cached else 2):
            assert stream.integers(7) == ref.integers(7)
        with stream.borrow() as rng:
            assert rng is wrapped
            assert rng.integers(300) == ref.integers(300)
            assert rng.random(3).tolist() == ref.random(3).tolist()
            rng.random(out=got_row)
            ref.random(out=want_row)
            assert got_row.tolist() == want_row.tolist()
        # the borrowed integers(300) left a cached half when it took a fresh word
        assert stream.integers(7) == ref.integers(7)
        assert stream.random() == ref.random()
        assert stream.burst(11, 4) == numpy_burst(ref, 11, 4)
    assert wrapped.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("cached", [False, True])
def test_close_without_draws_keeps_the_state(cached):
    rng = np.random.default_rng(3)
    if cached:
        rng.integers(11)
    before = rng.bit_generator.state
    WordStream(rng).close()
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM, np.random.Philox])
def test_refuses_a_generator_other_than_pcg64(bit_generator):
    with pytest.raises(DomainError, match=bit_generator.__name__):
        WordStream(np.random.Generator(bit_generator(0)))


@pytest.mark.parametrize("n", [0, -3, 2**32 + 1])
def test_integers_outside_the_32_bit_range(n):
    with pytest.raises(DomainError):
        WordStream(np.random.default_rng(0)).integers(n)
    with pytest.raises(DomainError):
        WordStream(np.random.default_rng(0)).burst(n, 3)
