"""Seed plumbing tests, and the samplers against the stdlib draws they
reproduce.

`below` and `choices` restate `random.Random`'s `_randbelow` rule, which
is not a documented API. These tests compare them with `randrange`,
`randint` and `choice` on the running interpreter, values and final
stream state alike, so a CPython that changes the rule fails here by
name before any golden digest moves.
"""

import random

import pytest
from hypothesis import given, strategies as st

from lifelens.seeds import DEFAULT_SEED, below, choices, substream

seeds = st.integers(0, 2 ** 64 - 1)
# The episode alphabets' sizes. Each rejects some of its draws of
# k = n.bit_length() bits: 1, 2 and 4, the powers of two, reject half.
ALPHABET_SIZES = pytest.mark.parametrize("size", [1, 2, 3, 4, 5])


def test_equal_paths_give_equal_streams():
    a = substream(7, "x", 3)
    b = substream(7, "x", 3)
    assert [a.random() for _ in range(8)] == [b.random() for _ in range(8)]


def test_different_paths_diverge():
    a = substream(7, "x", 3)
    b = substream(7, "x", 4)
    c = substream(8, "x", 3)
    first = [a.random() for _ in range(8)]
    assert first != [b.random() for _ in range(8)]
    assert first != [c.random() for _ in range(8)]


def test_default_seed_is_fixed():
    assert DEFAULT_SEED == 271828


def draw_below(rng, n, draws):
    return [below(rng, n) for _ in range(draws)]


class TestBelow:
    @ALPHABET_SIZES
    @given(seeds, st.integers(1, 40))
    def test_equals_randrange_on_alphabet_sizes(self, size, seed, draws):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert draw_below(ours, size, draws) == [theirs.randrange(size) for _ in range(draws)]
        assert ours.getstate() == theirs.getstate()

    @given(seeds, st.integers(1, 2 ** 70), st.integers(1, 40))
    def test_equals_randrange(self, seed, n, draws):
        # Past 32 bits getrandbits joins several words.
        ours, theirs = random.Random(seed), random.Random(seed)
        assert draw_below(ours, n, draws) == [theirs.randrange(n) for _ in range(draws)]
        assert ours.getstate() == theirs.getstate()

    @given(seeds, st.integers(-20, 20), st.integers(0, 30), st.integers(1, 40))
    def test_equals_randint(self, seed, lo, span, draws):
        # span 0 is the lo == hi range, which still consumes the stream.
        hi = lo + span
        ours, theirs = random.Random(seed), random.Random(seed)
        assert ([lo + below(ours, hi - lo + 1) for _ in range(draws)]
                == [theirs.randint(lo, hi) for _ in range(draws)])
        assert ours.getstate() == theirs.getstate()

    def test_one_value_range_consumes_the_stream(self):
        rng = random.Random(0)
        before = rng.getstate()
        assert below(rng, 1) == 0
        assert rng.getstate() != before


def repeated_choice(rng, seq, count):
    return tuple(rng.choice(seq) for _ in range(count))


class TestChoices:
    @ALPHABET_SIZES
    @given(seeds, st.integers(0, 60))
    def test_equals_repeated_choice_on_alphabet_sizes(self, size, seed, count):
        seq = tuple(f"L{i}" for i in range(size))
        ours, theirs = random.Random(seed), random.Random(seed)
        assert choices(ours, seq, count) == repeated_choice(theirs, seq, count)
        assert ours.getstate() == theirs.getstate()

    @given(seeds, st.integers(1, 300), st.integers(0, 60))
    def test_equals_repeated_choice(self, seed, size, count):
        seq = range(size)
        ours, theirs = random.Random(seed), random.Random(seed)
        assert choices(ours, seq, count) == repeated_choice(theirs, seq, count)
        assert ours.getstate() == theirs.getstate()

    @ALPHABET_SIZES
    @given(seeds, st.integers(1, 20))
    def test_interleaves_with_below(self, size, seed, count):
        # Draws that mix both samplers keep the stdlib's order.
        seq = list(range(size))
        ours, theirs = random.Random(seed), random.Random(seed)
        got = (choices(ours, seq, count), below(ours, size), choices(ours, seq, count))
        want = (repeated_choice(theirs, seq, count), theirs.randrange(size),
                repeated_choice(theirs, seq, count))
        assert got == want
        assert ours.getstate() == theirs.getstate()
