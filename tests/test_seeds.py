"""Seed plumbing tests, and the samplers against the stdlib draws they
reproduce.

`choices` applies `random.Random`'s `_randbelow` rule, which is not a
documented API; `seeds`' module docstring states it and the two other
draw rules. `TestDrawRules` pins each of the three by itself against
the stdlib call it describes. These tests compare `choices` with
repeated `choice` on the running interpreter, alone and interleaved
with `randint` and `choice`
single draws, values and final stream state alike, so a CPython that
changes the rule fails here by name before any golden digest moves.
`WordReader` reads the same draws, and `random() < 0.5`, from blocks of
raw words under all three rules; its runs of draws below 1..5, and the
coin and the choice after them, must equal `choice` and `random` on a
twin generator, also when every block is too short and each run refills
it.
"""

import random

import pytest
from hypothesis import given, strategies as st

from lifelens import seeds as seeds_module
from lifelens.seeds import DEFAULT_SEED, WordReader, choices, substream

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


class TestDrawRules:
    """Each draw rule of `seeds`' module docstring by itself: a stdlib call
    on one generator against the rule replayed from `getrandbits` on its
    twin, values and final stream state alike."""

    @given(seed=seeds, n=st.integers(1, 64) | st.integers(1, 2 ** 62))
    def test_randbelow_rule(self, seed, n):
        ours, theirs = random.Random(seed), random.Random(seed)
        k = n.bit_length()
        replayed = []
        for _ in range(2):
            r = ours.getrandbits(k)
            while r >= n:
                r = ours.getrandbits(k)
            replayed.append(r)
        assert [theirs.choice(range(n)), theirs.randint(-3, n - 4) + 3] == replayed
        assert ours.getstate() == theirs.getstate()

    @given(seed=seeds)
    def test_random_rule(self, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        w1, w2 = ours.getrandbits(32), ours.getrandbits(32)
        assert theirs.random() == ((w1 >> 5) * 2 ** 26 + (w2 >> 6)) / 2 ** 53
        assert ours.getstate() == theirs.getstate()

    @given(seed=seeds, words=st.integers(1, 20), k=st.integers(1, 32))
    def test_word_order_rule(self, seed, words, k):
        ours, theirs = random.Random(seed), random.Random(seed)
        replayed = [ours.getrandbits(32) for _ in range(words)]
        assert theirs.getrandbits(32 * words) == sum(w << 32 * i for i, w in enumerate(replayed))
        assert theirs.getrandbits(k) == ours.getrandbits(32) >> (32 - k)
        assert ours.getstate() == theirs.getstate()


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
    @given(seeds, st.integers(1, 20), st.integers(1, 300))
    def test_interleaves_with_single_draws(self, size, seed, count, max_len):
        # A theorem trial's mix: a randint lifetime, label runs, one choice.
        seq = list(range(size))
        ours, theirs = random.Random(seed), random.Random(seed)
        got = (ours.randint(1, max_len), choices(ours, seq, count), ours.choice(seq),
               choices(ours, seq, count))
        want = (theirs.randint(1, max_len), repeated_choice(theirs, seq, count),
                theirs.choice(seq), repeated_choice(theirs, seq, count))
        assert got == want
        assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("count", [1, 2])
    def test_empty_sequence_raises_before_any_draw(self, count):
        # A generator that fails on any draw, so a choices that loops
        # on getrandbits(0) fails here instead of hanging.
        class NoDraws(random.Random):
            def getrandbits(self, k):
                raise AssertionError(f"drew getrandbits({k})")

        rng = NoDraws(DEFAULT_SEED)
        state = rng.getstate()
        with pytest.raises(IndexError):
            random.Random(DEFAULT_SEED).choice(())
        with pytest.raises(IndexError):
            choices(rng, (), count)
        assert choices(rng, (), 0) == ()
        assert rng.getstate() == state


class TestWordReader:
    # With refill, the size estimate is 0: the first block is empty, and
    # every run and coin draws the words it lacks as it goes.
    @pytest.mark.parametrize("refill", [False, True], ids=["estimated", "refilled"])
    @given(seed=seeds, runs=st.lists(st.tuples(st.integers(1, 5), st.integers(0, 300)),
                                      min_size=1, max_size=3), last=st.integers(1, 5))
    def test_equals_choice_and_random(self, refill, seed, runs, last):
        ours, theirs = random.Random(seed), random.Random(seed)
        with pytest.MonkeyPatch.context() as patch:
            if refill:
                patch.setattr(seeds_module, "label_words", lambda n, count: 0)
            words = WordReader(ours, sum(seeds_module.label_words(n, count) for n, count in runs))
            got = [(words.choices(n, count), words.coin()) for n, count in runs]
            got.append(words.choices(last, 1)[0])
        want = [(bytes(theirs.choice(range(n)) for _ in range(count)), theirs.random() < 0.5)
                for n, count in runs]
        want.append(theirs.choice(range(last)))
        assert got == want
