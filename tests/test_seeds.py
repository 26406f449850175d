"""Seed plumbing tests, and the samplers against the stdlib draws they
reproduce.

`seeds`' module docstring states three draw rules that `random.Random`
follows but does not document. `TestDrawRules` pins each by itself
against the stdlib calls it describes, values and final stream state
alike, so a CPython that changes a rule fails here by name before any
golden digest moves. `WordReader` reads draws below 1..5, and
`random() < 0.5`, from blocks of raw words under all three rules; its
runs of draws, and the coin and the choice after them, must equal
`choice` and `random` on a twin generator, also when every block is too
short and each run refills it.
"""

import random

import pytest
from hypothesis import given, strategies as st

from lifelens import seeds as seeds_module
from lifelens.seeds import DEFAULT_SEED, WordReader, substream

seeds = st.integers(0, 2 ** 64 - 1)


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
        for _ in range(3):
            r = ours.getrandbits(k)
            while r >= n:
                r = ours.getrandbits(k)
            replayed.append(r)
        assert [theirs.choice(range(n)), theirs.randrange(n),
                theirs.randint(-3, n - 4) + 3] == replayed
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


class TestWordReader:
    # With refill, the size estimate is the draws a run still lacks, the
    # least that makes progress: every run draws block after block as
    # its rejections come in.
    @pytest.mark.parametrize("refill", [False, True], ids=["estimated", "refilled"])
    @given(seed=seeds, runs=st.lists(st.tuples(st.integers(1, 5), st.integers(0, 300)),
                                      min_size=1, max_size=3), last=st.integers(1, 5))
    def test_equals_choice_and_random(self, refill, seed, runs, last):
        ours, theirs = random.Random(seed), random.Random(seed)
        with pytest.MonkeyPatch.context() as patch:
            if refill:
                patch.setattr(seeds_module, "label_words", lambda n, count: count)
            words = WordReader(ours)
            assert ours.getstate() == theirs.getstate()
            got = [(words.choices(n, count), words.coin()) for n, count in runs]
            got.append(words.choices(last, 1)[0])
        want = [(bytes(theirs.choice(range(n)) for _ in range(count)), theirs.random() < 0.5)
                for n, count in runs]
        want.append(theirs.choice(range(last)))
        assert got == want
