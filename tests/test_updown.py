"""Up-and-down game tests.

Frozen win counts for small n were derived by listing permutations by
hand (n = 3, 4) and with an independent zigzag-number recurrence for the
alternating word; the big-n values are pinned after cross-checking the
dynamic program against brute force (the exhaustive sweep lives in
test_acceptance.py).
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from lifelens.updown import (
    DOWN,
    Strategy,
    UP,
    VictoryCount,
    all_strategies,
    contradictory_bonus_demo,
    deck_pattern,
    max_victories,
    victories_bruteforce,
    victories_dp,
    wins,
)


def zigzag_counts(limit):
    """Independent oracle: Entringer recurrence for the zigzag numbers.

    E(0, 0) = 1, E(n, k) = E(n, k - 1) + E(n - 1, n - k); the count of
    alternating permutations of length n is E(n, n).
    """
    counts = [1]
    prev = [1]
    for n in range(1, limit + 1):
        row = [0]
        for k in range(1, n + 1):
            row.append(row[-1] + prev[n - k])
        counts.append(row[-1])
        prev = row
    return counts


small_decks = st.integers(2, 6).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)
)


class TestStrategy:
    def test_from_text_roundtrip(self):
        s = Strategy.from_text("uDdU")
        assert s.words == (UP, DOWN, DOWN, UP)
        assert s.to_text() == "UDDU"
        assert str(s) == "UDDU"
        assert s.deck_size == 5

    def test_from_text_rejects_garbage(self):
        with pytest.raises(ValueError):
            Strategy.from_text("UDX")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Strategy(())

    def test_rejects_foreign_words(self):
        with pytest.raises(ValueError):
            Strategy(("sideways",))

    def test_names_the_first_foreign_word(self):
        with pytest.raises(ValueError, match="got 'x'"):
            Strategy((UP, "x", ["y"]))

    def test_unhashable_word_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"got \['up'\]"):
            Strategy((["up"],))

    def test_accepts_an_equal_but_distinct_word(self):
        word = "".join(["u", "p"])
        assert word is not UP
        assert Strategy((word, DOWN)).to_text() == "UD"

    def test_alternating(self):
        assert Strategy.alternating(5).to_text() == "UDUD"
        assert Strategy.alternating(5, first=DOWN).to_text() == "DUDU"
        assert Strategy.alternating(2).to_text() == "U"

    def test_all_strategies_order(self):
        texts = [s.to_text() for s in all_strategies(3)]
        assert texts == ["UU", "UD", "DU", "DD"]

    def test_all_strategies_rejects_single_card(self):
        with pytest.raises(ValueError):
            list(all_strategies(1))


class TestWins:
    def test_hand_cases(self):
        u = Strategy.from_text("U")
        assert wins(u, (1, 2))
        assert not wins(u, (2, 1))
        ud = Strategy.from_text("UD")
        assert wins(ud, (1, 3, 2))
        assert not wins(ud, (1, 2, 3))

    def test_equal_cards_defeat_any_call(self):
        assert not wins(Strategy.from_text("U"), (4, 4))
        assert not wins(Strategy.from_text("D"), (4, 4))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            wins(Strategy.from_text("UU"), (1, 2))

    def test_deck_pattern_examples(self):
        assert deck_pattern((2, 1, 3)).to_text() == "DU"
        assert deck_pattern((1, 2)).to_text() == "U"

    def test_deck_pattern_rejects_ties(self):
        with pytest.raises(ValueError):
            deck_pattern((1, 1))

    @given(small_decks)
    def test_pattern_is_the_unique_winning_word(self, deck):
        pattern = deck_pattern(deck)
        assert wins(pattern, deck)
        for s in all_strategies(len(deck)):
            assert wins(s, deck) == (s == pattern)


class TestCounts:
    def test_n3_by_hand(self):
        # Of the 6 decks: UD wins (1,3,2),(2,3,1); DU wins (2,1,3),(3,1,2);
        # UU only (1,2,3); DD only (3,2,1).
        table = {s.to_text(): victories_bruteforce(s).wins for s in all_strategies(3)}
        assert table == {"UU": 1, "UD": 2, "DU": 2, "DD": 1}

    def test_n4_by_hand(self):
        assert victories_bruteforce(Strategy.from_text("UDU")) == VictoryCount(5, 24)
        assert victories_bruteforce(Strategy.from_text("UUU")) == VictoryCount(1, 24)

    def test_bruteforce_refuses_big_decks(self):
        with pytest.raises(ValueError):
            victories_bruteforce(Strategy.alternating(10))

    def test_alternating_counts_match_zigzag_numbers(self):
        counts = zigzag_counts(16)
        for n in range(2, 17):
            assert victories_dp(Strategy.alternating(n)).wins == counts[n]

    def test_each_deck_won_exactly_once(self):
        for n in range(2, 8):
            total = sum(victories_dp(s).wins for s in all_strategies(n))
            assert total == len(list(itertools.permutations(range(n))))

    def test_frozen_large_counts(self):
        assert victories_dp(Strategy.alternating(10)) == VictoryCount(50521, 3628800)
        assert victories_dp(Strategy.alternating(11)) == VictoryCount(353792, 39916800)
        assert victories_dp(Strategy.alternating(12)) == VictoryCount(2702765, 479001600)


class TestMaxVictories:
    def test_small_maximizers(self):
        s, count = max_victories(3)
        assert s.to_text() == "UD"
        assert count == VictoryCount(2, 6)
        s, count = max_victories(4)
        assert s.to_text() == "UDU"
        assert count == VictoryCount(5, 24)

    def test_up_first_tie_break(self):
        for n in range(2, 10):
            s, _ = max_victories(n)
            assert s == Strategy.alternating(n)

    def test_maximizer_dominates_bruteforce_sweep(self):
        best, count = max_victories(6)
        assert all(victories_bruteforce(s).wins <= count.wins for s in all_strategies(6))
        assert victories_bruteforce(best).wins == count.wins

    def test_bounds(self):
        with pytest.raises(ValueError):
            max_victories(1)
        with pytest.raises(ValueError):
            max_victories(17)


class TestBonusDemo:
    def test_n4_transcript_frozen(self):
        demo = contradictory_bonus_demo(4)
        assert demo.max_wins == 5
        assert demo.total == 24
        assert demo.decks == (
            (1, 3, 2, 4), (1, 4, 2, 3), (2, 3, 1, 4), (2, 4, 1, 3), (3, 4, 1, 2),
            (1, 2, 3, 4),
        )
        assert [s.to_text() for s in demo.strategies] == ["UDU"] * 5 + ["UUU"]
        assert demo.switch_index == 5
        assert demo.all_wins_verified
        assert not demo.fixed_strategy_wins_all

    def test_n2_transcript(self):
        demo = contradictory_bonus_demo(2)
        assert demo.decks == ((1, 2), (2, 1))
        assert [s.to_text() for s in demo.strategies] == ["U", "D"]
        assert demo.switch_index == 1
        assert demo.all_wins_verified
        assert not demo.fixed_strategy_wins_all

    def test_beats_every_fixed_word_for_all_sizes(self):
        for n in range(2, 7):
            demo = contradictory_bonus_demo(n)
            assert len(demo.decks) == demo.max_wins + 1
            assert demo.all_wins_verified
            assert not demo.fixed_strategy_wins_all

    def test_bounds(self):
        with pytest.raises(ValueError):
            contradictory_bonus_demo(9)
