"""The up-and-down guessing game: exact win counts per strategy.

A strategy is a word over {UP, DOWN} of length n - 1. A shuffled deck of
n distinct cards is dealt left to right and the strategy wins when every
letter calls the comparison between neighboring cards correctly: UP at
position i demands card i+1 above card i, DOWN demands it below.

Win counts are exact integers. `victories_bruteforce` enumerates every
deck; `victories_dp` counts one word's relative orderings with a dynamic
program over (prefix length, rank of the last dealt card). The table of
all 2^(n-1) words, `victory_table`, runs the same program once per word
prefix by walking the trie of words, so words sharing a prefix share its
rows; it yields plain (word text, wins) rows, and `victories_dp` is its
oracle. The table's best entry is the best achievable count, and
`contradictory_bonus_demo` exhibits the classic trick: switching words
mid-series beats any fixed word by one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Iterator, Sequence

UP = "up"
DOWN = "down"

_BRUTEFORCE_LIMIT = 9

Deck = tuple[int, ...]
"""A dealt deck: distinct integers in deal order."""


@dataclass(frozen=True)
class Strategy:
    """A word over {UP, DOWN}; entry i calls the step from card i to i+1."""

    words: tuple[str, ...]

    def __post_init__(self):
        if not self.words:
            raise ValueError("a strategy needs at least one word")
        # tuple.count matches as `in (UP, DOWN)` does (identity, then ==);
        # the loop runs only to name the first foreign word.
        words = self.words
        if words.count(UP) + words.count(DOWN) != len(words):
            for w in words:
                if w not in (UP, DOWN):
                    raise ValueError(f"strategy words must be UP or DOWN, got {w!r}")

    @classmethod
    def from_text(cls, text: str) -> "Strategy":
        """Parse a compact form like 'UDDU' (case-insensitive)."""
        words = []
        for ch in text:
            if ch in "uU":
                words.append(UP)
            elif ch in "dD":
                words.append(DOWN)
            else:
                raise ValueError(f"strategy letters must be 'U' or 'D', got {ch!r}")
        return cls(tuple(words))

    @classmethod
    def alternating(cls, n: int, first: str = UP) -> "Strategy":
        """The zigzag word of length n - 1 starting with `first`."""
        other = DOWN if first == UP else UP
        return cls(tuple(first if i % 2 == 0 else other for i in range(n - 1)))

    def to_text(self) -> str:
        return "".join("U" if w == UP else "D" for w in self.words)

    def __str__(self) -> str:
        return self.to_text()

    @property
    def deck_size(self) -> int:
        return len(self.words) + 1


@dataclass(frozen=True)
class VictoryCount:
    """Exact wins out of all factorial(n) equally likely decks."""

    wins: int
    total: int


def wins(strategy: Strategy, deck: Deck) -> bool:
    """True when every word letter calls its card comparison correctly.

    The deck must have one more card than the strategy has words; cards
    are assumed distinct (an equal neighboring pair defeats any word).
    """
    if len(strategy.words) != len(deck) - 1:
        raise ValueError(
            f"strategy of length {len(strategy.words)} needs a deck of "
            f"{len(strategy.words) + 1} cards, got {len(deck)}")
    for w, lo, hi in zip(strategy.words, deck, deck[1:]):
        if not (lo < hi if w == UP else lo > hi):
            return False
    return True


def deck_pattern(deck: Deck) -> Strategy:
    """The unique word that wins this deck."""
    words = []
    for lo, hi in zip(deck, deck[1:]):
        if lo == hi:
            raise ValueError("deck values must be distinct")
        words.append(UP if lo < hi else DOWN)
    return Strategy(tuple(words))


def _all_decks(n: int) -> Iterator[Deck]:
    return itertools.permutations(range(1, n + 1))


def victories_bruteforce(strategy: Strategy) -> VictoryCount:
    """Win count by playing the strategy against every deck.

    Only sensible for small decks; refuses n > 9 (enumerating more than
    9! decks is the dynamic program's job).
    """
    n = strategy.deck_size
    if n > _BRUTEFORCE_LIMIT:
        raise ValueError(
            f"brute force enumerates n! decks and is limited to n <= {_BRUTEFORCE_LIMIT}, "
            f"got n = {n}")
    count = sum(1 for deck in _all_decks(n) if wins(strategy, deck))
    return VictoryCount(wins=count, total=factorial(n))


def victories_dp(strategy: Strategy) -> VictoryCount:
    """Win count via dynamic programming, polynomial in n, exact integers.

    dp[j] is the number of relative orderings of the cards dealt so far
    that match the word prefix and whose last card is the (j+1)-th
    smallest among them. An UP step admits new cards ranking above the
    last one, a DOWN step cards ranking below; prefix sums give each
    transition in linear time.
    """
    dp = [1]
    for w in strategy.words:
        prefix = list(itertools.accumulate(dp, initial=0))
        if w == UP:
            dp = prefix
        else:
            total = prefix[-1]
            dp = [total - p for p in prefix]
    n = strategy.deck_size
    return VictoryCount(wins=sum(dp), total=factorial(n))


def all_strategies(n: int) -> Iterator[Strategy]:
    """All 2^(n-1) words for deck size n, lexicographic with UP before DOWN."""
    if n < 2:
        raise ValueError(f"deck size must be at least 2, got {n}")
    for words in itertools.product((UP, DOWN), repeat=n - 1):
        yield Strategy(words)


def _walk(row: list[int], letters: int, counts: list[int]) -> None:
    """Append to `counts` the wins of every word that extends, by
    `letters` more letters, the prefix whose DP row is `row`; UP first."""
    prefix = list(itertools.accumulate(row, initial=0))
    total = prefix[-1]
    if letters == 1:
        s = sum(prefix)
        counts += (s, len(prefix) * total - s)
    else:
        _walk(prefix, letters - 1, counts)
        _walk([total - p for p in prefix], letters - 1, counts)


def victory_table(n: int) -> list[tuple[str, int]]:
    """Every word for deck size n as a (compact text, wins) row, in
    `all_strategies` order; each word wins that many of the factorial(n)
    decks, and n is limited to 2..16.

    The text is `Strategy.to_text`'s, such as 'UDUD'. A depth-first walk
    of the word trie, UP before DOWN, builds each prefix's `victories_dp`
    row once from its parent's: the UP row is the parent's prefix sums,
    the DOWN row their complements to the total. The two words under a
    last prefix share one sum of its UP row, s; the DOWN row sums to
    len(row) * total - s.
    """
    if not 2 <= n <= 16:
        raise ValueError(f"deck size must be within 2..16, got {n}")
    counts: list[int] = []
    _walk([1], n - 1, counts)
    return list(zip(map("".join, itertools.product("UD", repeat=n - 1)), counts))


def max_victories(n: int) -> tuple[Strategy, VictoryCount]:
    """The best fixed word for deck size n and its exact win count.

    Ties go to the earliest word in lexicographic order with UP first,
    so of the two zigzag words the one starting UP is reported. Only the
    winning row of `victory_table` becomes a `Strategy`.
    """
    text, count = max(victory_table(n), key=lambda row: row[1])
    return Strategy.from_text(text), VictoryCount(count, factorial(n))


@dataclass(frozen=True)
class BonusDemo:
    """Transcript of winning max_wins + 1 deals by switching words once.

    decks[i] is won with strategies[i]; the first max_wins decks use the
    best fixed word, the last deck uses its own pattern. The flags record
    the replayed verification: every listed deal won, and no single fixed
    word wins the whole list.
    """

    n: int
    max_wins: int
    total: int
    decks: tuple[Deck, ...]
    strategies: tuple[Strategy, ...]
    switch_index: int
    all_wins_verified: bool
    fixed_strategy_wins_all: bool


def contradictory_bonus_demo(n: int) -> BonusDemo:
    """Beat the best fixed word by one, by changing words once.

    Plays the maximizing word against the max_wins decks it wins (in
    lexicographic deal order), then plays one more deck - the first deck
    in lexicographic order the word loses - with that deck's own pattern.
    """
    if not 2 <= n <= 8:
        raise ValueError(f"the demo enumerates n! decks and needs 2 <= n <= 8, got {n}")
    best, count = max_victories(n)
    won = []
    extra: Deck | None = None
    for deck in _all_decks(n):
        if wins(best, deck):
            won.append(deck)
        elif extra is None:
            extra = deck
    assert extra is not None and len(won) == count.wins
    decks = tuple(won) + (extra,)
    strategies = tuple([best] * len(won)) + (deck_pattern(extra),)
    all_verified = all(wins(s, d) for s, d in zip(strategies, decks))
    fixed_wins_all = any(
        all(wins(s, d) for d in decks) for s in all_strategies(n)
    )
    return BonusDemo(
        n=n,
        max_wins=count.wins,
        total=count.total,
        decks=decks,
        strategies=strategies,
        switch_index=len(won),
        all_wins_verified=all_verified,
        fixed_strategy_wins_all=fixed_wins_all,
    )
