"""Meet-everyone cooperation game with random stance flips.

Each repetition draws a row of m environment members with fixed stances
and a population of n players with initial stances, all uniform. Every
player walks the whole row; before each of the m meetings the player
flips stance with probability p, then banks the meeting payoff. A player
is contradictory when its stance changed at least once relative to the
stance it entered with - equivalently, when the sequence (initial
stance, meeting stances...) is not constant. With p solving
(1 - p)^m = 1/2 a player is contradictory with probability exactly 1/2.

The repetition's winner is the player with the highest total payoff,
lowest index on ties. The report records how often winners were
contradictory.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import struct
from dataclasses import dataclass
from enum import Enum

from .seeds import DEFAULT_SEED, substream


class Stance(Enum):
    COOP = "C"
    NONCOOP = "N"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class PayoffMatrix:
    """Row player's meeting payoff: cc/cn are a cooperator's takes against
    a cooperator / non-cooperator, nc/nn a non-cooperator's."""

    cc: int = 2
    cn: int = -1
    nc: int = 1
    nn: int = 0


# Stances indexed by the bool "is COOP", as the experiment's inner loop encodes them.
_BY_BOOL = (Stance.NONCOOP, Stance.COOP)


def _gain(payoffs: PayoffMatrix) -> tuple[tuple[int, int], tuple[int, int]]:
    """The one take table: gain[stance][opponent] is the stance's take,
    both indexed by the is-COOP bool."""
    return (payoffs.nn, payoffs.nc), (payoffs.cn, payoffs.cc)


def meeting_payoff(a: Stance, b: Stance, payoffs: PayoffMatrix = PayoffMatrix()) -> tuple[int, int]:
    """Payoffs (for a, for b) of one meeting, read from the take table
    `_gain(payoffs)`. A non-Stance argument raises ValueError."""
    gain = _gain(payoffs)
    a, b = _BY_BOOL.index(a), _BY_BOOL.index(b)
    return gain[a][b], gain[b][a]


def flip_probability_for_even_odds(m: int) -> float:
    """The p with (1 - p)^m = 1/2: staying put through all m flip
    decisions is then a coin toss."""
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    return 1.0 - 2.0 ** (-1.0 / m)


@dataclass(frozen=True)
class CoopConfig:
    """Experiment shape. flip_probability None means even odds for
    env_size, resolved when the experiment runs. An env_size of 2**64 or
    more, wider than the widest stance lane, raises ValueError, so no
    run of it draws anything."""

    env_size: int = 20
    population: int = 1000
    flip_probability: float | None = None
    repetitions: int = 100
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.env_size < 1 or self.population < 1 or self.repetitions < 1:
            raise ValueError("env_size, population and repetitions must be positive")
        if self.flip_probability is not None and not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError(f"flip probability must lie in [0, 1], got {self.flip_probability}")
        if self.env_size >= 2 ** 64:
            raise ValueError(f"env_size must be below 2**64, got {self.env_size}")

    def resolved_flip_probability(self) -> float:
        if self.flip_probability is None:
            return flip_probability_for_even_odds(self.env_size)
        # -0.0 + 0.0 is 0.0: a run at -0.0 is the run at 0 and reports 0.
        return self.flip_probability + 0.0


@dataclass(frozen=True)
class IndividualRecord:
    """One player's run through the row.

    stance_history holds the stance actually used at each of the m
    meetings; contradictory means the stance changed at least once
    relative to initial_stance (some flip fired).
    """

    initial_stance: Stance
    stance_history: tuple[Stance, ...]
    total_payoff: int
    contradictory: bool

    def __post_init__(self):
        changed = any(s != self.initial_stance for s in self.stance_history)
        if self.contradictory != changed:
            raise ValueError("contradictory flag disagrees with the stance history")


@dataclass(frozen=True)
class RepetitionResult:
    """mean_payoff_coop / mean_payoff_noncoop average the per-meeting
    payoff over this repetition's meetings played in that stance (NaN if
    the stance never occurred)."""

    index: int
    env_coop_count: int
    winner_index: int
    winner: IndividualRecord
    noncontradictory_fraction: float
    min_payoff: int
    max_payoff: int
    mean_payoff_coop: float
    mean_payoff_noncoop: float


@dataclass(frozen=True)
class CoopReport:
    """Everything a run produces; equal configs give equal reports."""

    config: CoopConfig
    payoffs: PayoffMatrix
    flip_probability: float
    repetitions: tuple[RepetitionResult, ...]
    contradictory_winner_pct: float
    noncontradictory_fraction: float
    mean_payoff_coop: float
    mean_payoff_noncoop: float


def _mean(total: float, count: int) -> float:
    """total / count, or NaN when nothing was counted."""
    return total / count if count else float("nan")


# Players per block of flip words. Blocks bound the words held at once:
# an unblocked repetition at --population 1000000 --env-size 20 would
# hold 160 MB of them. A block of 1000 x 20 draws holds 160 KB, one of
# 256 players 40 KB.
_BLOCK_PLAYERS = 256

# The byte a cut table gives a draw whose top byte alone does not settle
# it, the one top byte whose range the limit splits.
_MARK = 2

# The `struct` code of a little-endian lane of w bytes, for each lane width.
_LANE_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _cut(q: float) -> tuple[int, bytes]:
    """(limit, table) for draws `random() < q`. By the `random()` rule of
    `seeds`' module docstring a draw is x / 2**53, so it is below q
    exactly when x < limit = ceil(q * 2**53). The table maps the top byte
    t = x >> 45 to 1 when every x with that top byte is below the limit,
    (t + 1) << 45 <= limit, to 0 when none is, t << 45 >= limit, and to
    _MARK otherwise. So the first limit >> 45 bytes map to 1, the next to
    _MARK when the limit is not a multiple of 2**45, and the rest to 0:
    at most one byte is marked, and none for q = 1/2."""
    limit = math.ceil(q * 2.0 ** 53)
    full, rest = divmod(limit, 1 << 45)
    return limit, (b"\1" * full + bytes([_MARK] * (rest > 0))).ljust(256, b"\0")


def _draws_below(rng: random.Random, count: int, limit: int, table: bytes) -> bytes:
    """`bytes(rng.random() < q for _ in range(count))` for the q that
    `_cut` gave (limit, table) for; the stream state after it is that
    loop's too.

    By the `random()` and word-order rules of `seeds`' module docstring,
    draw i of a `getrandbits(64 * count)` block reads its words 2i and
    2i + 1 as w1 and w2, so in the block's little-endian bytes w1 is
    bytes 8i..8i+3 and x's top byte is byte 8i + 3. One
    `bytes.translate` of the top bytes through the table settles every
    draw but the marked ones, about 1 in 256 at most and none at q = 1/2,
    and `bytes.find` walks those, each settled from its whole x.
    """
    words = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
    draws = bytearray(words[3::8].translate(table))
    i = draws.find(_MARK)
    while i >= 0:
        w1 = int.from_bytes(words[8 * i:8 * i + 4], "little")
        w2 = int.from_bytes(words[8 * i + 4:8 * i + 8], "little")
        draws[i] = ((w1 >> 5) << 26 | w2 >> 6) < limit
        i = draws.find(_MARK, i + 1)
    return bytes(draws)


def _draw_repetition(rng: random.Random, m: int, n: int, p: float) -> tuple[bytes, bytes, bytes]:
    """One repetition's draws as 0/1 bytes: `env = bytes(rand() < 0.5 for
    _ in range(m))`, `initial` likewise for n players, then
    `flags = bytes(rand() < p for _ in range(n * m))`, with
    `rand = rng.random`. So `flags[j * m + i]` is 1 when player j flips
    before meeting i. Values and stream state equal that loop's.

    `_draws_below` reads them all: the m + n stances in one block, split
    at m, then the flags in blocks of at most _BLOCK_PLAYERS players,
    each player's m draws in turn, through one `_cut(p)`.
    tests/test_coop.py pins this function against the loop above.
    """
    stances = _draws_below(rng, m + n, *_cut(0.5))
    cut = _cut(p)
    flags = b"".join(_draws_below(rng, m * min(_BLOCK_PLAYERS, n - first), *cut)
                     for first in range(0, n, _BLOCK_PLAYERS))
    return stances[:m], stances[m:], flags


def run_coop_experiment(config: CoopConfig, payoffs: PayoffMatrix = PayoffMatrix()) -> CoopReport:
    """Run all repetitions; repetition r draws from substream(seed, r).

    Draw order within a repetition: the m environment stances, then the n
    initial player stances, then per player (in index order) one flip
    decision before each meeting. 1 encodes COOP in the inner loop.
    Each stance is `rng.random() < 0.5` and each flip `rng.random() < p`,
    read by `_draw_repetition` as 0/1 bytes from blocks of the
    generator's raw words under the draw rules `seeds` states.

    Scoring draws nothing, so it walks the m meetings, not the players.
    Every player's stance is one lane of a plain int, the narrowest of 1,
    2, 4 or 8 bytes w with 256**w > m: it starts as the initial stances
    and meeting i XORs in column i of the flags, `flags[i::m]`. The lanes
    are added into kc at meetings against a cooperating member and into
    kn at the others, so lane j of kc (kn) counts player j's coop
    meetings against a cooperator (non-cooperator), and the OR of the
    columns marks the players who ever flipped. From the take table `gain = _gain(payoffs)`,
    the one `meeting_payoff` reads, a player's total is
    `base + (cc - nc) * kc_j + (cn - nn) * kn_j`, with base the total of
    a player who never cooperates, so totals are exact for any ints. The
    winner (the first maximum total), its history and flag, and the
    non-contradictory count are read off the totals, the lanes and the
    flags. Each repetition's four int tallies go to one list that the
    report sums once.
    """
    m = config.env_size
    n = config.population
    p = config.resolved_flip_probability()
    (nn, nc), (cn, cc) = _gain(payoffs)
    width = next(w for w in _LANE_CODES if m < 256 ** w)
    lanes = f"<{n}{_LANE_CODES[width]}"
    # n lanes of width bytes; each meeting writes its column into the low bytes.
    spread = bytearray(n * width)

    results = []
    # Per repetition: (non-contradictory players, coop takes, coop meetings, all takes).
    tallies = []
    for r in range(config.repetitions):
        env, initial, flags = _draw_repetition(substream(config.seed, r), m, n, p)
        spread[::width] = initial
        stance = int.from_bytes(spread, "little")
        flipped = kc = kn = 0
        for i, opponent in enumerate(env):
            spread[::width] = flags[i::m]
            column = int.from_bytes(spread, "little")
            stance ^= column
            flipped |= column
            if opponent:
                kc += stance
            else:
                kn += stance
        kc = struct.unpack(lanes, kc.to_bytes(n * width, "little"))
        kn = struct.unpack(lanes, kn.to_bytes(n * width, "little"))

        env_coop = sum(env)
        base = env_coop * nc + (m - env_coop) * nn
        totals = [base + (cc - nc) * x + (cn - nn) * y for x, y in zip(kc, kn)]
        best = max(totals)
        winner_index = totals.index(best)
        winner_initial = initial[winner_index]
        winner_flags = flags[winner_index * m:(winner_index + 1) * m]
        noncontra = n - flipped.bit_count()
        kc_sum, kn_sum = sum(kc), sum(kn)
        rep_coop_sum = cc * kc_sum + cn * kn_sum
        rep_coop_meetings = kc_sum + kn_sum
        rep_sum = sum(totals)
        # A player's stance at meeting i is its initial one XOR its flags up to i.
        history = itertools.accumulate(winner_flags, operator.xor, initial=winner_initial)
        winner = IndividualRecord(
            initial_stance=_BY_BOOL[winner_initial],
            stance_history=tuple(_BY_BOOL[s] for s in history)[1:],
            total_payoff=best,
            contradictory=any(winner_flags),
        )
        tallies.append((noncontra, rep_coop_sum, rep_coop_meetings, rep_sum))
        results.append(RepetitionResult(
            index=r,
            env_coop_count=env_coop,
            winner_index=winner_index,
            winner=winner,
            noncontradictory_fraction=noncontra / n,
            min_payoff=min(totals),
            max_payoff=best,
            mean_payoff_coop=_mean(rep_coop_sum, rep_coop_meetings),
            mean_payoff_noncoop=_mean(rep_sum - rep_coop_sum, n * m - rep_coop_meetings),
        ))

    noncontra_total, coop_sum, coop_meetings, payoff_sum = map(sum, zip(*tallies))
    return CoopReport(
        config=config,
        payoffs=payoffs,
        flip_probability=p,
        repetitions=tuple(results),
        contradictory_winner_pct=(100.0 * sum(rep.winner.contradictory for rep in results)
                                  / config.repetitions),
        noncontradictory_fraction=noncontra_total / (n * config.repetitions),
        mean_payoff_coop=_mean(coop_sum, coop_meetings),
        mean_payoff_noncoop=_mean(payoff_sum - coop_sum,
                                  n * m * config.repetitions - coop_meetings),
    )
