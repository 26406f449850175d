"""Deterministic RNG streams derived from a base seed.

Every randomized routine in the package takes a seed and derives one
independent stream per repetition / test / trial from it, so reports are
bit-identical across runs and insensitive to how much randomness earlier
repetitions consumed.
"""

from __future__ import annotations

import random
from typing import Sequence

DEFAULT_SEED = 271828


def substream(seed: int, *path: int) -> random.Random:
    """A fresh generator keyed by (seed, *path).

    String seeding hashes the key through SHA-512 (the stdlib's version-2
    seeding), which is stable across platforms and Python releases.
    """
    key = ":".join(str(part) for part in (seed, *path))
    return random.Random(key)


def choices(rng: random.Random, seq: Sequence, count: int) -> tuple:
    """`tuple(rng.choice(seq) for _ in range(count))`, drawn in one frame.

    Each draw applies the stdlib's `_randbelow` rule on Python 3.10-3.13,
    which `random.Random` does not document: with n = len(seq), take
    k = n.bit_length() bits and retry while they reach n, so the values
    and the stream state equal those of `rng.choice` while the loop calls
    only `getrandbits`. An empty seq with count > 0 raises IndexError
    before any draw, as `rng.choice(())` does. Single draws elsewhere in
    the package call `rng.randint` and `rng.choice` themselves, except
    coop's stances and flips: `coop._draw_repetition` reads those
    `rng.random()` draws from blocks of raw generator words, under the
    word rule its docstring states, and tests/test_coop.py pins it.

    `market.run_market_experiment` restates the rule twice, for group
    A's committed trades and for group B's daily trade.
    tests/test_seeds.py pins this function against `rng.choice`; the
    market's replay through `randint`, by way of
    `sample_consistent_policy` and `FreePolicy`, pins both market copies.
    """
    n = len(seq)
    if not n and count > 0:
        raise IndexError("Cannot choose from an empty sequence")
    k = n.bit_length()
    getrandbits = rng.getrandbits
    drawn = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        drawn.append(seq[r])
    return tuple(drawn)
