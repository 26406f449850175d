"""Deterministic RNG streams derived from a base seed.

Every randomized routine in the package takes a seed and derives one
independent stream per repetition / test / trial from it, so reports are
bit-identical across runs and insensitive to how much randomness earlier
repetitions consumed.

Some samplers draw from a generator's raw 32-bit words instead of
calling `choice`, `randint` or `random` once per draw, and give the same
values. They rest on three rules that `random.Random` does not document
but CPython 3.10-3.13 follow, stated here once:

- the `_randbelow` rule: `choice(seq)`, `randrange(n)` and
  `randint(a, b)` draw below n = len(seq), n or b - a + 1 as
  r = `getrandbits(n.bit_length())`, retried while r >= n;
- the `random()` rule: `random()` reads two words w1, w2 and returns
  x / 2**53 with x = (w1 >> 5) * 2**26 + (w2 >> 6);
- the word-order rule: `getrandbits(k)` for k <= 32 is the top k bits
  of the next word, and `getrandbits(32 * N)` is the next N words,
  lowest first.

`market.run_market_experiment` applies the `_randbelow` rule inline,
`WordReader` below all three, and `coop._draws_below`, the reader of
every coop stance and flip, the last two.
Each is pinned on the running interpreter against the stdlib draws it
replaces: tests/test_market.py's replay through `randint`,
tests/test_seeds.py and tests/test_coop.py; tests/test_seeds.py also
pins each rule by itself.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 271828


def substream(seed: int, *path: int) -> random.Random:
    """A fresh generator keyed by (seed, *path).

    String seeding hashes the key through SHA-512 (the stdlib's version-2
    seeding), which is stable across platforms and Python releases.
    """
    key = ":".join(str(part) for part in (seed, *path))
    return random.Random(key)


def label_words(n: int, count: int) -> int:
    """The words `WordReader` draws for `count` draws below n: their mean,
    2**k / n words a draw with k = n.bit_length(), plus its square root,
    about one standard deviation, and 4. The reader draws a block of this
    size whenever a run would read past the words it holds, so this
    sizes blocks and decides no value."""
    mean = (count << n.bit_length()) // n
    return mean + math.isqrt(mean) + 4


# Per n in 1..5, the `bytes.translate` table that turns a word's top byte
# into its draw below n, its top k = n.bit_length() bits, or into
# _REJECTED when that draw reaches n and the rule retries.
_REJECTED = 255
_CODES = {n: bytes(top >> (8 - n.bit_length()) if top >> (8 - n.bit_length()) < n else _REJECTED
                   for top in range(256))
          for n in range(1, 6)}


class WordReader:
    """Draws below n <= 5 and coin flips, read from blocks of a
    generator's raw 32-bit words that the reader sizes as it reads.

    By the three rules of the module docstring, `rng.choice(seq)` with
    n = len(seq) takes the top k = n.bit_length() bits of the next word
    and retries while they reach n, `rng.random() < 0.5` holds exactly
    when the top bit of the next word is clear and takes one more word,
    and a block of N words is `getrandbits(32 * N)`, lowest first. So
    for n <= 5, whose k is at most 3, a draw is its word's top byte
    shifted right by 8 - k, rejected when it reaches n, and a coin is
    "the top byte is below 128". A run of `count` draws is one
    `bytes.translate` of the top bytes into draws, with the rejected
    ones marked; the run ends where `count` unmarked bytes have
    been read, which `bytes.count` over the marks finds, and deleting
    the marks leaves the draws.

    The reader draws nothing when it is built. It draws a block, sized by
    `label_words`, whenever a run would read past the words it holds, and
    two words when a coin would. So every value it returns equals the
    sequential draw's, but the generator ends up to a block ahead of
    where those draws would leave it: use it only on a stream that
    nothing draws from afterwards, such as one theorem trial's
    `substream`. tests/test_seeds.py pins it against `rng.choice` and
    `rng.random` on a twin generator, refills included.
    """

    __slots__ = ("_rng", "_tops", "_pos")

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._tops = b""
        self._pos = 0

    def _draw(self, words: int) -> None:
        """Append the top bytes of the next `words` words."""
        self._tops += self._rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]

    def choices(self, n: int, count: int) -> bytes:
        """`bytes(rng.choice(range(n)) for _ in range(count))`, 1 <= n <= 5."""
        start = end = self._pos
        codes = self._tops.translate(_CODES[n])
        missing = count
        while missing:
            if len(codes) < end + missing:
                self._draw(label_words(n, missing))
                codes = self._tops.translate(_CODES[n])
            missing, end = codes.count(_REJECTED, end, end + missing), end + missing
        self._pos = end
        return codes[start:end].translate(None, bytes((_REJECTED,)))

    def coin(self) -> bool:
        """`rng.random() < 0.5`, which reads two words."""
        if len(self._tops) < self._pos + 2:
            self._draw(2)
        self._pos += 2
        return self._tops[self._pos - 2] < 128
