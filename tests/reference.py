"""Test oracles: the original set-based Life step and glider detection.

These are the straightforward formulations the package started with,
kept verbatim so the tests can show the faster bit-row `life_step` and
anchor-scan `find_glider` return exactly the same results. Nothing in
the package imports this module.
"""

from __future__ import annotations

from collections import Counter

from lifelens.ca import CAState, Cell
from lifelens.observe import GLIDER_PHASES

_OFFSETS: tuple[Cell, ...] = tuple(
    (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)
)


def life_step(s: CAState) -> CAState:
    """One synchronous update of the whole plane.

    A cell with exactly 3 live neighbors is live next step; with exactly
    2 it keeps its current value; any other count leaves it dead.
    """
    counts: Counter[Cell] = Counter()
    for x, y in s.live:
        for dx, dy in _OFFSETS:
            counts[(x + dx, y + dy)] += 1
    live = s.live
    return CAState(frozenset(
        cell for cell, n in counts.items() if n == 3 or (n == 2 and cell in live)
    ))


def find_glider(state: CAState) -> frozenset[Cell] | None:
    """The cell set of a detected glider phase, or None.

    A detection is a translation of one of the four glider phases that is
    a subset of the live cells and has no other live cell adjacent to it
    (Chebyshev distance 1). With several detections, the one whose sorted
    (y, x) cell list is lexicographically least wins, so detection is a
    function of the state alone.
    """
    live = state.live
    best: frozenset[Cell] | None = None
    best_key: list[tuple[int, int]] | None = None
    for cx, cy in live:
        for phase in GLIDER_PHASES:
            body = frozenset((cx + ox, cy + oy) for ox, oy in phase)
            if not body <= live:
                continue
            rest = live - body
            if rest:
                halo = set()
                for x, y in body:
                    for dx in (-1, 0, 1):
                        for dy in (-1, 0, 1):
                            halo.add((x + dx, y + dy))
                if rest & halo:
                    continue
            key = sorted((y, x) for x, y in body)
            if best_key is None or key < best_key:
                best, best_key = body, key
    return best
