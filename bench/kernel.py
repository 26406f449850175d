"""The reference kernel of calibrate.py, in builtins only.

It imports nothing, so that a fresh interpreter can run it before timing
the import of lifelens without importing, ahead of time, any module that
lifelens imports. It does what lifelens does most, in plain Python that
no change to lifelens can touch: a Life step over a set of cell tuples
with a dict of counts, an integer table over bit masks, and
floating-point updates from a seeded generator. Its data stays small and
its result is fixed, so every slice does the same work.
"""

_OFFSETS = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy)


def _lcg(state: int) -> int:
    return (state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF


def _soup(size: int) -> frozenset:
    cells, state = [], 20080102
    for x in range(size):
        for y in range(size):
            state = _lcg(state)
            if state >> 40 < 0.35 * (1 << 24):
                cells.append((x, y))
    return frozenset(cells)


_SOUP = _soup(14)


def _life(cells: frozenset, steps: int) -> int:
    for _ in range(steps):
        counts: dict = {}
        for x, y in cells:
            for dx, dy in _OFFSETS:
                cell = (x + dx, y + dy)
                counts[cell] = counts.get(cell, 0) + 1
        cells = frozenset(c for c, n in counts.items() if n == 3 or (n == 2 and c in cells))
    return len(cells)


def _table(bits: int) -> int:
    best = [0] * (1 << bits)
    for mask in range(1, 1 << bits):
        low = mask & -mask
        best[mask] = max(best[mask ^ low] + 1, best[mask >> 1]) % 1000003
    return sum(best)


def _walk(steps: int) -> float:
    state, price, cash = 7, 100.0, 0.0
    for _ in range(steps):
        state = _lcg(state)
        u = (state >> 11) / (1 << 53)
        price *= 0.99 + 0.02 * u
        cash += price if u < 0.5 else -price
    return cash


def kernel_slice() -> tuple:
    """One slice of fixed work, a few milliseconds long."""
    return _life(_SOUP, 8), _table(10), _walk(1500)
