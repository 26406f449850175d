"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports lifelens. Each oracle restates a rule from scratch,
in a different formulation from the program's, so a check built on it
holds for any correct implementation and for any seed.
"""

from __future__ import annotations

from math import comb

Cell = tuple[int, int]
Rows = dict[int, int]
"""A Life state as bit rows: bit i of rows[y] is cell (i - offset, y).

Rows that hold no live cell are absent, so equal states give equal dicts.
"""

GLIDER_TEXT = ".O.\n..O\nOOO\n"

# The 9-cell glider-and-block scene of the README, restated here so the
# benchmark writes its own input file.
SCENE_TEXT = """\
.O.......
..O......
OOO......
.........
.........
.........
.........
.......OO
.......OO
"""

_TO_CELLS = str.maketrans("01", ".O")


def parse_cells(text: str) -> set[Cell]:
    return {(x, y) for y, line in enumerate(text.splitlines())
            for x, ch in enumerate(line) if ch == "O"}


def to_rows(cells, offset: int) -> Rows:
    rows: Rows = {}
    for x, y in cells:
        rows[y] = rows.get(y, 0) | 1 << (x + offset)
    return rows


def rows_to_cells(rows: Rows, offset: int) -> set[Cell]:
    cells = set()
    for y, bits in rows.items():
        while bits:
            low = bits & -bits
            cells.add((low.bit_length() - 1 - offset, y))
            bits ^= low
    return cells


def life_step_rows(rows: Rows) -> Rows:
    """One B3/S23 update, bit-parallel over each row.

    The eight neighbour rows are summed into a 3-bit counter (s2 s1 s0)
    modulo 8; a count of 8 wraps to 0, which is dead either way. A cell
    lives on a count of 3, or on 2 when it is already live. Cells must
    keep a bit index of at least 1, so the offset needs a margin of one
    per step.
    """
    if not rows:
        return {}
    nxt: Rows = {}
    get = rows.get
    for y in range(min(rows) - 1, max(rows) + 2):
        a, b, c = get(y - 1, 0), get(y, 0), get(y + 1, 0)
        if not a | b | c:
            continue
        s0 = s1 = s2 = 0
        for n in (a << 1, a, a >> 1, b << 1, b >> 1, c << 1, c, c >> 1):
            carry0 = s0 & n
            s0 ^= n
            carry1 = s1 & carry0
            s1 ^= carry0
            s2 ^= carry1
        alive = s1 & ~s2 & (s0 | b)
        if alive:
            nxt[y] = alive
    return nxt


def evolve(cells, steps: int) -> tuple[list[Rows], int]:
    """Bit-row states 0..steps and the offset they are written with."""
    offset = steps + 2 - min((x for x, _ in cells), default=0)
    states = [to_rows(cells, offset)]
    for _ in range(steps):
        states.append(life_step_rows(states[-1]))
    return states, offset


def life_stdout(states: list[Rows], offset: int) -> str:
    """What `lifelens life` prints for these states with its default viewport
    (the joint bounding box of every non-empty state)."""
    live_rows = [y for rows in states for y in rows]
    if live_rows:
        y0, y1 = min(live_rows), max(live_rows)
        bits_any = 0
        for rows in states:
            for bits in rows.values():
                bits_any |= bits
        x0 = (bits_any & -bits_any).bit_length() - 1
        width = bits_any.bit_length() - x0
    else:
        y0, y1, x0, width = 0, -1, 0, 0
    lines = []
    for t, rows in enumerate(states):
        if t:
            lines.append("")
        lines.append(f"t={t}")
        if width:
            for y in range(y0, y1 + 1):
                text = format(rows.get(y, 0) >> x0, f"0{width}b")[::-1]
                lines.append(text.translate(_TO_CELLS))
    return "\n".join(lines) + "\n"


def _shape(cells) -> frozenset[Cell]:
    ax, ay = min(cells, key=lambda c: (c[1], c[0]))
    return frozenset((x - ax, y - ay) for x, y in cells)


def _glider_shapes() -> frozenset[frozenset[Cell]]:
    states, offset = evolve(parse_cells(GLIDER_TEXT), 3)
    return frozenset(_shape(rows_to_cells(rows, offset)) for rows in states)


GLIDER_SHAPES = _glider_shapes()


def isolated_glider(live) -> frozenset[Cell] | None:
    """The glider the program must report for a state, or None.

    A glider phase is 8-connected, so a phase with no other live cell
    adjacent to it is exactly an 8-connected component of five live cells
    with a glider's shape. Of several, the one whose sorted (y, x) cell
    list is least is the one reported.
    """
    seen: set[Cell] = set()
    best = best_key = None
    for cell in live:
        if cell in seen:
            continue
        seen.add(cell)
        component = [cell]
        for x, y in component:
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    nb = (x + dx, y + dy)
                    if nb in live and nb not in seen:
                        seen.add(nb)
                        component.append(nb)
        if len(component) == 5 and _shape(component) in GLIDER_SHAPES:
            key = sorted((y, x) for x, y in component)
            if best_key is None or key < best_key:
                best, best_key = frozenset(component), key
    return best


def has_divergence(pairs: list, successors: list) -> bool:
    """Whether two moments look identical but have different known successors.

    successors[i] is None where the successor is unknown; such moments
    join no comparison.
    """
    known = [i for i, s in enumerate(successors) if s is not None]
    return any(pairs[a] == pairs[b] and successors[a] != successors[b]
               for k, a in enumerate(known) for b in known[k + 1:])


def zigzag(n: int) -> int:
    """Euler zigzag number E(n): alternating permutations of n cards.

    2 E(m+1) = sum over k of C(m, k) E(k) E(m-k), for m >= 1.
    """
    e = [1, 1]
    for m in range(1, n):
        e.append(sum(comb(m, k) * e[k] * e[m - k] for k in range(m + 1)) // 2)
    return e[n]
