"""Conway's Life on the unbounded integer plane.

A state is the finite set of live cells, so patterns roam freely over
Z x Z; there is no wraparound and no grid edge. Pattern text uses '.'
for dead cells and 'O' for live ones, one row per line, top row first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

Cell = tuple[int, int]
"""Lattice position as (x, y): x grows rightward, y downward (text rows)."""


class PatternError(ValueError):
    r"""Pattern text contained a character other than '.', 'O' or a row
    break. Rows end at "\n", "\r\n" or "\r" and nowhere else."""

    def __init__(self, line: int, column: int, found: str):
        super().__init__(f"line {line}, column {column}: unexpected character {found!r}")
        self.line = line
        self.column = column
        self.found = found


@dataclass(frozen=True)
class CAState:
    """One automaton state: the finite set of cells holding value 1.

    A state holds its cells in up to three forms: `live`, the cell set;
    `_packed`, the `(base, rows)` that pack_rows hands out; and
    `_bands`, those rows laid out one int per band by _layout. A
    constructor gives a state `live`, and life_step gives it `_packed`;
    every state holds at least one of these two. Any other form is
    derived on first read and stored on the state, so later reads are
    plain attribute hits: `_packed` when the state is packed, `_bands`
    when it is stepped or searched for a glider, `live` when its cells
    are read. Only `live` is a field, so eq, hash, repr and
    `dataclasses.asdict` see only it.
    `vars(state)` shows only the forms the state holds, and a pickle or
    copy of the state carries what it holds.
    """

    # A factory, not a default, so no class attribute hides a `live`
    # that is not set yet and a read of it reaches __getattr__.
    live: frozenset[Cell] = field(default_factory=frozenset)

    def __getattr__(self, name: str):
        # Reached only when `name` is missing from the state: a form of
        # its cells that it does not hold yet, or a name it never has. A
        # state that holds neither `live` nor `_packed`, such as one a copy
        # has not filled in yet, derives nothing.
        held = vars(self)
        if name == "_bands" and ("live" in held or "_packed" in held):
            value = _layout(*self._packed)
        elif name == "_packed" and "live" in held:
            live = held["live"]
            base = min(live)[0] - 1 if live else 0
            rows: dict[int, int] = {}
            get = rows.get
            for x, y in live:
                rows[y] = get(y, 0) | 1 << (x - base)
            value = base, rows
        elif name == "live" and "_packed" in held:
            base, rows = held["_packed"]
            cells = []
            for y, row in rows.items():
                while row:
                    low = row & -row
                    cells.append((low.bit_length() - 1 + base, y))
                    row ^= low
            value = frozenset(cells)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    def bounding_box(self) -> tuple[int, int, int, int] | None:
        """(x0, y0, x1, y1) inclusive, or None for the empty state.

        Read from pack_rows: the lowest set bit of any row is the
        leftmost cell, the widest row's top bit the rightmost, and the
        row keys give y.
        """
        base, rows = pack_rows(self)
        if not rows:
            return None
        low = min((row & -row).bit_length() for row in rows.values())
        width = max(map(int.bit_length, rows.values()))
        return base + low - 1, min(rows), base + width - 1, max(rows)


@dataclass(frozen=True)
class Trace:
    """States 0..T of one evolution; states[k + 1] = life_step(states[k])."""

    states: tuple[CAState, ...]

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, k: int) -> CAState:
        return self.states[k]

    def __iter__(self) -> Iterator[CAState]:
        return iter(self.states)


def parse_pattern(text: str) -> CAState:
    r"""Read '.'/'O' pattern text; the top-left character is cell (0, 0).

    Rows end at "\n", "\r\n" or "\r"; no other character breaks a row.
    Rows may differ in length (short rows are padded with dead cells,
    conceptually). The empty string parses to the empty state. Any other
    character raises PatternError, which names the first one in reading
    order by its 1-based line and column.
    """
    cells = set()
    rows = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for row, line in enumerate(rows):
        for col, ch in enumerate(line):
            if ch == "O":
                cells.add((col, row))
            elif ch != ".":
                raise PatternError(row + 1, col + 1, ch)
    return CAState(frozenset(cells))


def pack_rows(state: CAState) -> tuple[int, dict[int, int]]:
    """(base, rows): the live cells as one int per occupied row, where
    bit i of rows[y] is cell (base + i, y).

    base lies left of every live cell, so bit 0 of every row is dead and
    a neighbour one column left of any live cell still has a bit. For a
    state built from cells it is one left of the leftmost live cell; a
    state that life_step returned keeps the base it was written at,
    which may lie a few columns further left. An empty state packs to
    no rows.

    This is the state's `_packed` form, packed at most once and kept on
    the state as CAState describes. Every caller shares the one dict:
    treat the rows as read-only."""
    return state._packed


def window(states: Iterable[CAState]) -> tuple[int, int, int, int]:
    """(x0, y0, width, height): the joint bounding box of `states`, so
    no live cell of any of them falls outside it, or (0, 0, 0, 0) when
    every state is empty. This is the default window of a render."""
    boxes = [box for box in map(CAState.bounding_box, states) if box] or [(0, 0, -1, -1)]
    x0s, y0s, x1s, y1s = zip(*boxes)
    x0, y0 = min(x0s), min(y0s)
    return x0, y0, max(x1s) - x0 + 1, max(y1s) - y0 + 1


def render_pattern(state: CAState, viewport: tuple[int, int, int, int] | None = None) -> str:
    """Write a state in the same '.'/'O' format parse_pattern reads.

    viewport is (x0, y0, width, height); by default it is the state's
    own window (see window), so the empty state renders to the empty
    string. Live cells outside the viewport are not shown.

    The rows come from pack_rows, so a state that holds them (see
    CAState) is not packed again; the default viewport is read from the
    same rows. Each row is cropped to the viewport by a shift that puts
    cell x0 at bit 0 and a mask of `width` bits; a marker bit at `width`
    makes bin() give exactly width digits after it, read low bit first.
    The left shift is capped at `width`, since every bit it moves past
    the width is masked off anyway, so a window far left of the state
    costs no more than one near it.
    """
    x0, y0, width, height = window((state,)) if viewport is None else viewport
    if width < 0 or height < 0:
        raise ValueError("viewport width and height must be non-negative")
    base, rows = pack_rows(state)
    lift, drop = min(max(base - x0, 0), width), max(x0 - base, 0)
    mask = (1 << width) - 1
    text = "\n".join(bin(rows.get(y, 0) << lift >> drop & mask | mask + 1)[:2:-1]
                     for y in range(y0, y0 + height))
    return text.replace("0", ".").replace("1", "O")


class _Band(NamedTuple):
    """One band of a state's cells, laid out as _layout describes."""

    y0: int
    x0: int
    stride: int
    plane: int


def _layout(base: int, rows: dict[int, int]) -> list[_Band]:
    """Lay packed rows, bit i of rows[y] being cell (base + i, y), out as
    one int per band, in (y0, x0) order. A state keeps the result as its
    `_bands` (see CAState).

    A band is a rectangle of rows and columns. The rows are cut wherever
    two or more dead rows separate occupied ones, and each part's
    columns wherever a run of dead columns spans at least
    max(8, 2048 // height) whole bytes of the part's rows, height being
    the rows it spans, again and again until no part has such a gap. So in one step no cell of a
    band neighbours, or is born next to, a cell of another, and a
    glider's halo never reaches another band. A band costs its own
    height times its own width, and a column cut lays each piece out
    as a band of its own, which costs about as much as 2**14 cells of
    plane: so a cut is made only where it takes at least that many
    dead cells, and 8 bytes of every row, out of the plane, and a tall
    cluster does not pay for the many columns between it and a far
    pattern in the same rows. Each band is a _Band, read only by
    life_step and find_glider:

    - cell (x, y) sits at bit (y - y0) * stride + (x - x0) of plane.
      y0 is one above the band's first row, so a dead row sits below
      that row's bits, and x0 is one left of the band's leftmost live
      cell, so bit 0 of every row stays dead. This lift of each band to
      its own leftmost cell is the one place where cells are re-based:
      the rows may come at any base left of their cells;
    - stride is a whole number of bytes, with at least 8 dead bits
      above the band's widest row.

    The plane is built with `to_bytes` into a bytearray and read by
    `int.from_bytes`, and life_step cuts rows back out by `to_bytes`
    slices of one stride each. So a shift of the plane by whole strides
    and at most 1 bit right or 8 bits left carries across a row
    boundary only bit 0 or the dead margin: the dead cells a row-by-row
    step sees there. find_glider reads cells at most 3 columns either
    side of an anchor, from one row above it to three rows below. For a
    match each of them is within one column of a live cell, so bit 0 and
    the dead margin keep every such read inside its row too.
    """
    bands = []
    todo = [(base, rows)]
    while todo:
        x0, rows = todo.pop()
        get = rows.get
        ys = sorted(rows)
        starts = [i for i, y in enumerate(ys) if i == 0 or y - ys[i - 1] > 2]
        for lo, hi in zip(starts, [*starts[1:], len(ys)]):
            band = ys[lo:hi]
            seen = 0
            for y in band:
                seen |= rows[y]
            lift = (seen & -seen).bit_length() - 2
            seen >>= lift
            dead = max(8, 2048 // (band[-1] - band[0] + 1))
            if seen.bit_length() > 8 * dead:
                data = seen.to_bytes((seen.bit_length() + 7) >> 3, "little")
                gaps = [i for m in re.finditer(rb"\0{%d,}" % dead, data) for i in m.span()]
                if gaps:
                    # Each piece, from byte p to byte q of data, goes back
                    # on the list as rows of its own, with a dead bit 0,
                    # to be cut again.
                    for p, q in zip([0, *gaps[1::2]], [*gaps[::2], len(data)]):
                        a = lift + max(8 * p - 1, 0)
                        mask = (1 << lift + 8 * q - a) - 1
                        part = {y: row for y in band if (row := rows[y] >> a & mask)}
                        todo.append((x0 + a, part))
                    continue
            size = (seen.bit_length() + 15) >> 3
            buf = bytearray(size)
            for y in range(band[0], band[-1] + 1):
                buf += (get(y, 0) >> lift).to_bytes(size, "little")
            bands.append(_Band(band[0] - 1, x0 + lift, size << 3, int.from_bytes(buf, "little")))
    bands.sort()
    return bands


def life_step(s: CAState) -> CAState:
    """One synchronous update of the whole plane.

    A cell with exactly 3 live neighbors is live next step; with exactly
    2 it keeps its current value; any other count leaves it dead.

    The state keeps its bands (see CAState), laid out as _layout
    describes. A bitwise adder counts each cell's neighbours as three
    2-bit sums: `side`, the cells left and right (the band's int shifted
    by 1 each way), and `above` and `below`, the three cells of the row
    above and of the row below (`trio`, the side sum plus the cell
    itself, shifted by the stride each way). Bit 0 of the count is
    `ones`, and `carry` is its carry. The count is 2 or 3 exactly where
    one of the four weight-2 bits `above1`, `below1`, `side1` and
    `carry` is set: an odd number of them, but not both of a pair, since
    three set always hold a whole pair. The result is cut back into
    rows, one stride of its bytes each, and each row is shifted to the
    next state's base, one left of the leftmost band's x0, so a birth
    on a band's bit 0 lands on bit 1; bands that share a row add their
    parts of it.

    The next rows are all the returned state holds, as its `_packed`
    (see CAState), so a caller that only packs, such as a render, never
    builds the cell set.
    """
    bands = s._bands
    base = min(band.x0 for band in bands) - 1 if bands else 0
    nxt = {}
    get = nxt.get
    for y0, x0, stride, plane in bands:
        left, right = plane << 1, plane >> 1
        side0, side1 = left ^ right, left & right
        trio0, trio1 = side0 ^ plane, side1 | side0 & plane
        above0, above1 = trio0 << stride, trio1 << stride
        below0, below1 = trio0 >> stride, trio1 >> stride
        ab = above0 ^ below0
        ones = ab ^ side0
        carry = above0 & below0 | side0 & ab
        odd = above1 ^ below1 ^ side1 ^ carry
        out = odd & ~(above1 & below1 | side1 & carry) & (ones | plane)
        size, lift = stride >> 3, x0 - base
        buf = out.to_bytes((out.bit_length() + 7) >> 3, "little")
        for y, at in enumerate(range(0, len(buf), size), y0):
            row = int.from_bytes(buf[at:at + size], "little") << lift
            if row:
                nxt[y] = get(y, 0) | row
    state = object.__new__(CAState)
    object.__setattr__(state, "_packed", (base, nxt))
    return state


def run(initial: CAState, steps: int) -> Trace:
    """Evolve `initial` for `steps` updates, keeping every state."""
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    states = [initial]
    for _ in range(steps):
        states.append(life_step(states[-1]))
    return Trace(tuple(states))


GLIDER = parse_pattern(".O.\n..O\nOOO")
BLOCK = parse_pattern("OO\nOO")


def _glider_stencils() -> tuple[tuple[tuple[Cell, ...], tuple[tuple[int, int, int], ...]], ...]:
    """Per glider phase, its cells and one (dx, dy, flip) term per cell
    to test.

    The four phases are GLIDER and its next three life_step states. Each
    phase's cells are offsets from its anchor, its (y, x)-least cell, in
    sorted order. The terms are the body cells with flip 0, then the
    halo (cells adjacent to the body) with flip -1, which inverts the
    band to ask for dead cells."""
    stencils = []
    state = GLIDER
    for _ in range(4):
        ax, ay = min(state.live, key=lambda c: (c[1], c[0]))
        phase = tuple(sorted((x - ax, y - ay) for x, y in state.live))
        halo = {(x + dx, y + dy) for x, y in phase for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
        terms = [(dx, dy, 0) for dx, dy in phase]
        terms += [(dx, dy, -1) for dx, dy in sorted(halo - set(phase))]
        stencils.append((phase, tuple(terms)))
        state = life_step(state)
    return tuple(stencils)


_GLIDER_STENCILS = _glider_stencils()


def find_glider(state: CAState) -> frozenset[Cell] | None:
    """The cell set of a detected glider phase, or None.

    A detection is a translation of one of the four glider phases that is
    a subset of the live cells and has no other live cell adjacent to it
    (Chebyshev distance 1). With several detections, the one whose sorted
    (y, x) cell list is lexicographically least wins, so detection is a
    function of the state alone.

    The state keeps its bands (see CAState), laid out as _layout
    describes; an empty state has no bands and no detection. For each
    band and each phase, `hits` ANDs the phase's terms: the band's int
    shifted right by `dx + dy * stride`, which brings the cell (dx, dy)
    from an anchor down to that anchor's own bit, inverted for a halo
    cell. So one bit marks each anchor, the phase's (y, x)-least cell.
    An isolated detection is a whole 8-connected component, so
    detections are disjoint and an anchor has one phase at most: the
    (y, x)-least anchor is the least cell list. Bands come in order of
    their top row, so once one starts below the best anchor so far, no
    later band holds a better one.
    """
    best = None
    for y0, x0, stride, plane in state._bands:
        if best is not None and y0 >= best[0]:
            break
        for phase, terms in _GLIDER_STENCILS:
            hits = -1
            for dx, dy, flip in terms:
                k = dx + dy * stride
                hits &= (plane >> k if k >= 0 else plane << -k) ^ flip
                if not hits:
                    break
            else:
                y, x = divmod((hits & -hits).bit_length() - 1, stride)
                y, x = y0 + y, x0 + x
                if best is None or (y, x) < best[:2]:
                    best = y, x, phase
    if best is None:
        return None
    y, x, phase = best
    return frozenset((x + dx, y + dy) for dx, dy in phase)

# Glider aimed at a block, tuned so the glider stays cleanly detectable
# (no other live cell adjacent to it) for exactly states 0..14, after
# which the collision annihilates every cell.  Found by scanning block
# placements; the tests assert the detection timeline.
_SCENE_TEXT = """\
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


def glider_block_scene() -> CAState:
    """A 9-cell scene: a glider that flies for 15 states, then dies.

    The glider (5 cells) is detectable in states 0..14; from state 15 on
    the collision with the block (4 cells) has destroyed it and no later
    state contains a glider-shaped, isolated pattern (the two patterns
    annihilate completely).
    """
    return parse_pattern(_SCENE_TEXT)
