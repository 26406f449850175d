"""Engine tests. Frozen expected states were derived by hand-applying
the update rule (blinker) or by checking all four diagonal translations
once (glider drift), then pinned."""

import pytest
from hypothesis import example, given, strategies as st

from lifelens.ca import (
    BLOCK,
    CAState,
    GLIDER,
    PatternError,
    glider_block_scene,
    life_step,
    parse_pattern,
    render_pattern,
    run,
    window,
)

cells = st.tuples(st.integers(-30, 30), st.integers(-30, 30))
states = st.frozensets(cells, max_size=40).map(CAState)


class TestParsePattern:
    def test_empty_text_is_empty_state(self):
        assert parse_pattern("") == CAState(frozenset())

    def test_glider_transcription(self):
        assert GLIDER.live == {(1, 0), (2, 1), (0, 2), (1, 2), (2, 2)}

    def test_block_transcription(self):
        assert BLOCK.live == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_rejects_stray_character_with_position(self):
        with pytest.raises(PatternError) as err:
            parse_pattern("..O\n.X.")
        assert err.value.line == 2
        assert err.value.column == 2
        assert "'X'" in str(err.value)

    def test_ragged_rows_are_allowed(self):
        assert parse_pattern("O\n..O").live == {(0, 0), (2, 1)}

    # str.splitlines breaks rows at each of these; a pattern row does not.
    @pytest.mark.parametrize("ch", ["\v", "\f", "\x1c", "\x1d", "\x1e",
                                    "\x85", "\u2028", "\u2029"])
    def test_other_line_breaks_are_bad_characters(self, ch):
        with pytest.raises(PatternError) as err:
            parse_pattern("O" + ch + "O")
        assert (err.value.line, err.value.column, err.value.found) == (1, 2, ch)

    def test_crlf_and_cr_end_a_row(self):
        assert parse_pattern("O.\r\n.O\rOO") == parse_pattern("O.\n.O\nOO\n")

    @given(states)
    def test_render_parse_roundtrip(self, state):
        # Rendering anchors at the bounding box, so compare shapes.
        box = state.bounding_box()
        parsed = parse_pattern(render_pattern(state))
        if box is None:
            assert parsed.live == frozenset()
        else:
            x0, y0 = box[0], box[1]
            assert parsed == CAState(frozenset((x - x0, y - y0) for x, y in state.live))

    def test_render_with_viewport(self):
        text = render_pattern(BLOCK, (-1, -1, 4, 4))
        assert text == "....\n.OO.\n.OO.\n...."


class TestBoundingBox:
    @given(states)
    def test_is_the_extent_of_the_cells(self, state):
        if not state.live:
            assert state.bounding_box() is None
        else:
            xs, ys = zip(*state.live)
            assert state.bounding_box() == (min(xs), min(ys), max(xs), max(ys))

    @given(st.lists(states, max_size=4))
    @example([])
    @example([CAState(), CAState()])
    @example([CAState(frozenset({(-3, -5)}))])
    def test_window_is_the_extent_of_all_the_cells(self, group):
        cells = frozenset().union(*(state.live for state in group))
        if cells:
            xs, ys = zip(*cells)
            x0, y0 = min(xs), min(ys)
            assert window(group) == (x0, y0, max(xs) - x0 + 1, max(ys) - y0 + 1)
        else:
            assert window(group) == (0, 0, 0, 0)
        # Stepped states hold only rows; the window is read from them
        # before the comparison states are built from their cells.
        stepped = run(CAState(cells), 3).states
        assert window(stepped) == window([CAState(state.live) for state in stepped])


class TestLifeStep:
    def test_empty_stays_empty(self):
        assert life_step(CAState(frozenset())) == CAState(frozenset())

    def test_lone_cell_dies(self):
        assert life_step(CAState(frozenset({(0, 0)}))) == CAState(frozenset())

    def test_block_is_still(self):
        assert life_step(BLOCK) == BLOCK

    def test_blinker_rotates(self):
        horizontal = parse_pattern("OOO")
        vertical = CAState(frozenset({(1, -1), (1, 0), (1, 1)}))
        assert life_step(horizontal) == vertical
        assert life_step(vertical) == horizontal

    @given(states)
    def test_next_cells_come_from_the_neighborhood(self, state):
        nxt = life_step(state)
        halo = {
            (x + dx, y + dy)
            for x, y in state.live
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
        }
        assert nxt.live <= halo


class TestRun:
    def test_zero_steps_returns_initial_only(self):
        trace = run(GLIDER, 0)
        assert len(trace) == 1
        assert trace[0] == GLIDER

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            run(GLIDER, -1)

    @given(states, st.integers(0, 6))
    def test_consecutive_states_are_single_steps(self, state, steps):
        trace = run(state, steps)
        assert len(trace) == steps + 1
        for a, b in zip(trace.states, trace.states[1:]):
            assert life_step(a) == b

    def test_glider_translates_one_diagonal_per_period(self):
        # All four phases drift by (+1, +1) every 4 steps.
        state = GLIDER
        for _ in range(4):
            trace = run(state, 4)
            assert trace[4] == CAState(frozenset((x + 1, y + 1) for x, y in trace[0].live))
            state = life_step(state)


class TestGliderBlockScene:
    def test_scene_has_nine_cells(self):
        scene = glider_block_scene()
        assert len(scene.live) == 9

    def test_scene_is_glider_plus_block(self):
        scene = glider_block_scene()
        block = {(7, 7), (8, 7), (7, 8), (8, 8)}
        assert block <= scene.live
        assert scene.live - block == GLIDER.live

    def test_collision_annihilates_everything(self):
        trace = run(glider_block_scene(), 60)
        assert len(trace[60].live) == 0
