"""The package's fast paths against the original formulations kept in
reference.py.

Each fast path must return exactly what its oracle returns. `life_step`
and `find_glider`, both on the rows `ca.pack_rows` packs, laid out one
int per band by `ca._layout` and kept on the state as its `_bands`,
must give the same next state and the same detected glider (or None)
on arbitrary states, on crowds of gliders where the least-body
tie-break and the halo test decide, on two clusters 0-5 empty rows
apart one above the other or 0-5 or about 16,390 empty columns apart
side by side, and on every state of a random soup, whose steps and
detections lay out each state once;
two blocks 0-3 empty rows apart and a glider with a lone cell 2 or 3
rows below it are explicit examples at the band edges. A table of lone
glider phases pins each halo cell and the tie rule, and two isolated
gliders pin it across bands: the higher one wins though the lower lies
further left, in one band, in two cut apart by rows, and in two cut
apart by columns, also when the lower glider's band starts higher. The
detector's four
phases must be the ones reference.py steps from GLIDER itself, in the
same order. `render_pattern`,
also on packed rows, must write the same text as the render oracle that
looks up every viewport cell, for any viewport, and a window 10**8
columns from the state must cost under 1 MiB. `pack_rows` must put its
base one left of the leftmost live cell, leave bit 0 dead, and give
back its cells when unpacked. The empty state is an explicit example
for all four; a cell at negative x and y, and rows exactly 7, 8 and 9
bits wide, are explicit examples for the packing and unpacking round
trips. A state built from cells packs its rows on first read, and
`life_step` stores the rows it computed on the state it returns: such a
state must keep bit 0 of its rows dead, and it and an equal one built
from its cells must give the same `life_step`, `find_glider`, render
and bounding box. The cells such a state unpacks on the first read of
`live` must be the counter step's. A glider flying 1,000 steps either
way keeps its base left of every cell, bit 0 dead and every row int
under 2**8, two gliders flying apart diagonally for 1,000 steps keep
two bands of at most 16 bits a row and 8 rows each, and a 41-row ladder of blocks with a block
4,000 columns to its right keeps every band at most 16 bits a row.
Each theorem trial, which reads its label draws from blocks of raw
generator words that `seeds.WordReader` sizes as it reads, and tests
the premises first on their codes, must give
the `premises_hold` and `violation` that `check_proposition` gives on
the episode reference.py's generators replay from its stream draws, at
fixed and at drawn seeds, trials of both parities and lifetimes up to
1000, and `run_theorem_check` must tally the premise
cases and violations of those checks, also at max_len 1, where no
premise holds. The trials must check an environment only when the
episode terminated over its threshold, and check for a contradiction
only when the premises hold, never through the witness scan. With the
threshold set to -1, which every episode exceeds, `lifelens theorem`
must exit 1 and report the exhaustive plus the randomized violations of
those checks. Each trial's `randint` and `randrange` values, with an even
trial's transition table among them, the stream state after its
lifetime and the codes of the environment it checks must equal the
stdlib replay's, on every pair of alphabet sizes and at drawn seeds.
The coop experiment, which draws its flips as 0/1 flag bytes and scores
them column by column, one lane per player, must give the same report
as the one that walks every meeting, also where the lanes widen, at a
block edge and with takes past 2**64.
`victory_table`, which builds one DP row per proper prefix of an
UP-first word and takes the DOWN-first half as the UP-first half reversed, must give
each word, by its text, the count `victories_dp` gives it alone, and
the count of decks whose pattern it is.
"""

import random
import tracemalloc
from collections import Counter
from itertools import count, islice, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from reference import GLIDER_PHASES, iter_terminated_episodes
from lifelens import ca, observe
from lifelens.ca import (
    BLOCK,
    GLIDER,
    CAState,
    life_step,
    pack_rows,
    parse_pattern,
    render_pattern,
    run,
)
from lifelens.cli import main
from lifelens.coop import CoopConfig, PayoffMatrix, run_coop_experiment
from lifelens.observe import (
    ZERO,
    PerceptionSpace,
    check_proposition,
    find_glider,
    glider_observer,
    perceive_trace,
)
from lifelens.seeds import DEFAULT_SEED, substream
from lifelens.updown import all_strategies, deck_pattern, victories_dp, victory_table

coords = st.integers(-12, 12)
states = st.frozensets(st.tuples(coords, coords), max_size=90).map(CAState)
corners = st.integers(-15, 15)
sides = st.integers(0, 20)
viewports = st.none() | st.tuples(corners, corners, sides, sides)
SPREAD = CAState(frozenset({(-12, -12), (0, 0), (3, -1), (12, 12)}))


def crowd(rng: random.Random) -> CAState:
    """2-4 translated glider phases, close enough to touch or overlap,
    plus up to 4 noise cells."""
    cells = set()
    for _ in range(rng.randint(2, 4)):
        phase = rng.choice(GLIDER_PHASES)
        dx, dy = rng.randint(-12, 12), rng.randint(-12, 12)
        cells.update((x + dx, y + dy) for x, y in phase)
    cells.update((rng.randint(-12, 12), rng.randint(-12, 12)) for _ in range(rng.randint(0, 4)))
    return CAState(frozenset(cells))


glider_crowds = st.randoms(use_true_random=False).map(crowd)


def placed(phase: tuple, dx: int, dy: int) -> frozenset:
    """The phase moved so its (y, x)-least cell, its anchor, is (dx, dy)."""
    return frozenset((x + dx, y + dy) for x, y in phase)


def within(cells: frozenset, r: int) -> set:
    """Every cell at Chebyshev distance r or less from some cell of cells."""
    return {(x + dx, y + dy) for x, y in cells for dx in range(-r, r + 1) for dy in range(-r, r + 1)}


def soup(seed: int, size: int = 60, density: float = 0.35) -> CAState:
    rng = random.Random(seed)
    return parse_pattern("\n".join(
        "".join("O" if rng.random() < density else "." for _ in range(size))
        for _ in range(size)))


EMPTY = CAState()
NEGATIVE = CAState(frozenset({(-5, -3)}))


def apart(top: CAState, bottom: CAState, gap: int, dx: int = 0) -> CAState:
    """`top` with `bottom` moved `dx` columns right and below it, so that
    `gap` empty rows separate them; _layout splits them once gap >= 2."""
    lowest = max(y for _, y in top.live)
    highest = min(y for _, y in bottom.live)
    dy = lowest + 1 + gap - highest
    return CAState(top.live | {(x + dx, y + dy) for x, y in bottom.live})


def beside(left: CAState, right: CAState, gap: int, dy: int = 0) -> CAState:
    """`left` with `right` moved `dy` rows down and to its right, so that
    `gap` empty columns separate them; _layout cuts them apart once the gap
    spans max(8, 2048 // height) whole bytes of their rows."""
    rightmost = max(x for x, _ in left.live)
    leftmost = min(x for x, _ in right.live)
    dx = rightmost + 1 + gap - leftmost
    return CAState(left.live | {(x + dx, y + dy) for x, y in right.live})


# A cluster is a few cells in a 6x4 box or a glider phase, so the halo
# test meets a band edge; two of them are 0-5 empty rows apart, one above
# the other, or 0-5 or about 16,390 empty columns apart, side by side,
# where a band of any height is cut apart.
clusters = (st.frozensets(st.tuples(st.integers(0, 5), st.integers(0, 3)), min_size=1, max_size=12)
            | st.sampled_from(GLIDER_PHASES).map(frozenset)).map(CAState)
two_clusters = (st.builds(apart, clusters, clusters, st.integers(0, 5), st.integers(-8, 8))
                | st.builds(beside, clusters, clusters, st.integers(0, 5) | st.integers(16_380, 16_400),
                            st.integers(-5, 5)))
LONE = CAState(frozenset({(0, 0)}))
BANDS = [apart(BLOCK, BLOCK, gap) for gap in range(4)]
HALO_ON_A_DEAD_ROW = [apart(GLIDER, LONE, gap, 1) for gap in (1, 2)]


def blocks(width: int) -> CAState:
    """Two still blocks whose packed rows, and their successor's, are
    exactly `width` bits wide (width >= 7 keeps them apart)."""
    return CAState(frozenset((x, y) for x in (0, 1, width - 3, width - 2) for y in (0, 1)))


class TestLifeStep:
    @given(states)
    @example(EMPTY)
    @example(BANDS[0])  # two still blocks 0, 1, 2 and 3 empty rows apart
    @example(BANDS[1])
    @example(BANDS[2])
    @example(BANDS[3])
    @example(HALO_ON_A_DEAD_ROW[0])  # a lone cell 2, then 3 rows below a glider
    @example(HALO_ON_A_DEAD_ROW[1])
    def test_matches_the_counter_step(self, state):
        assert life_step(state) == reference.life_step(state)

    @given(two_clusters)
    def test_matches_across_a_gap(self, state):
        assert life_step(state) == reference.life_step(state)

    @given(glider_crowds)
    def test_matches_on_glider_crowds(self, state):
        assert life_step(state) == reference.life_step(state)


class TestPackRows:
    @given(states)
    def test_base_is_one_left_of_the_leftmost_cell(self, state):
        base, rows = pack_rows(state)
        if state.live:
            assert base == min(x for x, _ in state.live) - 1
        assert all(row & 1 == 0 for row in rows.values())

    @given(states)
    @example(EMPTY)  # no rows
    @example(NEGATIVE)
    @example(blocks(7))  # rows one bit short of a byte, a byte, a bit over
    @example(blocks(8))
    @example(blocks(9))
    def test_unpacking_gives_back_the_cells(self, state):
        base, rows = pack_rows(state)
        unpacked = {(base + i, y) for y, row in rows.items()
                    for i in range(row.bit_length()) if row >> i & 1}
        assert unpacked == state.live
        assert set(rows) == {y for _, y in state.live}


class TestPackedMemo:
    @given(states | glider_crowds)
    @example(EMPTY)
    @example(CAState(frozenset({(3, 4)})))  # every cell dies
    @example(NEGATIVE)
    @example(blocks(7))
    @example(blocks(8))
    @example(blocks(9))
    def test_unpacked_cells_match_the_counter_step(self, state):
        stepped = life_step(state)
        assert "live" not in vars(stepped)
        assert stepped.live == reference.life_step(state).live
        assert vars(stepped)["live"] is stepped.live

    @given(states | glider_crowds, viewports)
    @example(EMPTY, None)
    @example(GLIDER, (-2, -1, 5, 4))
    def test_stepped_state_matches_one_built_from_its_cells(self, state, viewport):
        for stepped in run(state, 3).states[1:]:
            fresh = CAState(frozenset(stepped.live))
            assert "_packed" in vars(stepped)
            assert "_packed" not in vars(fresh)
            assert all(row & 1 == 0 for row in pack_rows(stepped)[1].values())
            assert life_step(stepped) == life_step(fresh)
            assert find_glider(stepped) == find_glider(fresh)
            assert render_pattern(stepped) == render_pattern(fresh)
            assert render_pattern(stepped, viewport) == render_pattern(fresh, viewport)
            assert stepped.bounding_box() == fresh.bounding_box()

    # GLIDER flies right, so its left edge dies; the mirrored one flies
    # left, so births fall one column left of the leftmost cell.
    @pytest.mark.parametrize("glider, dx", [(GLIDER, 250), (parse_pattern(".O.\nO..\nOOO"), -250)],
                             ids=["rightward", "leftward"])
    def test_rows_stay_small_over_a_long_flight(self, glider, dx):
        trace = run(glider, 1000)
        assert trace[1000] == CAState(frozenset((x + dx, y + 250) for x, y in glider.live))
        for state in trace:
            base, rows = pack_rows(state)
            assert base < min(x for x, _ in state.live)
            assert all(0 < row < 2**8 and row & 1 == 0 for row in rows.values())

    # One glider flies down-right, the other, turned half round, up-left:
    # the bands split them, and each keeps a glider's width and height
    # rather than the growing area between the two.
    def test_bands_stay_small_as_gliders_fly_apart(self):
        away = parse_pattern("OOO\nO..\n.O.")
        trace = run(apart(away, GLIDER, 2, 5), 1000)
        assert trace[1000].live == ({(x - 250, y - 250) for x, y in away.live}
                                    | {(x + 255, y + 255) for x, y in GLIDER.live})
        for state in trace:
            bands = state._bands
            assert len(bands) == 2
            for band in bands:
                assert band.stride <= 16
                assert band.plane.bit_length() <= 8 * band.stride


    # A ladder of still blocks, rows 0-40, and a block 4,000 columns to its
    # right in rows 0-1: the columns between them are cut out, so no band
    # is 41 rows of 4,000 bits.
    def test_bands_cut_a_far_block_off_a_tall_cluster(self):
        ladder = {(x, 3 * k + dy) for k in range(14) for x in (0, 1) for dy in (0, 1)}
        far = {(x, y) for x in (4000, 4001) for y in (0, 1)}
        for state in run(CAState(frozenset(ladder | far)), 2):
            assert state.live == ladder | far
            bands = state._bands
            assert [(band.y0, band.x0) for band in bands] == [(-1, -1), (-1, 3999)]
            assert all(band.stride <= 16 for band in bands)

class TestRenderPattern:
    @given(states, viewports)
    @example(SPREAD, (0, -3, 0, 5))  # zero width
    @example(SPREAD, (-3, 0, 5, 0))  # zero height
    @example(SPREAD, (13, -15, 2, 20))  # no live cell inside
    @example(SPREAD, (-1, -2, 6, 4))  # cut on all four sides
    @example(SPREAD, (-1, -2, 3, 4))  # a live cell two columns right of it
    @example(SPREAD, None)  # the default viewport
    @example(EMPTY, None)
    @example(EMPTY, (-2, 3, 3, 2))
    def test_matches_the_cell_lookup(self, state, viewport):
        assert render_pattern(state, viewport) == reference.render_pattern(state, viewport)

    # A window 10**8 columns from the state: its rows are shifted by at
    # most the width, never by the distance, so no 10**8-bit int is built.
    @pytest.mark.parametrize("x0", [-10**8, 10**8])
    def test_far_viewport_stays_small(self, x0):
        viewport = (x0, -13, 4, 3)
        tracemalloc.start()
        try:
            text = render_pattern(SPREAD, viewport)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == reference.render_pattern(SPREAD, viewport) == "....\n....\n...."
        assert peak < 2**20

    @pytest.mark.parametrize("viewport", [(0, 0, -1, 2), (0, 0, 2, -1)])
    def test_rejects_a_negative_size(self, viewport):
        with pytest.raises(ValueError, match="^viewport width and height must be non-negative$"):
            render_pattern(SPREAD, viewport)


class TestFindGlider:
    def test_stencil_phases_are_the_oracles(self):
        assert tuple(phase for phase, _ in ca._GLIDER_STENCILS) == GLIDER_PHASES

    @given(states)
    @example(EMPTY)
    @example(BANDS[0])  # two still blocks 0, 1, 2 and 3 empty rows apart
    @example(BANDS[1])
    @example(BANDS[2])
    @example(BANDS[3])
    @example(HALO_ON_A_DEAD_ROW[0])  # a lone cell 2, then 3 rows below a glider
    @example(HALO_ON_A_DEAD_ROW[1])
    def test_matches_the_set_scan(self, state):
        assert find_glider(state) == reference.find_glider(state)

    @given(two_clusters)
    def test_matches_across_a_gap(self, state):
        assert find_glider(state) == reference.find_glider(state)

    # Two isolated gliders, the lower one further left: the higher anchor
    # row wins whether they share a band, are cut apart by rows, or by
    # columns while sharing rows; in the last case a line beside the lower
    # glider makes its band start higher, so that band comes first.
    @pytest.mark.parametrize("anchor, extra, bands", [
        ((7, 4), (), 1),
        ((7, 5), (), 2),
        ((-5000, 1), (), 2),
        ((-5000, 5), tuple((-5004, y) for y in range(-2, 9)), 2),
    ], ids=["one-band", "row-cut", "column-cut", "column-cut-taller-first"])
    def test_tie_rule_across_bands(self, anchor, extra, bands):
        upper = placed(GLIDER_PHASES[0], 10, 0)
        lower = placed(GLIDER_PHASES[2], *anchor)
        state = CAState(upper | lower | frozenset(extra))
        assert len(state._bands) == bands
        assert min(lower)[0] < min(upper)[0]
        assert min(y for _, y in lower) > min(y for _, y in upper)
        assert find_glider(state) == reference.find_glider(state) == upper

    @pytest.mark.parametrize("offset", [(-7, -5), (3, 4)], ids=lambda o: "at(%d,%d)" % o)
    @pytest.mark.parametrize("phase", range(4), ids=lambda p: f"phase{p}")
    def test_lone_phase_halo_and_tie_rule(self, phase, offset):
        ox, oy = offset
        body = placed(GLIDER_PHASES[phase], ox, oy)
        cases = {body: body}
        halo = within(body, 1) - body
        assert len(halo) == 17
        cases.update((body | {cell}, None) for cell in halo)
        cases.update((body | {cell}, body) for cell in within(body, 2) - within(body, 1))
        # A glider of the next phase, 10 columns away: the higher anchor
        # row wins even with the larger x, and on one row the smaller x.
        other = GLIDER_PHASES[(phase + 1) % 4]
        cases[body | placed(other, ox - 10, oy + 1)] = body
        cases[body | placed(other, ox + 10, oy)] = body
        cases[body | placed(other, ox - 10, oy)] = placed(other, ox - 10, oy)
        for cells, expected in cases.items():
            assert find_glider(CAState(cells)) == expected
            assert reference.find_glider(CAState(cells)) == expected

    @settings(max_examples=300)
    @given(glider_crowds)
    def test_matches_on_glider_crowds(self, state):
        assert find_glider(state) == reference.find_glider(state)

    def test_crowds_reach_ties_and_rejections(self):
        """Such crowds include states with several isolated gliders, where
        the tie-break decides, and states where every glider touches
        another live cell."""
        several = none = 0
        rng = random.Random(3)
        for _ in range(300):
            state = crowd(rng)
            found = find_glider(state)
            assert found == reference.find_glider(state)
            if found is None:
                none += 1
            elif find_glider(CAState(state.live - found)) is not None:
                several += 1
        assert several and none


class TestSoup:
    @settings(max_examples=3, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_every_state_of_a_soup_run(self, seed):
        trace = run(soup(seed), 30)
        for before, after in zip(trace, trace.states[1:]):
            assert after == reference.life_step(before)
        for state in trace:
            assert find_glider(state) == reference.find_glider(state)

    def test_observer_detects_once_per_state(self, monkeypatch):
        detected = []
        fast = observe.find_glider
        monkeypatch.setattr(observe, "find_glider", lambda s: detected.append(s) or fast(s))
        trace = run(soup(7), 30)
        pairs = perceive_trace(glider_observer(), trace).pairs
        assert [id(s) for s in detected] == [id(s) for s in trace]
        for state, (ent, env) in zip(trace, pairs):
            body = reference.find_glider(state)
            assert ent == (ZERO if body is None else body)
            assert env == state.live - (body or frozenset())

    # Stepping a state lays out its bands, and the state keeps them, so
    # perceiving the trace lays out only the last state, which was never
    # stepped: one layout per state in all.
    def test_each_state_is_laid_out_once(self, monkeypatch):
        layouts = []
        layout = ca._layout
        monkeypatch.setattr(ca, "_layout", lambda *packed: layouts.append(packed) or layout(*packed))
        trace = run(soup(7, 40), 30)
        perceive_trace(glider_observer(), trace)
        assert len(layouts) == len(trace)


def replayed_episode(seed: int, trial: int, max_len: int) -> tuple[observe.ObservedEpisode,
                                                                  PerceptionSpace]:
    """Theorem trial `trial`'s episode and perception space, replayed
    from the trial's documented draw order with the stdlib draws:
    randint(1, 5) labels per alphabet, then the reference generators'
    episode, deterministic on even trials."""
    rng = substream(seed, trial)
    ents = ("A", "B", "C", "D", "E")[:rng.randint(1, 5)]
    envs = ("V", "W", "X", "Y", "Z")[:rng.randint(1, 5)]
    generate = (reference.random_deterministic_episode if trial % 2 == 0
                else reference.random_episode)
    ep = generate(rng, ents, envs, max_len)
    return ep, PerceptionSpace(frozenset({ZERO, *ents}), frozenset(envs))


def replayed_check(seed: int, trial: int, max_len: int) -> observe.PropositionCheck:
    """`check_proposition` on theorem trial `trial`'s replayed episode."""
    return check_proposition(*replayed_episode(seed, trial, max_len))


class TestEpisodeGenerators:
    @pytest.mark.parametrize("max_len", [1, 7, 200])
    @pytest.mark.parametrize("seed", [0, 1, DEFAULT_SEED])
    def test_theorem_trial_matches_a_stdlib_replay(self, seed, max_len):
        for trial in range(300):
            check = replayed_check(seed, trial, max_len)
            verdict = check.premises_hold, check.violation
            assert observe._random_trial(seed, trial, max_len) == verdict

    # Drawn seeds, trials of both parities and lifetimes up to 1000, whose
    # label runs span blocks of hundreds of words and their refills.
    @example(seed=DEFAULT_SEED, trial=0, max_len=1000)
    @example(seed=DEFAULT_SEED, trial=1, max_len=1000)
    @given(seed=st.integers(0, 2 ** 64 - 1), trial=st.integers(0, 10 ** 6),
           max_len=st.integers(1, 1000))
    def test_theorem_trial_matches_a_stdlib_replay_at_drawn_seeds(self, seed, trial, max_len):
        check = replayed_check(seed, trial, max_len)
        assert observe._random_trial(seed, trial, max_len) == (check.premises_hold,
                                                               check.violation)

    # At max_len 1 no episode exceeds its threshold, so no premise holds.
    @pytest.mark.parametrize("max_len", [1, 7, 200])
    def test_theorem_tallies_match_check_proposition(self, max_len):
        seed, trials = DEFAULT_SEED, 300
        checks = [replayed_check(seed, trial, max_len) for trial in range(trials)]
        _, premises, violations = observe._tally(
            (check.premises_hold, check.violation) for check in checks)
        report = observe.run_theorem_check(trials, seed, max_len)
        assert (report.randomized_trials, report.randomized_premise_cases) == (trials, premises)
        assert report.violations == violations == 0
        assert (premises == 0) == (max_len == 1)

    # Premise-first: every trial reads two O(1) premises, a terminated
    # trial over its threshold checks its environment's codes, and a trial
    # whose premises hold then checks its entity's codes for a
    # contradiction. Some terminated trials stay under their threshold, so
    # checking every terminated environment would show.
    def test_theorem_trials_scan_premise_first(self, monkeypatch):
        seed, trials, max_len = DEFAULT_SEED, 2000, 200
        checks = [replayed_check(seed, trial, max_len) for trial in range(trials)]
        over_threshold = sum(c.terminated and c.exceeds_threshold for c in checks)
        premises = sum(c.premises_hold for c in checks)
        assert sum(c.terminated for c in checks) > over_threshold > premises > 0
        # Each trial checks its environment first and its contradiction
        # second, on codes: the witness scan is out of reach.
        determines = observe._determines
        per_trial = Counter()
        monkeypatch.setattr(observe, "_first_divergence", None)
        monkeypatch.setattr(observe, "_determines", lambda pairs, successors:
                            per_trial.update((trial,)) or determines(pairs, successors))
        for trial in range(trials):
            observe._random_trial(seed, trial, max_len)
        assert max(per_trial.values()) == 2
        assert (len(per_trial), list(per_trial.values()).count(2)) == (over_threshold, premises)

    # A threshold every episode exceeds makes each terminated episode with
    # a deterministic environment and no contradiction a violation; the
    # test patches only its own process's rule, to drive the path that
    # real checks never reach.
    def test_theorem_violations_reach_the_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(observe, "contradiction_threshold", lambda space: -1)
        code = main(["theorem", "--trials", "200", "--max-len", "20"])
        out, err = capsys.readouterr()
        assert (code, err, out.splitlines()[-1]) == (1, "", "violations: 29")
        ents, envs = ("A",), ("X", "Y")
        space = PerceptionSpace(frozenset({ZERO, *ents}), frozenset(envs))
        exhaustive = sum(check_proposition(ep, space).violation
                         for ep in iter_terminated_episodes(ents, envs, 10))
        randomized = sum(replayed_check(DEFAULT_SEED, trial, 20).violation
                         for trial in range(200))
        assert (exhaustive, randomized) == (8, 21)
        report = observe.run_theorem_check(200, DEFAULT_SEED, 20)
        assert report.violations == exhaustive + randomized


class Recorded(random.Random):
    """A twin of `rng` that logs each `randrange` value, `randint`'s
    included, which CPython 3.10-3.13 draw through `randrange`, and keeps
    the stream state after the last."""

    def __init__(self, rng: random.Random):
        super().__init__()
        self.setstate(rng.getstate())
        self.drawn = []

    def randrange(self, *args):
        self.drawn.append(super().randrange(*args))
        self.state = self.getstate()
        return self.drawn[-1]


def recorded_draws(seed: int, trial: int, max_len: int) -> tuple[list, tuple, tuple | None]:
    """The values theorem trial `trial` draws through `randint` and
    `randrange`, in order, the stream state after the last, and the pair
    and successor codes of the environment it checks, or None if it
    checks none."""
    with pytest.MonkeyPatch.context() as patch:
        rngs, checked = [], []
        determines = observe._determines
        patch.setattr(observe, "substream",
                      lambda *path: rngs.append(Recorded(substream(*path))) or rngs[-1])
        patch.setattr(observe, "_determines", lambda pairs, successors:
                      checked.append((pairs, successors)) or determines(pairs, successors))
        observe._random_trial(seed, trial, max_len)
    (rng,) = rngs
    return rng.drawn, rng.state, checked[0] if checked else None


def replayed_draws(seed: int, trial: int, max_len: int) -> tuple[list, tuple, tuple | None]:
    """`recorded_draws` replayed with the stdlib draws: a, b, on even
    trials the table as `reference.random_deterministic_episode` draws
    it, one `choice(env)` per (entity, environment) pair, then the
    lifetime; the stream state after them; and the codes of the replayed
    episode's environment when it terminated over its threshold."""
    rng = substream(seed, trial)
    a, b = rng.randint(1, 5), rng.randint(1, 5)
    table = [rng.choice(range(b)) for _ in range(a * b)] if trial % 2 == 0 else []
    drawn = [a, b, *table, rng.randint(1, max_len)]
    ep, space = replayed_episode(seed, trial, max_len)
    check = check_proposition(ep, space)
    if not (check.terminated and check.exceeds_threshold):
        return drawn, rng.getstate(), None
    ents, envs = "ABCDE"[:a], "VWXYZ"[:b]
    codes = [envs.index(v) for v in ep.env_states + ep.next_pair_after_end[1:]]
    pairs = bytes(ents.index(e) * 5 + v for e, v in zip(ep.ent_states, codes))
    return drawn, rng.getstate(), (pairs, bytes(codes[1:]))


def trial_sizes(seed: int, trial: int) -> tuple[int, int]:
    rng = substream(seed, trial)
    return rng.randint(1, 5), rng.randint(1, 5)


class TestTransitionTable:
    # The even trials draw their table with `randrange(b)`, the reference
    # generator with `choice(env)`: both take the `_randbelow` rule of
    # `seeds`' module docstring, so the values, the stream state after
    # the lifetime and the environment the table drives must match.
    @pytest.mark.parametrize("b", range(1, 6))
    @pytest.mark.parametrize("a", range(1, 6))
    def test_equals_repeated_choice_on_alphabet_sizes(self, a, b):
        sized = (t for t in count(0, 2) if trial_sizes(DEFAULT_SEED, t) == (a, b))
        for trial in islice(sized, 8):
            assert recorded_draws(DEFAULT_SEED, trial, 200) == replayed_draws(DEFAULT_SEED,
                                                                              trial, 200)

    # Odd trials draw no table: their lifetime follows b.
    @example(seed=DEFAULT_SEED, trial=0, max_len=1)
    @example(seed=DEFAULT_SEED, trial=1, max_len=1000)
    @given(seed=st.integers(0, 2 ** 64 - 1), trial=st.integers(0, 10 ** 6),
           max_len=st.integers(1, 1000))
    def test_equals_repeated_choice_at_drawn_seeds(self, seed, trial, max_len):
        assert recorded_draws(seed, trial, max_len) == replayed_draws(seed, trial, max_len)


class TestCoop:
    # The hand replay's two payoff matrices in tests/test_coop.py, and one
    # whose takes pass 2**64, with a negative cn.
    @pytest.mark.parametrize("payoffs", [
        PayoffMatrix(), PayoffMatrix(cc=5, cn=-3, nc=2, nn=1),
        PayoffMatrix(cc=2 ** 70 + 3, cn=-(2 ** 65) - 7, nc=2 ** 66, nn=-(2 ** 64))],
        ids=["default", "custom", "huge"])
    @given(m=st.integers(1, 8), n=st.integers(1, 12), repetitions=st.integers(1, 3),
           p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32))
    # Rows of 255, 256 and 300 meetings, where the lanes widen past a
    # byte; 600 meetings with no flip, where a cooperator's count of
    # coop meetings against cooperators passes 255; and 256 and 257
    # players, at a block edge.
    @example(m=255, n=5, repetitions=2, p=0.05, seed=1)
    @example(m=256, n=5, repetitions=2, p=0.0, seed=2)
    @example(m=300, n=5, repetitions=2, p=1.0, seed=3)
    @example(m=600, n=6, repetitions=1, p=0.0, seed=2)
    @example(m=3, n=256, repetitions=2, p=0.3, seed=5)
    @example(m=3, n=257, repetitions=2, p=0.5, seed=6)
    def test_matches_the_meeting_walk(self, payoffs, m, n, repetitions, p, seed):
        config = CoopConfig(env_size=m, population=n, flip_probability=p,
                            repetitions=repetitions, seed=seed)
        # repr, because a stance no player used gives NaN means, and
        # NaN != NaN; float reprs round-trip, so this is still exact.
        assert (repr(run_coop_experiment(config, payoffs))
                == repr(reference.run_coop_experiment(config, payoffs)))


class TestVictoryTable:
    @settings(deadline=None)
    @given(st.integers(2, 12))
    @example(2)
    @example(3)
    @example(14)
    def test_matches_the_dp_per_word(self, n):
        assert victory_table(n) == [(str(s), victories_dp(s).wins) for s in all_strategies(n)]

    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_bruteforce(self, n):
        # Each deck is won by exactly one word, its pattern (pinned in
        # test_updown.py), so one pass over the n! decks counts every word.
        patterns = Counter(str(deck_pattern(d)) for d in permutations(range(1, n + 1)))
        words = [str(s) for s in all_strategies(n)]
        assert victory_table(n) == [(w, patterns[w]) for w in words]
