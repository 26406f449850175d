"""The package's fast paths against the original formulations kept in
reference.py.

Each fast path must return exactly what its oracle returns. `life_step`
and `find_glider`, both on the rows `ca.pack_rows` packs, must give the
same next state and the same detected glider (or None) on arbitrary
states, on crowds of gliders where the least-body tie-break and the halo
test decide, and on every state of a random soup; a table of lone
glider phases pins each halo cell and the tie rule. `render_pattern`,
also on packed rows, must write the same text as the render oracle that
looks up every viewport cell, for any viewport, and unpacking
`pack_rows` must give back its cells. The episode generators
built on `seeds.below` and `seeds.choices` must give the same episode
and leave the stream in the same state as their `rng.choice` versions.
The coop experiment drawn as flip lists must give the same report as
the one that walks every meeting. `victory_table`'s walk of the word
trie must give each word, by its text, the count `victories_dp` gives
it alone, and the count of decks whose pattern it is.
"""

import random
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from lifelens import observe
from lifelens.ca import CAState, life_step, pack_rows, parse_pattern, render_pattern, run
from lifelens.coop import CoopConfig, PayoffMatrix, run_coop_experiment
from lifelens.observe import (
    GLIDER_PHASES,
    ZERO,
    find_glider,
    glider_observer,
    perceive_trace,
    random_deterministic_episode,
    random_episode,
)
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


class TestLifeStep:
    @given(states)
    def test_matches_the_counter_step(self, state):
        assert life_step(state) == reference.life_step(state)

    @given(glider_crowds)
    def test_matches_on_glider_crowds(self, state):
        assert life_step(state) == reference.life_step(state)


class TestPackRows:
    @given(states, st.integers(0, 20))
    def test_unpacking_gives_back_the_cells(self, state, slack):
        base = min((x for x, _ in state.live), default=0) - slack
        rows = pack_rows(state.live, base)
        unpacked = {(base + i, y) for y, row in rows.items()
                    for i in range(row.bit_length()) if row >> i & 1}
        assert unpacked == state.live
        assert set(rows) == {y for _, y in state.live}


class TestRenderPattern:
    @given(states, viewports)
    @example(SPREAD, (0, -3, 0, 5))  # zero width
    @example(SPREAD, (-3, 0, 5, 0))  # zero height
    @example(SPREAD, (13, -15, 2, 20))  # no live cell inside
    @example(SPREAD, (-1, -2, 6, 4))  # cut on all four sides
    @example(SPREAD, (-1, -2, 3, 4))  # a live cell two columns right of it
    @example(SPREAD, None)  # the default viewport
    def test_matches_the_cell_lookup(self, state, viewport):
        assert render_pattern(state, viewport) == reference.render_pattern(state, viewport)


class TestFindGlider:
    @given(states)
    def test_matches_the_set_scan(self, state):
        assert find_glider(state) == reference.find_glider(state)

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


class TestEpisodeGenerators:
    @pytest.mark.parametrize("fast, slow", [
        (random_episode, reference.random_episode),
        (random_deterministic_episode, reference.random_deterministic_episode),
    ], ids=["arbitrary", "deterministic"])
    @given(seed=st.integers(0, 2 ** 64 - 1), ents=st.integers(1, 5), envs=st.integers(1, 5),
           max_len=st.sampled_from([1, 2, 4, 5]) | st.integers(1, 300))
    def test_matches_the_choice_version(self, fast, slow, seed, ents, envs, max_len):
        ent_labels, env_labels = "ABCDE"[:ents], "VWXYZ"[:envs]
        ours, theirs = random.Random(seed), random.Random(seed)
        assert (fast(ours, ent_labels, env_labels, max_len)
                == slow(theirs, ent_labels, env_labels, max_len))
        assert ours.getstate() == theirs.getstate()


class TestCoop:
    # The hand replay's two payoff matrices in tests/test_coop.py.
    @pytest.mark.parametrize("payoffs", [PayoffMatrix(), PayoffMatrix(cc=5, cn=-3, nc=2, nn=1)],
                             ids=["default", "custom"])
    @given(m=st.integers(1, 8), n=st.integers(1, 12), repetitions=st.integers(1, 3),
           p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32))
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
    def test_matches_the_dp_per_word(self, n):
        assert victory_table(n) == [(str(s), victories_dp(s).wins) for s in all_strategies(n)]

    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_bruteforce(self, n):
        # Each deck is won by exactly one word, its pattern (pinned in
        # test_updown.py), so one pass over the n! decks counts every word.
        patterns = Counter(str(deck_pattern(d)) for d in permutations(range(1, n + 1)))
        words = [str(s) for s in all_strategies(n)]
        assert victory_table(n) == [(w, patterns[w]) for w in words]
