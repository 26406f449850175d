"""Observer formalism tests.

Witness examples were derived by hand-walking the definitions (equal
perceived pairs followed by different labels) and then frozen. The
duality and theorem sweeps at scale live in test_acceptance.py; here the
same properties run on smaller randomized batches. The theorem's code
judge, `observe._judge`, is checked against `check_proposition` on every
episode of the CLI's exhaustive sweep, on hand-built episodes, and on
exhaustive sweeps at the first lifetime over the threshold whose two or
three entity labels the CLI's sweep never has.
"""

import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from reference import iter_terminated_episodes, random_deterministic_episode, random_episode
from lifelens import observe
from lifelens.ca import BLOCK, CAState, GLIDER, glider_block_scene, run
from lifelens.observe import (
    Observer,
    ObservedEpisode,
    PerceivedTrace,
    PerceptionSpace,
    Witness,
    ZERO,
    check_proposition,
    contradiction_threshold,
    dual_view,
    extract_entities,
    find_glider,
    format_perceived_trace,
    glider_observer,
    intelligence,
    is_contradictory,
    is_deterministic_env,
    perceive_trace,
    run_theorem_check,
)

ENTS = ("A", "B", "C")
ENVS = ("X", "Y")


def episode(ents, envs, next_pair=None, start=0):
    return ObservedEpisode(
        start=start,
        ent_states=tuple(ents),
        env_states=tuple(envs),
        next_pair_after_end=next_pair,
        terminated=next_pair is not None,
    )


# Hypothesis: arbitrary label sequences over small alphabets.
ent_labels = st.sampled_from(ENTS)
env_labels = st.sampled_from(ENVS)
perceived_traces = st.lists(
    st.tuples(st.one_of(st.just(ZERO), ent_labels), env_labels), max_size=14,
).map(lambda pairs: PerceivedTrace(tuple(pairs)))


def label_codes(ep, ent_labels, env_labels):
    """A terminated episode's label codes as `observe._judge` takes them:
    label number i of its alphabet is code i."""
    return (bytes(map(ent_labels.index, ep.ent_states)),
            bytes(map(env_labels.index, ep.env_states)),
            env_labels.index(ep.next_pair_after_end[1]))


def random_ep(rng):
    if rng.random() < 0.5:
        return random_episode(rng, ENTS, ENVS, 40)
    return random_deterministic_episode(rng, ENTS, ENVS, 40)


class TestSpaces:
    def test_threshold_counts_zero(self):
        space = PerceptionSpace(frozenset({ZERO, "A"}), frozenset({"X"}))
        assert contradiction_threshold(space) == 2

    def test_threshold_product(self):
        space = PerceptionSpace(frozenset({ZERO, "A", "B"}), frozenset({"X", "Y", "Z", "W"}))
        assert contradiction_threshold(space) == 12

    def test_space_requires_zero(self):
        with pytest.raises(ValueError):
            PerceptionSpace(frozenset({"A"}), frozenset({"X"}))

    def test_space_requires_env_labels(self):
        with pytest.raises(ValueError):
            PerceptionSpace(frozenset({ZERO}), frozenset())

    def test_trial_spaces_are_built_once_per_label_count(self):
        """A random trial over a entity and b environment codes reads
        `_SPACES[a - 1][b - 1]`: the space it would build inline."""
        assert len(observe._SPACES) == observe._LABELS
        for a, row in enumerate(observe._SPACES, 1):
            assert len(row) == observe._LABELS
            for b, space in enumerate(row, 1):
                assert space == PerceptionSpace(frozenset({ZERO, *range(a)}), frozenset(range(b)))
                assert contradiction_threshold(space) == (a + 1) * b


class TestPerceiveAndExtract:
    def test_constant_observer(self):
        obs = Observer(ps_ent=lambda s: "E", ps_env=lambda s: "V")
        pt = perceive_trace(obs, run(BLOCK, 4))
        assert pt.pairs == (("E", "V"),) * 5

    def test_all_zero_gives_no_episodes(self):
        pt = PerceivedTrace(((ZERO, "X"),) * 5)
        assert extract_entities(pt) == []

    def test_two_episodes_with_termination_flags(self):
        pt = PerceivedTrace((
            (ZERO, "X"), ("A", "X"), ("B", "Y"), (ZERO, "X"), ("C", "X"),
        ))
        eps = extract_entities(pt)
        assert len(eps) == 2
        first, second = eps
        assert first.start == 1
        assert first.ent_states == ("A", "B")
        assert first.env_states == ("X", "Y")
        assert first.terminated
        assert first.next_pair_after_end == (ZERO, "X")
        assert second.start == 4
        assert second.ent_states == ("C",)
        assert not second.terminated
        assert second.next_pair_after_end is None

    def test_intelligence_is_lifetime_minus_one(self):
        pt = PerceivedTrace((("A", "X"), ("A", "X"), ("A", "Y")))
        ep, = extract_entities(pt)
        assert intelligence(ep) == 2
        assert list(ep.lifetime) == [0, 1, 2]

    @given(perceived_traces)
    def test_extraction_reconstructs_the_trace(self, pt):
        eps = extract_entities(pt)
        covered = set()
        for ep in eps:
            for offset, t in enumerate(ep.lifetime):
                assert pt.pairs[t] == (ep.ent_states[offset], ep.env_states[offset])
                covered.add(t)
            if ep.terminated:
                end = ep.start + len(ep.ent_states)
                assert pt.pairs[end] == ep.next_pair_after_end
                assert pt.pairs[end][0] is ZERO
            else:
                assert ep.start + len(ep.ent_states) == len(pt.pairs)
        # Maximality: everything not covered by an episode perceives ZERO.
        for t, (ent, _) in enumerate(pt.pairs):
            assert (t in covered) == (ent is not ZERO)

    @given(perceived_traces)
    def test_episodes_are_ordered_and_disjoint(self, pt):
        eps = extract_entities(pt)
        previous_end = -1
        for ep in eps:
            assert ep.start > previous_end
            previous_end = ep.start + ep.q


class TestEpisodeValidation:
    def test_rejects_zero_inside_lifetime(self):
        with pytest.raises(ValueError):
            episode(("A", ZERO), ("X", "X"))

    def test_rejects_termination_without_next_pair(self):
        with pytest.raises(ValueError):
            ObservedEpisode(0, ("A",), ("X",), None, True)

    def test_rejects_an_empty_episode(self):
        with pytest.raises(ValueError, match="^an episode spans at least one time step$"):
            ObservedEpisode(0, (), (), None, False)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            episode(("A", "B"), ("X",))

    def test_witness_orders_indexes(self):
        with pytest.raises(ValueError):
            Witness(2, 2)


class TestContradiction:
    def test_textbook_witness(self):
        ep = episode(("A", "B", "A", "C"), ("X", "X", "X", "X"))
        assert is_contradictory(ep) == Witness(0, 2)

    def test_distinct_pairs_cannot_contradict(self):
        ep = episode(("A", "B", "C"), ("X", "X", "X"))
        assert is_contradictory(ep) is None

    def test_death_counts_as_behavior(self):
        # Terminated: the B at index 3 is followed by ZERO, the B at
        # index 1 by A. Same perceived pair, different next entity.
        ep = episode(("A", "B", "A", "B"), ("X", "X", "X", "X"), next_pair=(ZERO, "X"))
        assert is_contradictory(ep) == Witness(1, 3)

    def test_open_end_joins_no_comparison(self):
        # Unterminated: the final A's successor is unknown, so the repeat
        # of (A, X) proves nothing.
        ep = episode(("A", "B", "A"), ("X", "X", "X"))
        assert is_contradictory(ep) is None

    def test_periodic_terminated_episode_is_contradictory(self):
        ep = episode(("A",) * 6, ("X",) * 6, next_pair=(ZERO, "X"))
        witness = is_contradictory(ep)
        assert witness is not None
        assert witness.b == 5  # only the death step breaks the period

    def test_witness_replays_correctly_randomized(self):
        rng = random.Random(90125)
        checked = 0
        for _ in range(3000):
            ep = random_ep(rng)
            witness = is_contradictory(ep)
            if witness is None:
                continue
            checked += 1
            a, b = witness.a, witness.b
            assert (ep.ent_states[a], ep.env_states[a]) == (ep.ent_states[b], ep.env_states[b])
            next_of = lambda i: (ep.ent_states[i + 1] if i < ep.q
                                 else ep.next_pair_after_end[0])
            assert next_of(a) != next_of(b)
        assert checked > 500


class TestEnvironmentDeterminism:
    def test_constant_environment_is_deterministic(self):
        ep = episode(("A", "B", "A", "B"), ("X", "X", "X", "X"), next_pair=(ZERO, "X"))
        assert is_deterministic_env(ep) is None

    def test_diverging_environment_is_caught(self):
        ep = episode(("A", "A", "A"), ("X", "X", "Y"))
        # (A, X) at 0 is followed by X; (A, X) at 1 is followed by Y.
        assert is_deterministic_env(ep) == Witness(0, 1)

    def test_transition_map_construction_is_deterministic(self):
        rng = random.Random(5150)
        for _ in range(300):
            ep = random_deterministic_episode(rng, ENTS, ENVS, 60)
            assert is_deterministic_env(ep) is None

    def test_violation_witness_replays_correctly(self):
        rng = random.Random(5151)
        checked = 0
        for _ in range(2000):
            ep = random_episode(rng, ENTS, ENVS, 40)
            witness = is_deterministic_env(ep)
            if witness is None:
                continue
            checked += 1
            a, b = witness.a, witness.b
            assert (ep.ent_states[a], ep.env_states[a]) == (ep.ent_states[b], ep.env_states[b])
            next_of = lambda i: (ep.env_states[i + 1] if i < ep.q
                                 else ep.next_pair_after_end[1])
            assert next_of(a) != next_of(b)
        assert checked > 500


class TestProposition:
    SPACE = PerceptionSpace(frozenset({ZERO, "A"}), frozenset({"X", "Y"}))

    def test_premises_and_conclusion_reported(self):
        ep = episode(("A",) * 6, ("X",) * 6, next_pair=(ZERO, "X"))
        verdict = check_proposition(ep, self.SPACE)
        assert verdict.terminated
        assert verdict.env_deterministic
        assert verdict.intelligence == 5
        assert verdict.threshold == 4
        assert verdict.exceeds_threshold
        assert verdict.premises_hold
        assert verdict.contradictory
        assert not verdict.violation

    # The record carries both witnesses even when a premise fails: the
    # entity's last step (to ZERO) differs from its first.
    def test_short_episode_leaves_premises_unmet(self):
        ep = episode(("A", "A"), ("X", "X"), next_pair=(ZERO, "X"))
        verdict = check_proposition(ep, self.SPACE)
        assert not verdict.exceeds_threshold
        assert not verdict.premises_hold
        assert not verdict.violation
        assert verdict.contradiction_witness == Witness(0, 1)
        assert verdict.contradictory

    @pytest.mark.parametrize("ents, envs, env_witness", [
        (("A",) * 8, ("X",) * 8, None),
        (("A", "A", "A"), ("X", "X", "Y"), Witness(0, 1)),
    ], ids=["deterministic-env", "nondeterministic-env"])
    def test_unterminated_episode_leaves_premises_unmet(self, ents, envs, env_witness):
        verdict = check_proposition(episode(ents, envs), self.SPACE)
        assert not verdict.terminated
        assert not verdict.premises_hold
        assert verdict.env_witness == env_witness
        assert verdict.env_deterministic == (env_witness is None)

    # `lifelens theorem`'s sweep judges exactly the 4,092 terminated
    # episodes that reference.py enumerates (lifetimes to 10), on their
    # codes, and the judge gives `check_proposition`'s verdict on each.
    def test_exhaustive_small_alphabet_has_no_violation(self, monkeypatch):
        episodes = list(iter_terminated_episodes(("A",), ("X", "Y"), max_len=10))
        threshold = contradiction_threshold(self.SPACE)
        judged = []
        judge = observe._judge
        monkeypatch.setattr(observe, "_judge", lambda *args: judged.append(args) or judge(*args))
        report = run_theorem_check(trials=0, seed=1)
        codes = [label_codes(ep, "A", "XY") for ep in episodes]
        assert Counter(judged) == Counter((*c, threshold) for c in codes)
        premise_cases = 0
        for ep, c in zip(episodes, codes):
            check = check_proposition(ep, self.SPACE)
            assert judge(*c, threshold) == (check.premises_hold, check.violation)
            premise_cases += check.premises_hold
            assert not check.violation
        assert (len(episodes), premise_cases) == (4092, 30)
        assert (report.exhaustive_episodes, report.exhaustive_premise_cases) == (4092, 30)

    # Threshold 6 is that of {0, A, B} x {X, Y}; -1 is below every real
    # threshold, so only there do the premises hold with no contradiction.
    # `checks` counts the judge's `_determines` calls: it stops at the
    # first premise that fails.
    @pytest.mark.parametrize("ents, envs, after, threshold, verdict, checks", [
        ("AAAAAAA", "XXXXXXX", "X", 6, (False, False), 0),
        ("AAAAAAAA", "XXYXXXXX", "X", 6, (False, False), 1),
        ("AAAAAAAA", "XXXXXXXX", "Y", 6, (False, False), 1),
        ("AAAAAAAA", "XXXXXXXX", "X", 6, (True, False), 2),
        ("ABAABABB", "XXXXXXXX", "X", 6, (True, False), 2),
        ("A", "X", "Y", -1, (True, True), 2),
        ("AB", "XX", "X", -1, (True, True), 2),
    ], ids=["under-threshold", "nondeterministic-env", "env-after-the-end",
            "death-contradiction", "behavioral-contradiction", "one-moment", "distinct-pairs"])
    def test_judge_matches_the_oracle_premise_by_premise(self, monkeypatch, ents, envs, after,
                                                         threshold, verdict, checks):
        ep = episode(ents, envs, next_pair=(ZERO, after))
        determines, calls = observe._determines, []
        monkeypatch.setattr(observe, "_determines", lambda pairs, successors:
                            calls.append(pairs) or determines(pairs, successors))
        assert observe._judge(*label_codes(ep, "AB", "XY"), threshold) == verdict
        assert len(calls) == checks
        monkeypatch.setattr(observe, "contradiction_threshold", lambda space: threshold)
        check = check_proposition(ep, self.SPACE)
        assert (check.premises_hold, check.violation) == verdict

    # Sweeps the CLI's one-entity-label sweep never reaches: every
    # terminated episode at the first lifetime over the threshold, where
    # two or more entity labels allow a contradiction before the death
    # step. The judge is checked against `check_proposition` on every
    # episode of the first two sweeps and a seeded sample of the third.
    @pytest.mark.parametrize("a, b, length, episodes, premise_cases, sample", [
        (2, 1, 5, 32, 32, None),
        (3, 1, 6, 729, 729, None),
        (2, 2, 8, 131_072, 5_244, 3000),
    ], ids=["2x1-lifetime-5", "3x1-lifetime-6", "2x2-lifetime-8"])
    def test_first_lifetime_over_the_threshold_has_no_violation(self, a, b, length, episodes,
                                                                premise_cases, sample):
        ent_labels, env_labels = "ABC"[:a], "XY"[:b]
        space = PerceptionSpace(frozenset({ZERO, *ent_labels}), frozenset(env_labels))
        threshold = contradiction_threshold(space)
        assert length - 2 == threshold
        codes = list(itertools.product(itertools.product(range(a), repeat=length),
                                       itertools.product(range(b), repeat=length), range(b)))
        verdicts = [observe._judge(bytes(ents), bytes(envs), env, threshold)
                    for ents, envs, env in codes]
        assert len(verdicts) == episodes
        assert sum(premises for premises, _ in verdicts) == premise_cases
        assert not any(violation for _, violation in verdicts)
        indexes = (range(episodes) if sample is None
                   else random.Random(8).sample(range(episodes), sample))
        checked_premises = 0
        for i in indexes:
            ents, envs, env = codes[i]
            ep = episode([ent_labels[e] for e in ents], [env_labels[v] for v in envs],
                         next_pair=(ZERO, env_labels[env]))
            check = check_proposition(ep, space)
            assert verdicts[i] == (check.premises_hold, check.violation)
            checked_premises += check.premises_hold
        assert checked_premises > 0


class TestEpisodeGenerators:
    # The reference generators that draw this file's random episodes: each
    # checks its arguments before any draw.
    GENERATORS = {
        "random_episode": random_episode,
        "random_deterministic_episode": random_deterministic_episode,
    }
    BAD_ARGS = [
        ("max-len-0", ENTS, ENVS, 0, "max_len must be at least 1, got 0"),
        ("max-len-negative", ENTS, ENVS, -1, "max_len must be at least 1, got -1"),
        ("no-entity-labels", (), ENVS, 5, "both label alphabets must be nonempty"),
        ("no-environment-labels", ENTS, (), 5, "both label alphabets must be nonempty"),
        ("zero-entity-label", ("A", ZERO), ENVS, 5, "ent_labels must not include ZERO"),
    ]

    @pytest.mark.parametrize("generator", GENERATORS.values(), ids=GENERATORS.keys())
    @pytest.mark.parametrize("ents, envs, max_len, message",
                             [row[1:] for row in BAD_ARGS], ids=[row[0] for row in BAD_ARGS])
    def test_rejects_bad_arguments_before_drawing(self, generator, ents, envs, max_len,
                                                  message):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generator(rng, ents, envs, max_len)
        assert rng.getstate() == state


class TestTheoremCheck:
    @pytest.mark.parametrize("trials, max_len, message", [
        (-1, 200, "trials must be non-negative, got -1"),
        (0, 0, "max_len must be at least 1, got 0"),
        (2, 0, "max_len must be at least 1, got 0"),
        (0, -1, "max_len must be at least 1, got -1"),
    ], ids=["-1-200", "0-0", "2-0", "0--1"])
    def test_rejects_bad_arguments(self, trials, max_len, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_theorem_check(trials=trials, seed=1, max_len=max_len)


class TestDualView:
    def test_swaps_sequences_and_next_pair(self):
        ep = episode(("A", "B"), ("X", "Y"), next_pair=(ZERO, "X"))
        dual = dual_view(ep)
        assert dual.ent_states == ("X", "Y")
        assert dual.env_states == ("A", "B")
        assert dual.next_pair_after_end == ("X", ZERO)
        assert dual.terminated

    def test_involution(self):
        rng = random.Random(2112)
        for _ in range(500):
            ep = random_ep(rng)
            assert dual_view(dual_view(ep)) == ep

    def test_rejects_zero_env_labels(self):
        with pytest.raises(ValueError):
            dual_view(episode(("A",), (ZERO,)))

    def test_deterministic_env_iff_dual_noncontradictory(self):
        rng = random.Random(1984)
        both_kinds = set()
        for _ in range(2000):
            ep = random_ep(rng)
            env_witness = is_deterministic_env(ep)
            dual_witness = is_contradictory(dual_view(ep))
            assert env_witness == dual_witness
            both_kinds.add(env_witness is None)
        assert both_kinds == {True, False}

    def test_contradiction_iff_dual_env_nondeterministic(self):
        rng = random.Random(1985)
        for _ in range(1000):
            ep = random_ep(rng)
            assert is_contradictory(ep) == is_deterministic_env(dual_view(ep))


class TestGliderObserver:
    def test_lone_glider_is_its_own_body(self):
        assert find_glider(GLIDER) == GLIDER.live

    def test_all_phases_detected_anywhere(self):
        state = GLIDER
        for _ in range(4):
            shifted = CAState(frozenset((x - 13, y + 41) for x, y in state.live))
            assert find_glider(shifted) == shifted.live
            state = run(state, 1)[1]

    def test_block_is_not_a_glider(self):
        assert find_glider(BLOCK) is None

    def test_adjacent_junk_blocks_detection(self):
        # A live cell inside the glider's 1-neighborhood spoils it.
        spoiled = CAState(GLIDER.live | {(3, 0)})
        assert find_glider(spoiled) is None

    def test_distant_junk_does_not_block_detection(self):
        state = CAState(GLIDER.live | {(8, 0)})
        assert find_glider(state) == GLIDER.live

    def test_two_gliders_pick_the_least_body(self):
        far = CAState(frozenset((x + 20, y + 20) for x, y in GLIDER.live))
        both = CAState(GLIDER.live | far.live)
        assert find_glider(both) == GLIDER.live

    def test_observer_labels(self):
        obs = glider_observer()
        scene = glider_block_scene()
        block_cells = frozenset({(7, 7), (8, 7), (7, 8), (8, 8)})
        assert obs.ps_ent(scene) == GLIDER.live
        assert obs.ps_env(scene) == block_cells
        assert obs.ps_ent(BLOCK) is ZERO
        assert obs.ps_env(BLOCK) == BLOCK.live
        assert obs.space is None

    def test_scene_episode_lifetime(self):
        trace = run(glider_block_scene(), 19)
        pt = perceive_trace(glider_observer(), trace)
        for t in range(15):
            assert pt.pairs[t][0] is not ZERO
        for t in range(15, 20):
            assert pt.pairs[t][0] is ZERO
        ep, = extract_entities(pt)
        assert list(ep.lifetime) == list(range(15))
        assert intelligence(ep) == 14
        assert ep.terminated


class TestSerialization:
    def test_format_lines(self):
        pt = PerceivedTrace((
            (ZERO, frozenset()),
            (frozenset({(2, 1), (1, 0)}), frozenset({(5, 5)})),
        ))
        text = format_perceived_trace(pt)
        assert text.splitlines() == [
            "0 0 {}",
            "1 1:0;2:1 5:5",
        ]

    def test_plain_labels_use_str(self):
        pt = PerceivedTrace((("A", "X"),))
        assert format_perceived_trace(pt) == "0 A X"
