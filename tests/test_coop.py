"""Cooperation-game tests.

The replay test below re-executes the documented draw order with its own
code to predict a full repetition, which pins both the stream layout and
the payoff bookkeeping. `TestDrawRepetition` pins coop's word reader,
which reads the stances and flip flags as 0/1 bytes from blocks of raw
generator words, against the `rng.random()` loop it replaces, values
and stream state alike, so a CPython that changes the `random()` or the
word-order rule of `seeds`' module docstring fails here by name.
Statistical checks at publication scale live in test_acceptance.py.
"""

import math
import random

import pytest

from lifelens import coop
from lifelens.cli import main
from lifelens.coop import (
    CoopConfig,
    IndividualRecord,
    PayoffMatrix,
    Stance,
    _draw_repetition,
    flip_probability_for_even_odds,
    meeting_payoff,
    run_coop_experiment,
)
from lifelens.seeds import substream


class TestPayoffs:
    def test_table(self):
        C, N = Stance.COOP, Stance.NONCOOP
        assert meeting_payoff(C, C) == (2, 2)
        assert meeting_payoff(C, N) == (-1, 1)
        assert meeting_payoff(N, C) == (1, -1)
        assert meeting_payoff(N, N) == (0, 0)

    def test_symmetry(self):
        payoffs = PayoffMatrix(cc=5, cn=-3, nc=2, nn=1)
        for a in Stance:
            for b in Stance:
                pa, pb = meeting_payoff(a, b, payoffs)
                qb, qa = meeting_payoff(b, a, payoffs)
                assert (pa, pb) == (qa, qb)

    def test_table_by_value(self):
        # Distinct cn and nc, so a swapped pair shows here and not only in
        # test_symmetry.
        C, N = Stance.COOP, Stance.NONCOOP
        payoffs = PayoffMatrix(cc=5, cn=-3, nc=2, nn=1)
        assert meeting_payoff(C, C, payoffs) == (5, 5)
        assert meeting_payoff(C, N, payoffs) == (-3, 2)
        assert meeting_payoff(N, C, payoffs) == (2, -3)
        assert meeting_payoff(N, N, payoffs) == (1, 1)

    @pytest.mark.parametrize("a, b", [("C", Stance.COOP), (Stance.NONCOOP, True),
                                      (None, Stance.COOP), (1, 0)],
                             ids=["value-string", "bool", "none", "ints"])
    def test_rejects_a_non_stance(self, a, b):
        with pytest.raises(ValueError):
            meeting_payoff(a, b)

    def test_stance_str(self):
        assert str(Stance.COOP) == "C"
        assert str(Stance.NONCOOP) == "N"


class TestFlipProbability:
    def test_single_meeting_is_a_coin_toss(self):
        assert flip_probability_for_even_odds(1) == 0.5

    def test_two_meetings(self):
        assert flip_probability_for_even_odds(2) == pytest.approx(1 - 1 / math.sqrt(2))

    def test_even_odds_identity(self):
        for m in range(1, 51):
            p = flip_probability_for_even_odds(m)
            assert (1 - p) ** m == pytest.approx(0.5, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            flip_probability_for_even_odds(0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoopConfig(population=0)
        with pytest.raises(ValueError):
            CoopConfig(env_size=0)
        with pytest.raises(ValueError):
            CoopConfig(repetitions=0)
        with pytest.raises(ValueError):
            CoopConfig(flip_probability=1.5)
        message = r"^env_size must be below 2\*\*64, got 18446744073709551616$"
        with pytest.raises(ValueError, match=message):
            CoopConfig(env_size=2 ** 64)

    def test_resolution(self):
        assert CoopConfig(flip_probability=0.25).resolved_flip_probability() == 0.25
        config = CoopConfig(env_size=4, flip_probability=None)
        assert config.resolved_flip_probability() == flip_probability_for_even_odds(4)

    def test_env_size_is_bounded_before_any_draw(self, monkeypatch):
        # A stance lane is at most 8 bytes wide, so env_size stays below
        # 2**64; the check comes before the first repetition's stream.
        def substream(*key):
            pytest.fail("a stream was drawn before env_size was checked")
        monkeypatch.setattr(coop, "substream", substream)
        message = r"^env_size must be below 2\*\*64, got 18446744073709551616$"
        with pytest.raises(ValueError, match=message):
            run_coop_experiment(CoopConfig(env_size=2 ** 64, population=1, repetitions=1))

    def test_record_flag_is_validated(self):
        with pytest.raises(ValueError):
            IndividualRecord(
                initial_stance=Stance.COOP,
                stance_history=(Stance.COOP, Stance.NONCOOP),
                total_payoff=1,
                contradictory=False,
            )


class TestDegenerateRates:
    def test_never_flipping_means_no_contradictions(self):
        report = run_coop_experiment(
            CoopConfig(env_size=5, population=40, flip_probability=0.0,
                       repetitions=10, seed=7))
        assert report.contradictory_winner_pct == 0.0
        assert report.noncontradictory_fraction == 1.0
        for rep in report.repetitions:
            winner = rep.winner
            assert all(s == winner.initial_stance for s in winner.stance_history)
            assert not winner.contradictory

    def test_always_flipping_means_all_contradictory(self):
        report = run_coop_experiment(
            CoopConfig(env_size=5, population=40, flip_probability=1.0,
                       repetitions=10, seed=7))
        assert report.contradictory_winner_pct == 100.0
        assert report.noncontradictory_fraction == 0.0
        for rep in report.repetitions:
            history = rep.winner.stance_history
            # Flipping before every meeting alternates the stance.
            assert all(history[i] != history[i + 1] for i in range(len(history) - 1))
            assert history[0] != rep.winner.initial_stance


    def test_a_run_without_a_coop_meeting_has_a_nan_coop_mean(self, capsys):
        # At seed 2 the lone player starts NONCOOP and never flips, so no
        # meeting is a coop one: its mean is NaN, not 0.0, here and in
        # the CLI's summary line.
        report = run_coop_experiment(
            CoopConfig(env_size=1, population=1, flip_probability=0.0,
                       repetitions=1, seed=2))
        (rep,) = report.repetitions
        assert math.isnan(report.mean_payoff_coop)
        assert math.isnan(rep.mean_payoff_coop)
        assert report.mean_payoff_noncoop == rep.mean_payoff_noncoop == 1.0
        code = main("coop --env-size 1 --population 1 --flip-probability 0 --reps 1 --seed 2".split())
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert out.endswith("mean meeting payoff: coop nan, noncoop 1.0000\n")


class TestExperimentShape:
    REPORT = run_coop_experiment(
        CoopConfig(env_size=6, population=30, flip_probability=0.3,
                   repetitions=12, seed=123))

    def test_repetition_indexes_and_counts(self):
        assert [rep.index for rep in self.REPORT.repetitions] == list(range(12))
        for rep in self.REPORT.repetitions:
            assert 0 <= rep.env_coop_count <= 6
            assert 0 <= rep.winner_index < 30
            assert len(rep.winner.stance_history) == 6
            assert 0.0 <= rep.noncontradictory_fraction <= 1.0

    def test_winner_attains_the_maximum(self):
        for rep in self.REPORT.repetitions:
            assert rep.winner.total_payoff == rep.max_payoff
            assert rep.min_payoff <= rep.max_payoff

    def test_payoff_bounds(self):
        # Six meetings at defaults: each meeting pays within [-1, 2].
        for rep in self.REPORT.repetitions:
            assert -6 <= rep.min_payoff
            assert rep.max_payoff <= 12

    def test_aggregate_consistency(self):
        pct = 100.0 * sum(r.winner.contradictory for r in self.REPORT.repetitions) / 12
        assert self.REPORT.contradictory_winner_pct == pct
        mean_frac = sum(r.noncontradictory_fraction for r in self.REPORT.repetitions) / 12
        assert self.REPORT.noncontradictory_fraction == pytest.approx(mean_frac)

    def test_per_repetition_payoff_means_are_bounded(self):
        # At default payoffs a cooperator banks -1 or 2 per meeting, a
        # non-cooperator 0 or 1.
        for rep in self.REPORT.repetitions:
            assert -1.0 <= rep.mean_payoff_coop <= 2.0
            assert 0.0 <= rep.mean_payoff_noncoop <= 1.0

    def test_reports_are_reproducible(self):
        config = CoopConfig(env_size=6, population=30, flip_probability=0.3,
                            repetitions=12, seed=123)
        assert run_coop_experiment(config) == self.REPORT

    def test_seed_changes_the_draws(self):
        other = run_coop_experiment(
            CoopConfig(env_size=6, population=30, flip_probability=0.3,
                       repetitions=12, seed=124))
        ours = [rep.env_coop_count for rep in self.REPORT.repetitions]
        theirs = [rep.env_coop_count for rep in other.repetitions]
        assert ours != theirs


class TestReplay:
    @pytest.mark.parametrize("payoffs", [PayoffMatrix(), PayoffMatrix(cc=5, cn=-3, nc=2, nn=1)],
                             ids=["default", "custom"])
    def test_single_repetition_replayed_by_hand(self, payoffs):
        """Re-derive repetition 0 from the documented draw order."""
        m, n, p, seed = 4, 8, 0.3, 99
        rng = substream(seed, 0)
        env = tuple(rng.random() < 0.5 for _ in range(m))
        initial = tuple(rng.random() < 0.5 for _ in range(n))
        totals = []
        histories = []
        for i in range(n):
            stance = initial[i]
            total = 0
            history = []
            for opponent in env:
                if rng.random() < p:
                    stance = not stance
                history.append(stance)
                if stance:
                    total += payoffs.cc if opponent else payoffs.cn
                else:
                    total += payoffs.nc if opponent else payoffs.nn
            totals.append(total)
            histories.append(tuple(history))

        expected_winner = max(range(n), key=lambda i: (totals[i], -i))
        report = run_coop_experiment(
            CoopConfig(env_size=m, population=n, flip_probability=p,
                       repetitions=1, seed=seed), payoffs)
        rep = report.repetitions[0]
        assert rep.env_coop_count == sum(env)
        assert rep.winner_index == expected_winner
        assert rep.winner.total_payoff == totals[expected_winner]
        assert rep.min_payoff == min(totals)
        assert rep.max_payoff == max(totals)
        want_history = tuple(
            Stance.COOP if s else Stance.NONCOOP for s in histories[expected_winner])
        assert rep.winner.stance_history == want_history
        expected_noncontra = sum(
            all(s == initial[i] for s in histories[i]) for i in range(n))
        assert rep.noncontradictory_fraction == expected_noncontra / n

        coop_sum = coop_n = non_sum = non_n = 0
        for i in range(n):
            for opponent, stance in zip(env, histories[i]):
                if stance:
                    coop_sum += payoffs.cc if opponent else payoffs.cn
                    coop_n += 1
                else:
                    non_sum += payoffs.nc if opponent else payoffs.nn
                    non_n += 1
        assert rep.mean_payoff_coop == coop_sum / coop_n
        assert rep.mean_payoff_noncoop == non_sum / non_n


def stdlib_draws(rng, m, n, p):
    """The documented draws of one repetition, one `rng.random()` each."""
    rand = rng.random
    env = tuple(rand() < 0.5 for _ in range(m))
    initial = tuple(rand() < 0.5 for _ in range(n))
    flips = [[j for j in range(m) if rand() < p] for _ in range(n)]
    return env, initial, flips


# p = c/256 puts ceil(p * 2**53) - 1 just below a multiple of 2**45, so
# the flip test's top-byte cut falls on c - 1 or c; each float neighbour
# moves it to one side.
BYTE_EDGES = sorted({q for c in range(257) for q in (
    math.nextafter(c / 256, 0.0), c / 256, math.nextafter(c / 256, 1.0)) if 0.0 <= q <= 1.0})
EXTREMES = [0.0, 1.0, 2.0 ** -53, 1.0 - 2.0 ** -53, 5e-324]


class TestDrawRepetition:
    """`_draw_repetition` against `stdlib_draws`: the same values, as
    0/1 bytes with the flags player-major, and the same next `random()`
    after them."""

    def check(self, m, n, p, key=None):
        key = key or f"{m}:{n}:{p!r}"
        ours, theirs = random.Random(key), random.Random(key)
        env, initial, flips = stdlib_draws(theirs, m, n, p)
        # The loop's draws as 0/1 bytes, the flags player-major.
        flags = bytes(j in player_flips for player_flips in flips for j in range(m))
        assert _draw_repetition(ours, m, n, p) == (bytes(env), bytes(initial), flags), key
        assert ours.random() == theirs.random(), key

    @pytest.mark.parametrize("m", [1, 20])
    def test_top_byte_edges_and_extremes(self, m):
        # 257 players cross a block edge, and at m = 20 each p sees
        # about 20 draws whose top byte is the cut itself.
        for p in EXTREMES + BYTE_EDGES:
            self.check(m, 257, p)

    @pytest.mark.parametrize("m", [1, 20])
    def test_p_at_a_drawn_value(self, m):
        # With p at a flip draw's own value, or a float next to it, that
        # draw's verdict rests on all 53 bits of the value, the low ones
        # from the draw's second word included.
        n = 257
        key = f"{m}:{n}:drawn"
        rng = random.Random(key)
        values = [rng.random() for _ in range(m + n + m * n)]
        for u in values[m + n::97]:
            for p in (math.nextafter(u, 0.0), u, math.nextafter(u, 1.0)):
                self.check(m, n, p, key)

    @pytest.mark.parametrize("m", [1, 20])
    @pytest.mark.parametrize("n", [1, 255, 256, 257])
    def test_block_edges(self, n, m):
        for p in EXTREMES + [0.5, math.nextafter(0.5, 0.0), flip_probability_for_even_odds(m)]:
            self.check(m, n, p)


class TestStatisticalSanity:
    def test_single_meeting_even_odds(self):
        # m = 1, p = 1/2: each player is contradictory with probability
        # exactly 1/2; 3-sigma band around the mean over 20 * 500 players.
        report = run_coop_experiment(
            CoopConfig(env_size=1, population=500, flip_probability=None,
                       repetitions=20, seed=4242))
        assert report.flip_probability == 0.5
        draws = 20 * 500
        sigma = math.sqrt(0.25 / draws)
        assert abs(report.noncontradictory_fraction - 0.5) < 3 * sigma
