"""Market game tests.

The capital numbers below are hand-walked: start with 10000 cash and 10
shares, apply each day's trade at that day's price, value at the final
price. The replay tests re-execute the documented draw order through the
`Portfolio` path to pin the stream layout and the experiment's int
kernel; the A-versus-B rate bounds live in test_acceptance.py.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from lifelens import market
from lifelens.market import (
    ConsistentPolicy,
    DAYS_PER_WEEK,
    FreePolicy,
    MarketTest,
    Portfolio,
    PRICES,
    PriceDynamics,
    START_CASH,
    START_SHARES,
    _run_week,
    _still_clamps,
    run_market_experiment,
    sample_consistent_policy,
    sample_dynamics,
    simulate_week,
)
from lifelens.seeds import substream

CONSTANT = {p: PriceDynamics(initial_price=p, targets=(p, p, p)) for p in PRICES}


class TestPriceDynamics:
    def test_path_follows_the_map(self):
        dyn = PriceDynamics(initial_price=900, targets=(1000, 1100, 900))
        assert dyn.path(7) == (900, 1000, 1100, 900, 1000, 1100, 900)
        assert dyn.path(1) == (900,)

    def test_next_price(self):
        dyn = PriceDynamics(initial_price=1100, targets=(900, 900, 1000))
        assert dyn.next_price(900) == 900
        assert dyn.next_price(1000) == 900
        assert dyn.next_price(1100) == 1000

    def test_digits(self):
        assert PriceDynamics(900, (900, 1000, 1100)).digits == "012"
        assert PriceDynamics(900, (1100, 1100, 1100)).digits == "222"

    def test_validation(self):
        with pytest.raises(ValueError):
            PriceDynamics(initial_price=950, targets=(900, 900, 900))
        with pytest.raises(ValueError):
            PriceDynamics(initial_price=900, targets=(900, 901, 900))
        for days in (0, -3):
            with pytest.raises(ValueError, match=f"at least one day, got {days}"):
                CONSTANT[900].path(days)

    def test_sampling_covers_all_maps(self):
        rng = random.Random(11)
        seen_digits = set()
        seen_initial = set()
        for _ in range(2000):
            dyn = sample_dynamics(rng)
            seen_digits.add(dyn.digits)
            seen_initial.add(dyn.initial_price)
        assert len(seen_digits) == 27
        assert seen_initial == set(PRICES)


class TestPortfolio:
    def test_value_and_max_buy(self):
        p = Portfolio(cash=10000, shares=10)
        assert p.value(1100) == 21000
        assert p.max_buy(900) == 11
        assert p.max_buy(1000) == 10
        assert p.max_buy(1100) == 9

    def test_execute(self):
        p = Portfolio(cash=10000, shares=10).execute(3, 900)
        assert (p.cash, p.shares) == (7300, 13)
        p = p.execute(-13, 1100)
        assert (p.cash, p.shares) == (7300 + 14300, 0)

    def test_negative_holdings_rejected(self):
        with pytest.raises(ValueError):
            Portfolio(cash=-1, shares=0)
        with pytest.raises(ValueError):
            Portfolio(cash=100, shares=2).execute(-3, 900)


class TestPolicies:
    def test_consistent_policy_is_a_price_table(self):
        policy = ConsistentPolicy((5, -2, 0))
        rng = random.Random(0)
        for portfolio in (Portfolio(10000, 10), Portfolio(0, 0)):
            assert policy.intended_trade(900, portfolio, rng) == 5
            assert policy.intended_trade(1000, portfolio, rng) == -2
            assert policy.intended_trade(1100, portfolio, rng) == 0

    def test_consistent_policy_length_check(self):
        with pytest.raises(ValueError):
            ConsistentPolicy((1, 2))

    def test_free_policy_stays_feasible(self):
        rng = random.Random(3)
        policy = FreePolicy()
        portfolio = Portfolio(cash=5000, shares=4)
        for _ in range(500):
            t = policy.intended_trade(1000, portfolio, rng)
            assert -4 <= t <= 5

    def test_sampled_commitments_fit_the_starting_portfolio(self):
        rng = random.Random(5)
        hit_bounds = set()
        for _ in range(2000):
            policy = sample_consistent_policy(rng)
            for price, trade in zip(PRICES, policy.trades):
                assert -START_SHARES <= trade <= START_CASH // price
                if trade in (-START_SHARES, START_CASH // price):
                    hit_bounds.add((price, trade))
        # Both endpoints of every range are actually drawn.
        assert len(hit_bounds) == 6


class TestSimulateWeek:
    def test_buy_and_hold_hand_walked(self):
        # Day 1 buys 11 at 900 (cash 100, shares 21); the price jumps to
        # 1100 and stays; no further trades. 100 + 21 * 1100 = 23200.
        dyn = PriceDynamics(initial_price=900, targets=(1100, 1000, 1100))
        assert simulate_week(dyn, ConsistentPolicy((11, 0, 0))) == 23200

    def test_infeasible_buys_are_clamped_to_zero(self):
        # Same week, but the policy also wants 11 shares at 1100 with
        # only 100 cash left - clamped to zero, so the result is equal.
        dyn = PriceDynamics(initial_price=900, targets=(1100, 1000, 1100))
        assert simulate_week(dyn, ConsistentPolicy((11, 0, 11))) == 23200

    def test_oversells_are_clamped_to_the_holdings(self):
        # Selling 15 with 10 shares sells 10; afterwards intending -15
        # with nothing left trades nothing.
        assert simulate_week(CONSTANT[1000], ConsistentPolicy((-15, -15, -15))) == 20000

    def test_constant_price_conserves_capital(self):
        rng = random.Random(17)
        for price in PRICES:
            start_value = START_CASH + START_SHARES * price
            for _ in range(50):
                policy = sample_consistent_policy(rng)
                assert simulate_week(CONSTANT[price], policy) == start_value
                assert simulate_week(CONSTANT[price], FreePolicy(), rng) == start_value

    def test_consistent_week_ignores_the_rng(self):
        dyn = PriceDynamics(initial_price=1000, targets=(1100, 900, 900))
        policy = ConsistentPolicy((2, -1, 3))
        capitals = {simulate_week(dyn, policy, random.Random(s)) for s in range(5)}
        assert len(capitals) == 1

    def test_rejects_empty_week(self):
        with pytest.raises(ValueError):
            simulate_week(CONSTANT[900], FreePolicy(), days=0)

    def test_still_week_clamps_in_closed_form(self):
        """Every consistent week at one price, for every commitment draw
        r and 1 to 60 days, clamps as often as `_run_week` counts, and
        passes `Portfolio`'s non-negativity check on the way."""
        for price in PRICES:
            draws = START_SHARES + START_CASH // price + 1
            for days in range(1, 61):
                clamps = _still_clamps(price, days)
                assert len(clamps) == draws
                for r in range(draws):
                    policy = ConsistentPolicy((r - START_SHARES,) * 3)
                    assert clamps[r] == _run_week((price,) * days, policy, None)[1], (price, days, r)


class TestExperiment:
    REPORT = run_market_experiment(tests=30, group_size=40, days=7, seed=0)

    def test_counts_partition_the_tests(self):
        r = self.REPORT
        assert r.count_a_gt_b + r.count_b_gt_a + r.count_tie == 30
        assert r.count_a_gt_b == sum(t.comparison == "A>B" for t in r.results)
        assert r.count_b_gt_a == sum(t.comparison == "B>A" for t in r.results)
        assert r.count_tie == sum(t.comparison == "tie" for t in r.results)

    def test_ties_and_free_wins_both_occur(self):
        assert self.REPORT.count_tie > 0
        assert self.REPORT.count_b_gt_a > 0

    def test_results_record_the_dynamics(self):
        for t in self.REPORT.results:
            assert t.initial_price in PRICES
            assert len(t.transition_digits) == 3
            assert set(t.transition_digits) <= set("012")

    def test_reproducible(self):
        again = run_market_experiment(tests=30, group_size=40, days=7, seed=0)
        assert again == self.REPORT

    def test_seed_changes_the_dynamics(self):
        other = run_market_experiment(tests=30, group_size=40, days=7, seed=1)
        ours = [t.transition_digits for t in self.REPORT.results]
        theirs = [t.transition_digits for t in other.results]
        assert ours != theirs

    def test_comparison_labels(self):
        assert MarketTest(0, 900, "000", 2, 1).comparison == "A>B"
        assert MarketTest(0, 900, "000", 1, 2).comparison == "B>A"
        assert MarketTest(0, 900, "000", 2, 2).comparison == "tie"

    def test_validation(self):
        with pytest.raises(ValueError):
            run_market_experiment(tests=0)
        with pytest.raises(ValueError):
            run_market_experiment(group_size=0)
        with pytest.raises(ValueError):
            run_market_experiment(tests=1, days=0)

    def test_one_price_path_per_test(self, monkeypatch):
        calls = []
        path = PriceDynamics.path

        def counted(self, days=DAYS_PER_WEEK):
            calls.append(days)
            return path(self, days)

        monkeypatch.setattr(PriceDynamics, "path", counted)
        run_market_experiment(tests=3, group_size=4)
        assert calls == [DAYS_PER_WEEK] * 3

    def test_first_test_replayed_by_hand(self):
        """Re-derive test 0 from the documented draw order."""
        seed, group = 0, 40
        rng = substream(seed, 0)
        dynamics = sample_dynamics(rng)
        best_a = max(
            simulate_week(dynamics, sample_consistent_policy(rng), rng)
            for _ in range(group))
        best_b = max(
            simulate_week(dynamics, FreePolicy(), rng) for _ in range(group))
        t0 = self.REPORT.results[0]
        assert t0.initial_price == dynamics.initial_price
        assert t0.transition_digits == dynamics.digits
        assert t0.best_consistent == best_a
        assert t0.best_free == best_b

    # Seed 2's test 0 and seed 5's test 1 are still; a one-day week
    # always is.
    @pytest.mark.parametrize("seed, tests, days, still", [
        (2, 4, 7, [0]), (5, 2, 7, [1]), (2, 4, 1, [0, 1, 2, 3]),
    ], ids=["seed-2", "seed-5", "one-day"])
    def test_still_weeks_draw_nothing_for_group_b(self, monkeypatch, seed, tests, days, still):
        """A week whose every move is 0 leaves group B's best at the
        start capital, so group B draws nothing there: each test's
        stream ends after the dynamics, group A's commitments and, for a
        moving week only, group B's weeks drawn through `randint`."""
        streams = []

        def recorded(seed, index):
            streams.append(substream(seed, index))
            return streams[-1]

        monkeypatch.setattr(market, "substream", recorded)
        group = 5
        run_market_experiment(tests=tests, group_size=group, days=days, seed=seed)
        assert len(streams) == tests
        seen_still = []
        for t, rng in enumerate(streams):
            twin = substream(seed, t)
            path = sample_dynamics(twin).path(days)
            for _ in range(group):
                sample_consistent_policy(twin)
            if len(set(path)) == 1:
                seen_still.append(t)
            else:
                for _ in range(group):
                    _run_week(path, FreePolicy(), twin)
            assert rng.getstate() == twin.getstate(), t
        assert seen_still == still

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 12),
           st.integers(1, 40))
    # Group B draws here at 4, 5 and 6 bits, so a draw width fixed at 5 or
    # computed once per week would not replay.
    @example(seed=2, tests=4, group=12, days=30)
    # A long week: capital compounds over many recurrences of each price.
    @example(seed=5, tests=2, group=20, days=150)
    def test_whole_report_replayed_through_portfolios(self, seed, tests, group, days):
        """Every test and the clamp count, re-derived by `_run_week`.

        The replay draws through `randint`, so it also pins the
        `_randbelow` rule `run_market_experiment` applies inline.
        """
        expected = []
        clamped_total = 0
        for t in range(tests):
            rng = substream(seed, t)
            dynamics = sample_dynamics(rng)
            path = dynamics.path(days)
            bests = []
            for draw_policy in (lambda: sample_consistent_policy(rng), FreePolicy):
                weeks = [_run_week(path, draw_policy(), rng) for _ in range(group)]
                bests.append(max(capital for capital, _ in weeks))
                clamped_total += sum(clamped for _, clamped in weeks)
            expected.append(MarketTest(t, dynamics.initial_price, dynamics.digits, *bests))
        report = run_market_experiment(tests=tests, group_size=group, days=days, seed=seed)
        assert report.results == tuple(expected)
        assert report.clamped_trades == clamped_total
