"""One-week market game: price-consistent versus unconstrained traders.

Prices live on {900, 1000, 1100} and follow a deterministic next-price
map drawn uniformly from the 27 possible maps, with a uniform starting
price. Every trader starts the week with 10000 cash and 10 shares and
trades once per day at that day's price; final capital is cash plus
shares valued at the last price.

Group A traders are consistent: they commit in advance to one signed
trade per price level (drawn uniform over what the starting portfolio
could execute) and repeat that exact choice every day the price recurs,
clamped to whatever is feasible at the moment. Group B traders redraw an
arbitrary feasible trade each day. Each test compares the best final
capital either group of 100 achieves.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from random import Random
from typing import Protocol

from .seeds import DEFAULT_SEED, substream

PRICES = (900, 1000, 1100)
DAYS_PER_WEEK = 7
START_CASH = 10000
START_SHARES = 10


@dataclass(frozen=True)
class PriceDynamics:
    """A deterministic next-price map plus the week's starting price."""

    initial_price: int
    targets: tuple[int, int, int]   # next price after 900, 1000, 1100

    def __post_init__(self):
        if self.initial_price not in PRICES:
            raise ValueError(f"initial price must be one of {PRICES}")
        if len(self.targets) != len(PRICES) or any(t not in PRICES for t in self.targets):
            raise ValueError(f"targets must map each of {PRICES} to one of {PRICES}")

    def next_price(self, price: int) -> int:
        return self.targets[PRICES.index(price)]

    def path(self, days: int = DAYS_PER_WEEK) -> tuple[int, ...]:
        """The prices of `days` trading days, starting at initial_price."""
        if days < 1:
            raise ValueError(f"the week needs at least one day, got {days}")
        prices = [self.initial_price]
        for _ in range(days - 1):
            prices.append(self.next_price(prices[-1]))
        return tuple(prices)

    @property
    def digits(self) -> str:
        """The map as three digits: index of the target of 900, 1000, 1100."""
        return "".join(str(PRICES.index(t)) for t in self.targets)


def sample_dynamics(rng: Random) -> PriceDynamics:
    """Uniform over the 27 maps and the 3 starting prices (targets drawn
    first, in price order, then the starting price)."""
    targets = tuple(rng.choice(PRICES) for _ in range(3))
    return PriceDynamics(initial_price=rng.choice(PRICES), targets=targets)


def _went_negative(cash: int, shares: int) -> ValueError:
    return ValueError(f"portfolio went negative: cash={cash} shares={shares}")


@dataclass(frozen=True)
class Portfolio:
    """Holdings between trades; both components stay non-negative."""

    cash: int
    shares: int

    def __post_init__(self):
        if self.cash < 0 or self.shares < 0:
            raise _went_negative(self.cash, self.shares)

    def value(self, price: int) -> int:
        return self.cash + self.shares * price

    def max_buy(self, price: int) -> int:
        return self.cash // price

    def execute(self, trade: int, price: int) -> "Portfolio":
        """Apply a feasible signed trade (positive buys shares)."""
        return Portfolio(cash=self.cash - trade * price, shares=self.shares + trade)


class TraderPolicy(Protocol):
    def intended_trade(self, price: int, portfolio: Portfolio, rng: Random) -> int: ...


@dataclass(frozen=True)
class ConsistentPolicy:
    """One committed signed trade per price level: same price, same choice.

    The intended trade never varies across days sharing a price; only
    clamping against the current portfolio can make the executed trade
    differ from it.
    """

    trades: tuple[int, int, int]   # for 900, 1000, 1100 in order

    def __post_init__(self):
        if len(self.trades) != len(PRICES):
            raise ValueError("one committed trade per price is required")

    def intended_trade(self, price: int, portfolio: Portfolio, rng: Random) -> int:
        return self.trades[PRICES.index(price)]


@dataclass(frozen=True)
class FreePolicy:
    """Redraws a uniform feasible signed trade every single day."""

    def intended_trade(self, price: int, portfolio: Portfolio, rng: Random) -> int:
        return rng.randint(-portfolio.shares, portfolio.max_buy(price))


def sample_consistent_policy(rng: Random) -> ConsistentPolicy:
    """Commitments drawn uniform over what the starting portfolio could
    execute at each price, in price order."""
    return ConsistentPolicy(tuple(
        rng.randint(-START_SHARES, START_CASH // price) for price in PRICES
    ))


def _run_week(path: tuple[int, ...], policy: TraderPolicy, rng: Random) -> tuple[int, int]:
    """(final capital, number of clamped trades) for one trader's week
    along a price path.

    This is the reference path for any `TraderPolicy`;
    `run_market_experiment` plays the same weeks on plain ints.
    """
    portfolio = Portfolio(START_CASH, START_SHARES)
    clamped = 0
    for price in path:
        intended = policy.intended_trade(price, portfolio, rng)
        trade = max(-portfolio.shares, min(intended, portfolio.max_buy(price)))
        if trade != intended:
            clamped += 1
        portfolio = portfolio.execute(trade, price)
    return portfolio.value(path[-1]), clamped


def _still_clamps(price: int, days: int) -> list[int]:
    """Clamped trades of a consistent trader's still week at `price`,
    indexed by its commitment draw r in 0..START_SHARES + START_CASH // price.

    Capital stays START_CASH + START_SHARES * price, so a trade t != 0
    runs unclamped for room // |t| days, room being START_CASH // price
    for a buy and START_SHARES for a sale, and clamps every later day.
    """
    room = START_CASH // price
    return [max(0, days - (room if t > 0 else START_SHARES) // abs(t)) if t else 0
            for t in range(-START_SHARES, room + 1)]


def simulate_week(dynamics: PriceDynamics, policy: TraderPolicy, rng: Random | None = None,
                  days: int = DAYS_PER_WEEK) -> int:
    """Final capital of one trader; infeasible intentions are clamped."""
    return _run_week(dynamics.path(days), policy, rng if rng is not None else Random(0))[0]


@dataclass(frozen=True)
class MarketTest:
    index: int
    initial_price: int
    transition_digits: str
    best_consistent: int
    best_free: int

    @property
    def comparison(self) -> str:
        if self.best_consistent > self.best_free:
            return "A>B"
        if self.best_free > self.best_consistent:
            return "B>A"
        return "tie"


@dataclass(frozen=True)
class MarketReport:
    """Per-test bests plus the three comparison counts."""

    tests: int
    group_size: int
    days: int
    seed: int
    results: tuple[MarketTest, ...]
    count_a_gt_b: int
    count_b_gt_a: int
    count_tie: int
    clamped_trades: int


def run_market_experiment(tests: int = 50, group_size: int = 100,
                          days: int = DAYS_PER_WEEK, seed: int = DEFAULT_SEED) -> MarketReport:
    """Run all tests; test t draws from substream(seed, t).

    Draw order within a test: the dynamics, then group A (per trader:
    the three committed trades of `sample_consistent_policy`, then the
    week), then group B, unless every move of the week is 0 (per trader:
    one `randint(-shares, cash // price)` per day, as `FreePolicy` draws
    it). Bests are exact integer maxima. In a still week, whose start
    price maps to itself or which has one day, no trade changes any
    capital, so both groups' bests are the start capital. Group B's
    draws would be the last of the test's own substream, which nothing
    reads after the test, so skipping them changes no drawn value and no
    value's place: only the discarded stream's state differs, the rule
    `run_theorem_check` documents for its random trials. Group A's
    traders still make their three draws, but play no day: a trader's
    clamps depend only on its commitment at the still price, and
    `_still_clamps` counts them in closed form. A still week never
    moves capital and the clamp keeps shares within 0..capital // price,
    so `Portfolio`'s non-negativity check cannot fail in it;
    tests/test_market.py runs `_run_week`'s check on every such week
    of up to 60 days. Each draw
    applies the `_randbelow` rule of `seeds`' module docstring inline,
    so the stream is consumed exactly as `randint` consumes it;
    tests/test_market.py pins this by replaying whole reports through
    `randint`.

    Weeks are played on capital, cash + shares * price, which a trade at
    the day's price leaves unchanged. So the shares held after a trade
    range over 0..capital // price: group B's draw is that holding (its
    bound, shares + cash // price + 1, is capital // price + 1), and
    group A's commitment is clamped into that range exactly when
    `Portfolio`'s clamp bites. Overnight, capital moves by the holding
    times the price change; the last day moves by 0, so final capital
    is the capital after the last trade, whose draw still happens. The
    non-negativity check of `Portfolio` stays, on the post-trade cash
    `capital - shares * price`. `_run_week` with `ConsistentPolicy` and
    `FreePolicy` is the reference path.
    """
    if tests < 1 or group_size < 1:
        raise ValueError("tests and group_size must be positive")
    # randint(-START_SHARES, START_CASH // price) draws r in [0, n) and
    # returns r - START_SHARES, for these (n, k = n.bit_length()) pairs.
    (n0, k0), (n1, k1), (n2, k2) = [
        (n, n.bit_length())
        for n in (START_SHARES + START_CASH // price + 1 for price in PRICES)]
    results = []
    clamped_total = 0
    for t in range(tests):
        rng = substream(seed, t)
        getrandbits = rng.getrandbits
        dynamics = sample_dynamics(rng)
        path = dynamics.path(days)
        # (price, its level in PRICES, the move to the next day's price).
        week = [(price, PRICES.index(price), after - price)
                for price, after in zip(path, path[1:] + path[-1:])]
        start = START_CASH + START_SHARES * path[0]
        still = not any(move for _, _, move in week)
        best_a = best_b = start if still else -1
        if still:
            clamps = _still_clamps(path[0], days)
            still_level = PRICES.index(path[0])
        for _ in range(group_size):
            # The commitments for 900, 1000 and 1100, drawn in that order.
            r0 = getrandbits(k0)
            while r0 >= n0:
                r0 = getrandbits(k0)
            r1 = getrandbits(k1)
            while r1 >= n1:
                r1 = getrandbits(k1)
            r2 = getrandbits(k2)
            while r2 >= n2:
                r2 = getrandbits(k2)
            if still:
                clamped_total += clamps[(r0, r1, r2)[still_level]]
                continue
            trades = (r0 - START_SHARES, r1 - START_SHARES, r2 - START_SHARES)
            capital, shares = start, START_SHARES
            for price, level, move in week:
                # Shares after the trade, clamped as Portfolio clamps the trade.
                shares += trades[level]
                if shares < 0:
                    shares = 0
                    clamped_total += 1
                elif shares > capital // price:
                    shares = capital // price
                    clamped_total += 1
                if capital < shares * price:
                    raise _went_negative(capital - shares * price, shares)
                capital += shares * move
            if capital > best_a:
                best_a = capital
        if not still:   # in a still week group B draws nothing
            for _ in range(group_size):
                capital = start
                for price, _, move in week:
                    # randint(-shares, cash // price) + shares: r in [0, n) shares held.
                    n = capital // price + 1
                    k = n.bit_length()
                    r = getrandbits(k)
                    while r >= n:
                        r = getrandbits(k)
                    if capital < r * price:
                        raise _went_negative(capital - r * price, r)
                    capital += r * move
                if capital > best_b:
                    best_b = capital
        results.append(MarketTest(
            index=t,
            initial_price=dynamics.initial_price,
            transition_digits=dynamics.digits,
            best_consistent=best_a,
            best_free=best_b,
        ))
    counts = Counter(r.comparison for r in results)
    return MarketReport(
        tests=tests,
        group_size=group_size,
        days=days,
        seed=seed,
        results=tuple(results),
        count_a_gt_b=counts["A>B"],
        count_b_gt_a=counts["B>A"],
        count_tie=counts["tie"],
        clamped_trades=clamped_total,
    )
