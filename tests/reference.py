"""Test oracles: the original formulations of the package's fast paths.

These are the straightforward versions the package started with, kept
verbatim so the tests can show the faster paths return exactly the same
results: the set-based Life step and glider detection, the render that
looks up every viewport cell (the render oracle for the one built on
`ca.pack_rows`), the glider phases the scan looks for, stepped and
normalised here, the episode generators built on `rng.choice` and
`rng.randint`, which are the tests' episode source and replay each
random theorem trial's draws, the enumerator of every terminated
episode over given alphabets, whose episodes `check_proposition` judges
against the package's code judge, and the coop experiment that walks
every meeting. The small helpers these need, the generators' argument rule,
the stance table and the NaN-guarded mean, are copied here too, so no
oracle checks a rule with the code that states it. Nothing in the package
imports this module.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Iterator, Sequence

from lifelens.ca import GLIDER, CAState, Cell
from lifelens.coop import (
    CoopConfig,
    CoopReport,
    IndividualRecord,
    PayoffMatrix,
    RepetitionResult,
    Stance,
)
from lifelens.observe import ZERO, Label, ObservedEpisode
from lifelens.seeds import substream

_OFFSETS: tuple[Cell, ...] = tuple(
    (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)
)


def life_step(s: CAState) -> CAState:
    """One synchronous update of the whole plane.

    A cell with exactly 3 live neighbors is live next step; with exactly
    2 it keeps its current value; any other count leaves it dead.
    """
    counts: Counter[Cell] = Counter()
    for x, y in s.live:
        for dx, dy in _OFFSETS:
            counts[(x + dx, y + dy)] += 1
    live = s.live
    return CAState(frozenset(
        cell for cell, n in counts.items() if n == 3 or (n == 2 and cell in live)
    ))


def _glider_phases() -> tuple[tuple[Cell, ...], ...]:
    """GLIDER and its next three states under the set-based step, each
    as offsets from its (y, x)-least cell, in sorted order."""
    phases = []
    state = GLIDER
    for _ in range(4):
        ax, ay = min(state.live, key=lambda c: (c[1], c[0]))
        phases.append(tuple(sorted((x - ax, y - ay) for x, y in state.live)))
        state = life_step(state)
    return tuple(phases)


GLIDER_PHASES = _glider_phases()


def find_glider(state: CAState) -> frozenset[Cell] | None:
    """The cell set of a detected glider phase, or None.

    A detection is a translation of one of the four glider phases that is
    a subset of the live cells and has no other live cell adjacent to it
    (Chebyshev distance 1). With several detections, the one whose sorted
    (y, x) cell list is lexicographically least wins, so detection is a
    function of the state alone.
    """
    live = state.live
    best: frozenset[Cell] | None = None
    best_key: list[tuple[int, int]] | None = None
    for cx, cy in live:
        for phase in GLIDER_PHASES:
            body = frozenset((cx + ox, cy + oy) for ox, oy in phase)
            if not body <= live:
                continue
            rest = live - body
            if rest:
                halo = set()
                for x, y in body:
                    for dx in (-1, 0, 1):
                        for dy in (-1, 0, 1):
                            halo.add((x + dx, y + dy))
                if rest & halo:
                    continue
            key = sorted((y, x) for x, y in body)
            if best_key is None or key < best_key:
                best, best_key = body, key
    return best


def render_pattern(state: CAState, viewport: tuple[int, int, int, int] | None = None) -> str:
    """Write a state in the same '.'/'O' format parse_pattern reads.

    viewport is (x0, y0, width, height); by default the state's bounding
    box is used. Live cells outside the viewport are not shown. The empty
    state renders to the empty string when no viewport is given.
    """
    live = state.live
    if viewport is None:
        # The bounding box from the cells, not from CAState.bounding_box,
        # which reads the packed rows under test.
        if not live:
            return ""
        xs, ys = zip(*live)
        x0, y0 = min(xs), min(ys)
        width, height = max(xs) - x0 + 1, max(ys) - y0 + 1
    else:
        x0, y0, width, height = viewport
        if width < 0 or height < 0:
            raise ValueError("viewport width and height must be non-negative")
    rows = []
    for y in range(y0, y0 + height):
        rows.append("".join("O" if (x, y) in live else "." for x in range(x0, x0 + width)))
    return "\n".join(rows)


def _check_episode_args(ent_labels: Sequence[Label], env_labels: Sequence[Label],
                        max_len: int) -> None:
    """The generators' one argument rule, checked before any draw."""
    if not ent_labels or not env_labels:
        raise ValueError("both label alphabets must be nonempty")
    if any(e is ZERO for e in ent_labels):
        raise ValueError("ent_labels must not include ZERO")
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")


def random_episode(rng: random.Random, ent_labels: Sequence[Label],
                   env_labels: Sequence[Label], max_len: int) -> ObservedEpisode:
    """A uniformly scrambled episode; terminated with probability 1/2."""
    _check_episode_args(ent_labels, env_labels, max_len)
    length = rng.randint(1, max_len)
    ents = tuple(rng.choice(ent_labels) for _ in range(length))
    envs = tuple(rng.choice(env_labels) for _ in range(length))
    if rng.random() < 0.5:
        return ObservedEpisode(0, ents, envs, (ZERO, rng.choice(env_labels)), True)
    return ObservedEpisode(0, ents, envs, None, False)


def random_deterministic_episode(rng: random.Random, ent_labels: Sequence[Label],
                                 env_labels: Sequence[Label], max_len: int) -> ObservedEpisode:
    """A terminated episode whose environment follows a fixed transition map.

    The next environment label is a function of the current (entity,
    environment) pair by construction, so is_deterministic_env returns
    None for every episode generated here.
    """
    _check_episode_args(ent_labels, env_labels, max_len)
    table = {
        (e, v): rng.choice(env_labels)
        for e in ent_labels for v in env_labels
    }
    length = rng.randint(1, max_len)
    ents = tuple(rng.choice(ent_labels) for _ in range(length))
    envs = [rng.choice(env_labels)]
    for i in range(length - 1):
        envs.append(table[(ents[i], envs[i])])
    nxt_env = table[(ents[-1], envs[-1])]
    return ObservedEpisode(0, ents, tuple(envs), (ZERO, nxt_env), True)


def iter_terminated_episodes(ent_labels: Sequence[Label], env_labels: Sequence[Label],
                             max_len: int) -> Iterator[ObservedEpisode]:
    """Every terminated episode over the given alphabets, lifetimes 1..max_len.

    `ent_labels` are the non-ZERO entity labels. This enumerates episode
    contents directly, which covers every terminated episode extractable
    from any trace over the same alphabets.
    """
    for length in range(1, max_len + 1):
        for ents in itertools.product(ent_labels, repeat=length):
            for envs in itertools.product(env_labels, repeat=length):
                for nxt_env in env_labels:
                    yield ObservedEpisode(
                        start=0,
                        ent_states=ents,
                        env_states=envs,
                        next_pair_after_end=(ZERO, nxt_env),
                        terminated=True,
                    )


# Stances indexed by the bool "is COOP", as the inner loop below encodes them.
_BY_BOOL = (Stance.NONCOOP, Stance.COOP)


def _mean(total: float, count: int) -> float:
    """total / count, or NaN when nothing was counted."""
    return total / count if count else float("nan")


def run_coop_experiment(config: CoopConfig, payoffs: PayoffMatrix = PayoffMatrix()) -> CoopReport:
    """Run all repetitions; repetition r draws from substream(seed, r).

    Draw order within a repetition: the m environment stances, then the n
    initial player stances, then per player (in index order) one flip
    decision before each meeting. True encodes COOP in the inner loop.
    """
    m = config.env_size
    n = config.population
    p = config.resolved_flip_probability()

    results = []
    noncontra_total = 0
    coop_sum = coop_meetings = 0
    payoff_sum = 0

    for r in range(config.repetitions):
        rng = substream(config.seed, r)
        rand = rng.random
        env = tuple(rand() < 0.5 for _ in range(m))
        initial = tuple(rand() < 0.5 for _ in range(n))

        totals: list[int] = []
        winner_index = 0
        winner_history: list[bool] = []
        noncontra = 0
        rep_coop_sum = rep_coop_meetings = 0

        for i in range(n):
            stance = initial[i]
            total = 0
            history = []
            flipped = False
            for opponent in env:
                if rand() < p:
                    stance = not stance
                    flipped = True
                history.append(stance)
                # Each take by field name, independent of the package's take table.
                if stance:
                    take = payoffs.cc if opponent else payoffs.cn
                else:
                    take = payoffs.nc if opponent else payoffs.nn
                total += take
                if stance:
                    rep_coop_sum += take
                    rep_coop_meetings += 1
            if not flipped:
                noncontra += 1
            if not totals or total > totals[winner_index]:
                winner_index = i
                winner_history = history
            totals.append(total)

        rep_sum = sum(totals)
        winner_initial = initial[winner_index]
        winner = IndividualRecord(
            initial_stance=_BY_BOOL[winner_initial],
            stance_history=tuple(_BY_BOOL[s] for s in winner_history),
            total_payoff=totals[winner_index],
            contradictory=any(s != winner_initial for s in winner_history),
        )
        noncontra_total += noncontra
        coop_sum += rep_coop_sum
        coop_meetings += rep_coop_meetings
        payoff_sum += rep_sum
        results.append(RepetitionResult(
            index=r,
            env_coop_count=sum(env),
            winner_index=winner_index,
            winner=winner,
            noncontradictory_fraction=noncontra / n,
            min_payoff=min(totals),
            max_payoff=max(totals),
            mean_payoff_coop=_mean(rep_coop_sum, rep_coop_meetings),
            mean_payoff_noncoop=_mean(rep_sum - rep_coop_sum, n * m - rep_coop_meetings),
        ))

    return CoopReport(
        config=config,
        payoffs=payoffs,
        flip_probability=p,
        repetitions=tuple(results),
        contradictory_winner_pct=(100.0 * sum(rep.winner.contradictory for rep in results)
                                  / config.repetitions),
        noncontradictory_fraction=noncontra_total / (n * config.repetitions),
        mean_payoff_coop=_mean(coop_sum, coop_meetings),
        mean_payoff_noncoop=_mean(payoff_sum - coop_sum,
                                  n * m * config.repetitions - coop_meetings),
    )
