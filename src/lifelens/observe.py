"""Observers over automaton traces: what exists, for how long, and when
its behavior stops making sense.

An observer is a pair of total functions mapping each automaton state to
a perceived entity label and a perceived environment label. The entity
label set contains the distinguished ZERO, meaning "nothing there". A
maximal run of consecutive non-ZERO entity labels is one observed
episode; its intelligence score is the run length minus one. An episode
is contradictory when two of its moments look identical to the observer
(same entity label, same environment label) but are followed by
different entity labels; the environment is deterministic when
identical-looking moments are always followed by the same environment
label.

The pigeonhole consequence checked by `check_proposition`: a terminated
episode in a deterministic environment whose intelligence exceeds the
number of (entity label, environment label) combinations must be
contradictory.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .ca import Cell, CAState, Trace, life_step, GLIDER
from .seeds import substream

Label = Hashable
"""Perception labels are opaque; they only need equality and hashing."""


class Absence(Enum):
    """Singleton type of the distinguished 'no entity perceived' label."""

    ZERO = 0

    def __str__(self) -> str:
        return "0"


ZERO = Absence.ZERO


@dataclass(frozen=True)
class PerceptionSpace:
    """The label sets one observer can ever report.

    ent_states must contain ZERO. Both sets are finite; observers whose
    label sets are unbounded (such as the glider observer, which reports
    raw cell sets) simply do not carry a PerceptionSpace.
    """

    ent_states: frozenset
    env_states: frozenset

    def __post_init__(self):
        if ZERO not in self.ent_states:
            raise ValueError("ent_states must contain ZERO")
        if not self.env_states:
            raise ValueError("env_states must be nonempty")


def contradiction_threshold(space: PerceptionSpace) -> int:
    """|ent_states| * |env_states|, ZERO counted.

    An episode whose intelligence exceeds this value revisits some
    (entity, environment) label pair, which is what the pigeonhole
    argument in `check_proposition` feeds on.
    """
    return len(space.ent_states) * len(space.env_states)


@dataclass(frozen=True)
class Observer:
    """A pair of total perception functions over automaton states.

    `space` is optional metadata: the finite label sets when they are
    known and enumerable, None otherwise.
    """

    ps_ent: Callable[[CAState], Label]
    ps_env: Callable[[CAState], Label]
    space: PerceptionSpace | None = None


@dataclass(frozen=True)
class PerceivedTrace:
    """What one observer reports along a trace: one label pair per state."""

    pairs: tuple[tuple[Label, Label], ...]

    def __len__(self) -> int:
        return len(self.pairs)


def perceive_trace(observer: Observer, trace: Trace) -> PerceivedTrace:
    """Apply both perception functions to every state of the trace."""
    return PerceivedTrace(tuple(
        (observer.ps_ent(s), observer.ps_env(s)) for s in trace.states
    ))


@dataclass(frozen=True)
class Witness:
    """A pair of episode-relative indexes a < b that proves a verdict.

    For a contradiction: equal perceived pairs at a and b, different next
    entity labels. For an environment-determinism violation: equal
    perceived pairs, different next environment labels.
    """

    a: int
    b: int

    def __post_init__(self):
        if not 0 <= self.a < self.b:
            raise ValueError(f"witness indexes must satisfy 0 <= a < b, got ({self.a}, {self.b})")


@dataclass(frozen=True)
class ObservedEpisode:
    """One maximal run of non-ZERO entity labels inside a perceived trace.

    Indexes 0..q (q = intelligence) are episode-relative; `start` maps
    index 0 back to trace time. `next_pair_after_end` is the label pair
    observed one step past the run, when the trace extends that far: for
    episodes cut out of a trace its entity component is ZERO (that is
    what ended the run). `terminated` is equivalent to that pair being
    known; when False, the trace simply stopped and the run may have
    continued beyond it.
    """

    start: int
    ent_states: tuple[Label, ...]
    env_states: tuple[Label, ...]
    next_pair_after_end: tuple[Label, Label] | None
    terminated: bool

    def __post_init__(self):
        if not self.ent_states:
            raise ValueError("an episode spans at least one time step")
        if len(self.ent_states) != len(self.env_states):
            raise ValueError("entity and environment sequences must have equal length")
        if any(e is ZERO for e in self.ent_states):
            raise ValueError("entity labels inside a lifetime cannot be ZERO")
        if self.terminated != (self.next_pair_after_end is not None):
            raise ValueError("terminated episodes carry the pair past their end; "
                             "unterminated ones cannot")

    @property
    def q(self) -> int:
        return len(self.ent_states) - 1

    @property
    def lifetime(self) -> range:
        """Trace times this episode covers."""
        return range(self.start, self.start + len(self.ent_states))


def extract_entities(pt: PerceivedTrace) -> list[ObservedEpisode]:
    """Cut a perceived trace into its maximal non-ZERO entity runs."""
    episodes: list[ObservedEpisode] = []
    pairs = pt.pairs
    t = 0
    while t < len(pairs):
        if pairs[t][0] is ZERO:
            t += 1
            continue
        start = t
        while t < len(pairs) and pairs[t][0] is not ZERO:
            t += 1
        nxt = pairs[t] if t < len(pairs) else None
        episodes.append(ObservedEpisode(
            start=start,
            ent_states=tuple(p[0] for p in pairs[start:t]),
            env_states=tuple(p[1] for p in pairs[start:t]),
            next_pair_after_end=nxt,
            terminated=nxt is not None,
        ))
    return episodes


def intelligence(ep: ObservedEpisode) -> int:
    """Lifetime length minus one; a 1-state episode scores 0."""
    return ep.q


def _first_divergence(ep: ObservedEpisode, track: int) -> Witness | None:
    """First (a, b) with equal perceived pairs but different successors on
    `track` (0 = entity, 1 = environment).

    Indexes whose successor is unknown (the last index of an unterminated
    episode) join no comparison: zip stops at the last known successor.
    The scan keeps, per pair value, its first occurrence; any group
    containing two different successors necessarily differs from that
    first occurrence, so the scan is complete and the returned witness
    deterministic.
    """
    successors = (ep.ent_states, ep.env_states)[track][1:]
    if ep.next_pair_after_end is not None:
        successors += (ep.next_pair_after_end[track],)
    seen: dict[tuple[Label, Label], tuple[int, Label]] = {}
    for i, (pair, nxt) in enumerate(zip(zip(ep.ent_states, ep.env_states), successors)):
        a, first = seen.setdefault(pair, (i, nxt))
        if first != nxt:
            return Witness(a, i)
    return None


def is_contradictory(ep: ObservedEpisode) -> Witness | None:
    """A witness of two look-alike moments with different next entity
    labels, or None when the entity behaves consistently.

    The successor of the last index is the entity component of the pair
    past the end when that pair is known (ZERO, for episodes extracted
    from a trace: the death step counts as behavior); otherwise the last
    index joins no comparison.
    """
    return _first_divergence(ep, 0)


def is_deterministic_env(ep: ObservedEpisode) -> Witness | None:
    """None when equal-looking moments always lead to equal next
    environment labels; otherwise a violating witness.
    """
    return _first_divergence(ep, 1)


@dataclass(frozen=True)
class PropositionCheck:
    """The pigeonhole implication, evaluated on one episode.

    Premises: the episode terminated, its environment is deterministic,
    and its intelligence exceeds the label-pair count of the perception
    space. Conclusion: the entity is contradictory. `violation` flags
    premises holding with no contradiction witness; it must never be True.
    """

    terminated: bool
    env_deterministic: bool
    exceeds_threshold: bool
    contradictory: bool
    intelligence: int
    threshold: int
    env_witness: Witness | None
    contradiction_witness: Witness | None

    @property
    def premises_hold(self) -> bool:
        return self.terminated and self.env_deterministic and self.exceeds_threshold

    @property
    def violation(self) -> bool:
        return self.premises_hold and not self.contradictory


def check_proposition(ep: ObservedEpisode, space: PerceptionSpace) -> PropositionCheck:
    """Evaluate premises and conclusion of the pigeonhole implication."""
    env_witness = is_deterministic_env(ep)
    contradiction_witness = is_contradictory(ep)
    k = contradiction_threshold(space)
    return PropositionCheck(
        terminated=ep.terminated,
        env_deterministic=env_witness is None,
        exceeds_threshold=intelligence(ep) > k,
        contradictory=contradiction_witness is not None,
        intelligence=intelligence(ep),
        threshold=k,
        env_witness=env_witness,
        contradiction_witness=contradiction_witness,
    )


def dual_view(ep: ObservedEpisode) -> ObservedEpisode:
    """The same observations with entity and environment roles swapped.

    The swapped entity labels live in a space extended by a fresh ZERO,
    so none of them is absent and the dual episode covers the same
    indexes. The pair past the end is swapped componentwise; its entity
    component is then the observed next environment label rather than an
    absence marker, which is exactly what makes environment determinism
    of the original equivalent to non-contradiction of the dual, witness
    for witness. Applying dual_view twice returns an equal episode.
    """
    if any(v is ZERO for v in ep.env_states):
        raise ValueError("environment labels must not reuse the ZERO marker; "
                         "the dual view needs it as the fresh absence label")
    nxt = None
    if ep.next_pair_after_end is not None:
        e, v = ep.next_pair_after_end
        nxt = (v, e)
    return ObservedEpisode(
        start=ep.start,
        ent_states=ep.env_states,
        env_states=ep.ent_states,
        next_pair_after_end=nxt,
        terminated=ep.terminated,
    )


# ---------------------------------------------------------------------------
# The glider observer


def _normalize(cells: frozenset[Cell]) -> tuple[Cell, ...]:
    """Offsets relative to the (y, x)-least cell, in sorted order."""
    ax, ay = min(cells, key=lambda c: (c[1], c[0]))
    return tuple(sorted((x - ax, y - ay) for x, y in cells))


def _glider_phases() -> tuple[tuple[Cell, ...], ...]:
    phases = []
    state = GLIDER
    for _ in range(4):
        phases.append(_normalize(state.live))
        state = life_step(state)
    return tuple(phases)


GLIDER_PHASES = _glider_phases()


# Every phase's halo holds the four neighbours of its (y, x)-least cell
# that come before it: the one to its left and the three in the row above.
# In a crowded state most live cells have one of them live, so testing
# these first rejects most anchors at once.
_SHARED_HALO: tuple[Cell, ...] = ((-1, 0), (-1, -1), (0, -1), (1, -1))


def _glider_templates() -> tuple[tuple[tuple[Cell, ...], tuple[Cell, ...]], ...]:
    """Per phase, offsets from its least cell: the other four body cells,
    and the halo (cells adjacent to the body) less the shared offsets."""
    templates = []
    for phase in GLIDER_PHASES:
        body = set(phase)
        halo = {(x + dx, y + dy) for x, y in phase for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
        templates.append((
            tuple(sorted(body - {(0, 0)})),
            tuple(sorted(halo - body - set(_SHARED_HALO))),
        ))
    return tuple(templates)


_GLIDER_TEMPLATES = _glider_templates()


def find_glider(state: CAState) -> frozenset[Cell] | None:
    """The cell set of a detected glider phase, or None.

    A detection is a translation of one of the four glider phases that is
    a subset of the live cells and has no other live cell adjacent to it
    (Chebyshev distance 1). With several detections, the one whose sorted
    (y, x) cell list is lexicographically least wins, so detection is a
    function of the state alone.

    Each live cell is tried as the (y, x)-least cell of a detection. A
    glider phase is 8-connected, so isolated detections are disjoint, and
    the one with the least such anchor has the least cell list.
    """
    live = state.live
    best: Cell | None = None
    best_body: tuple[Cell, ...] = ()
    for cx, cy in live:
        if any((cx + dx, cy + dy) in live for dx, dy in _SHARED_HALO):
            continue
        if best is not None and (cy, cx) > (best[1], best[0]):
            continue
        for body, halo in _GLIDER_TEMPLATES:
            if all((cx + dx, cy + dy) in live for dx, dy in body) and not any(
                    (cx + dx, cy + dy) in live for dx, dy in halo):
                best, best_body = (cx, cy), body
                break
    if best is None:
        return None
    cx, cy = best
    return frozenset([best, *((cx + dx, cy + dy) for dx, dy in best_body)])


def glider_observer() -> Observer:
    """Sees a lone glider (any phase, anywhere) as the entity.

    ps_ent reports the detected glider's cell set, or ZERO; ps_env
    reports the remaining live cells as a frozen cell set. The label
    sets are unbounded, so the observer carries no PerceptionSpace.
    Both functions share one detection per state through a one-slot
    memo keyed on the state's identity.
    """
    memo: list = [None, None]  # [state, its detection]

    def detect(state: CAState) -> frozenset[Cell] | None:
        if memo[0] is not state:
            memo[:] = state, find_glider(state)
        return memo[1]

    def ps_ent(state: CAState) -> Label:
        body = detect(state)
        return body if body is not None else ZERO

    def ps_env(state: CAState) -> Label:
        body = detect(state)
        if body is None:
            return frozenset(state.live)
        return frozenset(state.live - body)

    return Observer(ps_ent=ps_ent, ps_env=ps_env, space=None)


# ---------------------------------------------------------------------------
# Serialization


def _label_text(label: Label) -> str:
    """Compact, space-free, deterministic rendering of one label."""
    if isinstance(label, frozenset):
        if not label:
            return "{}"
        cells = sorted(label, key=lambda c: (c[1], c[0]))
        return ";".join(f"{x}:{y}" for x, y in cells)
    return str(label)


def format_perceived_trace(pt: PerceivedTrace) -> str:
    """One line per time step: `t ent env`, labels rendered compactly."""
    return "\n".join(
        f"{t} {_label_text(ent)} {_label_text(env)}" for t, (ent, env) in enumerate(pt.pairs)
    )


# ---------------------------------------------------------------------------
# Episode generators used by the theorem checker (CLI) and the test suite


def _check_episode_args(ent_labels: Sequence[Label], env_labels: Sequence[Label],
                        max_len: int) -> None:
    """The generators' one argument rule, checked before any draw."""
    if not ent_labels or not env_labels:
        raise ValueError("both label alphabets must be nonempty")
    if any(e is ZERO for e in ent_labels):
        raise ValueError("ent_labels must not include ZERO")
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")


def iter_terminated_episodes(ent_labels: Sequence[Label], env_labels: Sequence[Label],
                             max_len: int) -> Iterator[ObservedEpisode]:
    """Every terminated episode over the given alphabets, lifetimes 1..max_len.

    `ent_labels` are the non-ZERO entity labels. This enumerates episode
    contents directly, which covers every terminated episode extractable
    from any trace over the same alphabets.
    """
    _check_episode_args(ent_labels, env_labels, max_len)
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


@dataclass(frozen=True)
class TheoremCheckReport:
    """Tallies from one theorem-checking sweep; violations must be zero."""

    exhaustive_episodes: int
    exhaustive_premise_cases: int
    randomized_trials: int
    randomized_premise_cases: int
    violations: int


_ENT_ALPHABET = ("A", "B", "C", "D", "E")
_ENV_ALPHABET = ("V", "W", "X", "Y", "Z")


def run_theorem_check(trials: int, seed: int, max_len: int = 200) -> TheoremCheckReport:
    """Exhaustive two-label sweep plus randomized trials of the proposition.

    The exhaustive part enumerates every terminated episode with one
    non-ZERO entity label and two environment labels up to lifetime 10.
    Each randomized trial draws alphabets of up to 5 labels per axis and
    an episode of lifetime up to max_len, alternating between arbitrary
    episodes and constructed deterministic-environment episodes so the
    premises are actually exercised.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    _check_episode_args(_ENT_ALPHABET, _ENV_ALPHABET, max_len)
    space = PerceptionSpace(frozenset({ZERO, "A"}), frozenset({"X", "Y"}))
    exhaustive, exhaustive_premises, exhaustive_violations = _tally(
        check_proposition(ep, space)
        for ep in iter_terminated_episodes(("A",), ("X", "Y"), max_len=10))
    _, randomized_premises, randomized_violations = _tally(
        _random_trial(seed, trial, max_len) for trial in range(trials))
    return TheoremCheckReport(
        exhaustive_episodes=exhaustive,
        exhaustive_premise_cases=exhaustive_premises,
        randomized_trials=trials,
        randomized_premise_cases=randomized_premises,
        violations=exhaustive_violations + randomized_violations,
    )


def _random_trial(seed: int, trial: int, max_len: int) -> PropositionCheck:
    """Verdict on one randomized episode. Even trials get a deterministic
    environment by construction, odd trials an arbitrary one.
    """
    rng = substream(seed, trial)
    ents = _ENT_ALPHABET[:rng.randint(1, 5)]
    envs = _ENV_ALPHABET[:rng.randint(1, 5)]
    generate = random_deterministic_episode if trial % 2 == 0 else random_episode
    ep = generate(rng, ents, envs, max_len)
    return check_proposition(ep, PerceptionSpace(frozenset({ZERO, *ents}), frozenset(envs)))


def _tally(verdicts: Iterable[PropositionCheck]) -> tuple[int, int, int]:
    """(checks, premise cases, violations) over a stream of verdicts."""
    checks = premises = violations = 0
    for verdict in verdicts:
        checks += 1
        premises += verdict.premises_hold
        violations += verdict.violation
    return checks, premises, violations
