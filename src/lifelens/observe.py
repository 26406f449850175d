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
contradictory. `run_theorem_check`, the path of `lifelens theorem`, builds
no episode: its exhaustive sweep and its randomized trials send each
episode's label codes to one judge, `_judge`. `check_proposition`, which
also reports both witnesses, is the tests' oracle for that judge, not the
CLI's path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Hashable, Iterable

from .ca import Cell, CAState, Trace, find_glider
from .seeds import WordReader, substream

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
    start = 0
    for absent, run in itertools.groupby(pairs, key=lambda pair: pair[0] is ZERO):
        ents, envs = zip(*run)
        end = start + len(ents)
        nxt = pairs[end] if end < len(pairs) else None
        if not absent:
            episodes.append(ObservedEpisode(start, ents, envs, nxt, nxt is not None))
        start = end
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
    """Evaluate premises and conclusion of the pigeonhole implication.

    Both witness scans run whatever the premises, so the record always
    carries the environment and the contradiction witness.
    """
    k = contradiction_threshold(space)
    env_witness = _first_divergence(ep, 1)
    contradiction_witness = _first_divergence(ep, 0)
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
        return state.live if body is None else state.live - body

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
# The theorem checker: every small episode, then randomized trials


@dataclass(frozen=True)
class TheoremCheckReport:
    """Tallies from one theorem-checking sweep; violations must be zero."""

    exhaustive_episodes: int
    exhaustive_premise_cases: int
    randomized_trials: int
    randomized_premise_cases: int
    violations: int


# Labels per axis a random trial may draw: its spaces hold the codes
# below a and below b, with a and b within 1.._LABELS.
_LABELS = 5
# _SPACES[a - 1][b - 1]: the space of a trial over a entity and b
# environment codes, built once for every (a, b).
_SPACES = [[PerceptionSpace(frozenset({ZERO, *range(a)}), frozenset(range(b)))
            for b in range(1, _LABELS + 1)] for a in range(1, _LABELS + 1)]


def run_theorem_check(trials: int, seed: int, max_len: int = 200) -> TheoremCheckReport:
    """Exhaustive two-label sweep plus randomized trials of the proposition.

    The exhaustive part enumerates every terminated episode with one
    non-ZERO entity label and two environment labels up to lifetime 10.
    Each randomized trial draws label sets of up to _LABELS codes per
    axis and an episode of lifetime up to max_len, alternating between
    arbitrary episodes and constructed deterministic-environment episodes
    so the premises are actually exercised.

    Neither part builds an episode: both send label codes to `_judge`,
    whose verdicts the tests check against `check_proposition`. The sweep
    enumerates its episodes as products of the environment codes 0 and 1,
    one per moment plus a last one for the label after the end, with
    entity code 0 throughout, and reads its threshold once per call.

    Trial t draws from its own `substream(seed, t)`, which nothing reads
    after the trial. So `_random_trial` may read the trial's label draws
    from blocks of raw generator words that `seeds.WordReader` sizes as
    it reads, and that overdraw the stream: the values, and so the
    tallies, equal those of the sequential draws, and only the discarded
    stream's final state differs.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    # The sweep's space: one entity code and two environment codes.
    threshold = contradiction_threshold(_SPACES[0][1])
    sweep = itertools.chain.from_iterable(
        itertools.product(b"\0\1", repeat=length + 1) for length in range(1, 11))
    exhaustive, exhaustive_premises, exhaustive_violations = _tally(
        _judge(bytes(len(codes) - 1), bytes(codes[:-1]), codes[-1], threshold)
        for codes in sweep)
    _, randomized_premises, randomized_violations = _tally(
        _random_trial(seed, trial, max_len) for trial in range(trials))
    return TheoremCheckReport(
        exhaustive_episodes=exhaustive,
        exhaustive_premise_cases=exhaustive_premises,
        randomized_trials=trials,
        randomized_premise_cases=randomized_premises,
        violations=exhaustive_violations + randomized_violations,
    )


def _random_trial(seed: int, trial: int, max_len: int) -> tuple[bool, bool]:
    """(premises_hold, violation) of `check_proposition` on one randomized
    episode over the first a entity and b environment labels. Even trials
    get a deterministic environment by construction, a transition table
    from each (entity, environment) pair to the next environment label;
    odd trials an arbitrary one, terminated with probability 1/2.

    Its space is the prebuilt `_SPACES[a - 1][b - 1]`, whose threshold
    is read once per trial.

    Draw order: `randint(1, 5)` for a, `randint(1, 5)` for b, then
    - even trials: the table, one `randrange(b)` per (entity,
      environment) pair with the entity outer, each drawn as `choice(env)`
      would be, then the lifetime `randint(1, max_len)`, then
      `choice(ent)` per step, then `choice(env)` for the first
      environment label;
    - odd trials: the lifetime `randint(1, max_len)`, then `choice(ent)`
      per step, then `choice(env)` per step, then one `random()`, below
      0.5 when terminated, then `choice(env)` for the label after the end
      when terminated.
    The trial makes the table and lifetime draws itself, through
    `random.Random`'s own `randrange` and `randint`, and reads its
    label draws and termination coin through `seeds.WordReader`, from
    blocks of raw generator words that the reader sizes as it reads. The
    trial's substream is private and discarded, so the blocks may
    overdraw: every value equals the sequential draw's, and only the
    stream state after the trial differs.

    The episode is never built: its label codes go to `_judge`, the judge
    of the exhaustive sweep too. The premises are tested in the order
    terminated, intelligence above the threshold, environment, and the
    trial stops at the first that fails. Even trials are terminated by
    construction; the threshold is tested right after the lifetime draw,
    so a trial under it reads no label, and an odd trial's coin, drawn
    after its labels, comes second only in time. `_judge` then tests the
    threshold again, checks the environment, and checks the contradiction
    only when all three hold.
    """
    rng = substream(seed, trial)
    a = rng.randint(1, _LABELS)
    b = rng.randint(1, _LABELS)
    threshold = contradiction_threshold(_SPACES[a - 1][b - 1])
    deterministic = trial % 2 == 0
    if deterministic:
        table = [rng.randrange(b) for _ in range(a * b)]
    length = rng.randint(1, max_len)
    if length - 1 <= threshold:
        return False, False
    words = WordReader(rng)
    ents = words.choices(a, length)
    if deterministic:
        env = words.choices(b, 1)[0]
        envs = bytearray()
        for e in ents:
            envs.append(env)
            env = table[e * b + env]
    else:
        envs = words.choices(b, length)
        if not words.coin():
            return False, False
        env = words.choices(b, 1)[0]
    # env is now the environment label after the end.
    return _judge(ents, envs, env, threshold)


def _judge(ents: bytes, envs: bytes, env: int, threshold: int) -> tuple[bool, bool]:
    """(premises_hold, violation) of `check_proposition` on a terminated
    episode given by its label codes: entity codes `ents`, environment
    codes `envs`, and `env` after the end, in a space whose
    `contradiction_threshold` is `threshold`.

    Every label is a code below _LABELS, 5, a moment's pair is
    e * 5 + v, and ZERO, the entity after the end, is code 5. The judge
    tests the threshold, then the environment, then the contradiction,
    and stops at the first premise that fails: `_determines` checks the
    environment only over the threshold, and the contradiction only when
    the environment is deterministic too.
    """
    length = len(ents)
    if length - 1 <= threshold:
        return False, False
    pairs = (int.from_bytes(ents, "big") * 5 + int.from_bytes(envs, "big")).to_bytes(length, "big")
    if not _determines(pairs, envs[1:] + bytes((env,))):
        return False, False
    return True, _determines(pairs, ents[1:] + b"\x05")


# Every byte value once: deleting a bytes object's values from it leaves
# 256 minus the number of distinct values that object holds.
_BYTE_VALUES = bytes(range(256))


def _determines(pairs: bytes, successors: bytes) -> bool:
    """Whether equal pair codes are always followed by equal successor
    codes: exactly when the keys pair * 6 + successor take as many values
    as the pairs do, `len(set(keys)) == len(set(pairs))`, counted in C by
    deleting each from `_BYTE_VALUES`. Pair codes are below 25 and
    successor codes at most 5, so every key is below 256, and the int
    arithmetic that builds the keys of all moments at once carries
    across no byte."""
    keys = int.from_bytes(pairs, "big") * 6 + int.from_bytes(successors, "big")
    return (len(_BYTE_VALUES.translate(None, keys.to_bytes(len(pairs), "big")))
            == len(_BYTE_VALUES.translate(None, pairs)))


def _tally(verdicts: Iterable[tuple[bool, bool]]) -> tuple[int, int, int]:
    """(checks, premise cases, violations) over a stream of
    (premises_hold, violation) verdicts."""
    checks = premises = violations = 0
    for premises_hold, violation in verdicts:
        checks += 1
        premises += premises_hold
        violations += violation
    return checks, premises, violations
