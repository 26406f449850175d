"""The benchmark's workloads: seeded inputs, the operations of one pass,
and the untimed check of every operation's output.

A workload seed goes to the program only as generated inputs: the
`--seed` of the randomized subcommands, and the soup pattern text. Every
check holds for any seed; the frozen stdout digests in digests.json
apply wherever an operation's input is fully fixed, which for the
randomized subcommands means the program's default seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import time
from collections import Counter
from dataclasses import dataclass
from math import factorial
from pathlib import Path
from typing import Callable

from lifelens import ca, cli, observe

import oracles

DEFAULT_SEED = 271828
SOUP_SIZE = 120
SOUP_DENSITY = 0.35
SOUP_STEPS = 60
THEOREM_EXHAUSTIVE_EPISODES = 4092

DIGESTS: dict[str, str] = json.loads(
    (Path(__file__).with_name("digests.json")).read_text(encoding="ascii"))


@dataclass(frozen=True)
class Op:
    """One timed call into the program and the untimed check of its result.

    `run` and `check` share a per-pass context dict, through which later
    operations of a pass read earlier results. `check` returns None when
    the output is right, else the reason it is wrong.
    """

    label: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], str | None]
    argv: tuple[str, ...] = ()
    """The command line, for operations that are one `lifelens` command."""


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    inputs: dict[str, bytes]
    """Generated input files by name, as the program reads them."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process `lifelens` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_op(argv: list[str], workdir: Path,
           check: Callable[[str], str | None] | None = None) -> Op:
    label = " ".join(argv).replace(f"{workdir}/", "")

    def verify(result, ctx):
        code, out, err = result
        if code != 0:
            return f"exit code {code}"
        if err:
            return f"wrote to stderr: {err[:80]!r}"
        frozen = DIGESTS.get(label)
        if frozen is not None and sha256(out) != frozen:
            return "stdout differs from the frozen digest"
        return check(out) if check else None

    return Op(label, lambda ctx: call_cli(argv), verify, tuple(argv))


# ---------------------------------------------------------------------------
# Output checks that hold for any seed


def check_updown(n: int) -> Callable[[str], str | None]:
    """The win column sums to n! and the best count is the zigzag number."""
    total = factorial(n)

    def check(out):
        lines = out.splitlines()
        if lines[0] == "strategy,wins,total":
            rows = [line.split(",") for line in lines[1:]]
            wins = [int(r[1]) for r in rows]
            totals = {int(r[2]) for r in rows}
            best = max(wins)
        else:
            *table, last = lines
            rows = [line.split() for line in table]
            wins = [int(r[1]) for r in rows]
            totals = {int(r[3]) for r in rows}
            best = int(re.fullmatch(r"maximizer: [UD]+ with (\d+) of \d+ decks", last)[1])
        if len(rows) != 2 ** (n - 1) or totals != {total}:
            return f"expected {2 ** (n - 1)} words out of {total} decks each"
        if sum(wins) != total:
            return f"wins sum to {sum(wins)}, not {n}! = {total}"
        if best != oracles.zigzag(n):
            return f"maximizer wins {best}, not the zigzag number {oracles.zigzag(n)}"
        return None

    return check


def check_market(tests: int) -> Callable[[str], str | None]:
    """One row per test; the three comparison counts agree with the rows
    and sum to the number of tests."""
    def check(out):
        lines = out.splitlines()
        if lines[0].startswith("test,"):
            tags = [line.rsplit(",", 1)[1] for line in lines[1:]]
            summary = None
        else:
            tags = [re.search(r"\[(.*)\]$", line)[1]
                    for line in lines if line.startswith("test ")]
            summary = [int(m[1]) for m in re.finditer(
                rf"^(?:consistent group ahead|free group ahead|ties): +(\d+) of {tests}$",
                out, re.M)]
        counts = Counter(tags)
        ordered = [counts["A>B"], counts["B>A"], counts["tie"]]
        if len(tags) != tests or sum(ordered) != tests:
            return f"{len(tags)} rows with {dict(counts)}, expected {tests} comparisons"
        if summary is not None and summary != ordered:
            return f"summary counts {summary} disagree with the rows {ordered}"
        return None

    return check


def check_coop(reps: int) -> Callable[[str], str | None]:
    def check(out):
        lines = out.splitlines()
        if lines[0].startswith("rep,"):
            n_rows = len(lines) - 1
        else:
            n_rows = sum(line.startswith("rep ") for line in lines)
        return None if n_rows == reps else f"{n_rows} repetitions, expected {reps}"

    return check


def check_theorem(trials: int) -> Callable[[str], str | None]:
    def check(out):
        lines = out.splitlines()
        if not lines[0].startswith(
                f"exhaustive sweep: {THEOREM_EXHAUSTIVE_EPISODES} episodes,"):
            return f"unexpected sweep line {lines[0]!r}"
        if not lines[1].startswith(f"randomized sweep: {trials} episodes,"):
            return f"unexpected sweep line {lines[1]!r}"
        return None if lines[2] == "violations: 0" else lines[2]

    return check


def check_equal(expected: str) -> Callable[[str], str | None]:
    return lambda out: None if out == expected else "stdout differs from the reference Life rule"


# ---------------------------------------------------------------------------
# Workloads


def build_defaults(seed: int, workdir: Path) -> Workload:
    """Every subcommand at its documented defaults, report and csv formats."""
    scene = workdir / "scene.txt"
    scene.write_text(oracles.SCENE_TEXT, encoding="ascii")
    states, offset = oracles.evolve(oracles.parse_cells(oracles.SCENE_TEXT), 4)
    ops = []
    for scene_name in ("glider-block", "lone-glider", "block-only"):
        for fmt in ((), ("--format", "csv")):
            scene_args = ("--scene", scene_name) if scene_name != "glider-block" else ()
            ops.append(cli_op(["observe", *scene_args, *fmt], workdir))
    for fmt in ((), ("--format", "csv")):
        ops.append(cli_op(["updown", *fmt], workdir, check_updown(10)))
        ops.append(cli_op(["coop", "--seed", str(seed), *fmt], workdir, check_coop(100)))
        ops.append(cli_op(["market", "--seed", str(seed), *fmt], workdir, check_market(50)))
    ops.append(cli_op(["theorem", "--seed", str(seed)], workdir, check_theorem(10000)))
    ops.append(cli_op(["life", str(scene)], workdir,
                      check_equal(oracles.life_stdout(states, offset))))
    return Workload("defaults", tuple(ops), {scene.name: scene.read_bytes()})


def build_scaled(seed: int, workdir: Path) -> Workload:
    """The two experiment kernels at scale; no Life, no observer."""
    ops = (
        cli_op(["updown", "--n", "16"], workdir, check_updown(16)),
        cli_op(["market", "--tests", "1000", "--seed", str(seed)], workdir, check_market(1000)),
    )
    return Workload("scaled", ops, {})


def soup_text(seed: int, size: int) -> str:
    rng = random.Random(f"soup:{seed}")
    return "".join(
        "".join("O" if rng.random() < SOUP_DENSITY else "." for _ in range(size)) + "\n"
        for _ in range(size))


def build_soup(seed: int, workdir: Path, size: int = SOUP_SIZE) -> Workload:
    """A random soup through the observer pipeline and through `lifelens life`."""
    text = soup_text(seed, size)
    soup = workdir / f"soup-{seed}.txt"
    soup.write_text(text, encoding="ascii")
    states, offset = oracles.evolve(oracles.parse_cells(text), SOUP_STEPS)
    gliders = [oracles.isolated_glider(oracles.rows_to_cells(rows, offset)) for rows in states]

    def step(ctx):
        ctx["trace"] = ca.run(ca.parse_pattern(text), SOUP_STEPS)
        return ctx["trace"]

    def check_step(trace, ctx):
        if len(trace) != len(states):
            return f"{len(trace)} states, expected {len(states)}"
        for t, (state, rows) in enumerate(zip(trace, states)):
            if oracles.to_rows(state.live, offset) != rows:
                return f"state {t} differs from the reference Life rule"
        return None

    def perceive(ctx):
        ctx["perceived"] = observe.perceive_trace(observe.glider_observer(), ctx["trace"])
        return ctx["perceived"]

    def check_perceive(pt, ctx):
        """Each entity is the isolated glider phase the oracle finds, and
        the environment is every other live cell."""
        if len(pt) != len(states):
            return f"{len(pt)} perceived states, expected {len(states)}"
        for t, ((ent, env), glider, state) in enumerate(zip(pt.pairs, gliders, ctx["trace"])):
            if glider is None:
                if ent is not observe.ZERO or env != state.live:
                    return f"state {t}: perceived an entity where no isolated glider is"
            elif ent != glider or env != state.live - glider:
                return f"state {t}: entity or environment is not the isolated glider split"
        return None

    def extract(ctx):
        ctx["episodes"] = observe.extract_entities(ctx["perceived"])
        return ctx["episodes"]

    def check_extract(episodes, ctx):
        pairs = ctx["perceived"].pairs
        runs = []
        t = 0
        while t < len(pairs):
            start = t
            while t < len(pairs) and pairs[t][0] is not observe.ZERO:
                t += 1
            if t > start:
                runs.append((start, pairs[start:t], pairs[t] if t < len(pairs) else None))
            t += 1
        got = [(ep.start, tuple(zip(ep.ent_states, ep.env_states)), ep.next_pair_after_end)
               for ep in episodes]
        return None if got == runs else "episodes are not the maximal non-ZERO runs"

    def witnesses(ctx):
        return [(observe.is_contradictory(ep), observe.is_deterministic_env(ep))
                for ep in ctx["episodes"]]

    def check_witnesses(found, ctx):
        for ep, verdicts in zip(ctx["episodes"], found):
            pairs = list(zip(ep.ent_states, ep.env_states))
            after = ep.next_pair_after_end
            for track, witness in enumerate(verdicts):
                successors = [p[track] for p in pairs[1:]] + [after[track] if after else None]
                if witness is None:
                    if oracles.has_divergence(pairs, successors):
                        return f"episode at {ep.start}: a divergence was missed"
                elif not (pairs[witness.a] == pairs[witness.b]
                          and successors[witness.a] is not None
                          and successors[witness.b] is not None
                          and successors[witness.a] != successors[witness.b]):
                    return f"episode at {ep.start}: witness {witness} does not diverge"
        return None

    ops = (
        Op("ca.run soup", step, check_step),
        Op("observe.perceive_trace soup", perceive, check_perceive),
        Op("observe.extract_entities soup", extract, check_extract),
        Op("observe witness scans soup", witnesses, check_witnesses),
        cli_op(["life", str(soup), "--steps", str(SOUP_STEPS)], workdir,
               check_equal(oracles.life_stdout(states, offset))),
    )
    return Workload("soup", ops, {soup.name: soup.read_bytes()})


BUILDERS: dict[str, Callable[[int, Path], Workload]] = {
    "defaults": build_defaults,
    "scaled": build_scaled,
    "soup": build_soup,
}


@dataclass(frozen=True)
class PassResult:
    wall_s: float
    cpu_s: float
    """Wall and CPU time of the operations, without the gauge's slices."""
    attempted: int
    failures: tuple[str, ...]
    slices: int = 0
    slice_wall_s: float = 0.0
    slice_cpu_s: float = 0.0
    """Gauge slices run among the operations, and their wall and CPU time."""


def run_pass(ops, tracer=None, gauge=None) -> PassResult:
    """Run every operation once, timed, then check every output, untimed.

    With a running calibrate.Gauge, its slices interleave with the timed
    operations and are reported apart. An operation fails when it raises,
    exits non-zero, writes to stderr or fails its check.
    """
    ctx: dict = {}
    results = []
    gauge0 = (gauge.slices, gauge.wall_s, gauge.cpu_s) if gauge else (0, 0.0, 0.0)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = k
        try:
            results.append((op.run(ctx), None))
        except Exception as exc:
            results.append((None, f"raised {exc!r}"))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    gauge1 = (gauge.slices, gauge.wall_s, gauge.cpu_s) if gauge else (0, 0.0, 0.0)
    slices, slice_wall, slice_cpu = (b - a for a, b in zip(gauge0, gauge1))
    failures = []
    for op, (result, error) in zip(ops, results):
        if error is None:
            try:
                error = op.check(result, ctx)
            except (IndexError, ValueError, TypeError, KeyError) as exc:
                error = f"output could not be read: {exc!r}"
        if error:
            failures.append(f"{op.label}: {error}")
    return PassResult(wall - slice_wall, cpu - slice_cpu, len(ops), tuple(failures),
                      slices, slice_wall, slice_cpu)
