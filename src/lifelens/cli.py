"""Command line front end. Output is a pure function of flags and seed.

Exit codes: 0 success, 1 theorem violation, 2 usage, input or output
error, 3 an unexpected exception (a bug). Each subcommand handler
appends its stdout lines to the list main passes in, an entry being one
line or one block of lines joined by newlines, and returns its exit
code; main writes stdout only after the handler returns, so stdout
stays empty on exits 2 and 3. Handlers report bad input by raising
ValueError. main turns any ValueError a handler raises, internal
invariants such as the market's no-negative-portfolio check included,
into exit 2 with one `lifelens <command>: <reason>` line on
stderr. An OverflowError, a size too large for the interpreter, exits 2
the same way with its own message, and a MemoryError exits 2 with the
reason `out of memory`, so a huge flag never takes the violation code.
A failed write to stdout, such as a closed pipe, a full disk or a
descriptor closed at startup, exits 2 the same way, with the reason
`cannot write output: <strerror>`. Exit 2 holds even when stderr
cannot be written. Any other exception is a bug: it exits 3 with stdout
empty and its traceback on stderr, and still exits 3, the traceback
lost, when stderr cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
from math import factorial
from operator import itemgetter

from . import ca, coop, market, observe, updown
from .seeds import DEFAULT_SEED


def _add_int(parser: argparse.ArgumentParser, flag: str, default: int, text: str,
             metavar: str | None = None) -> None:
    """Add an int flag whose help is `text` followed by its default."""
    parser.add_argument(flag, type=int, default=default, metavar=metavar,
                        help=f"{text} (default: %(default)s)")


def _add_seed(parser: argparse.ArgumentParser) -> None:
    _add_int(parser, "--seed", DEFAULT_SEED, "base seed for all randomness")


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("report", "csv"), default="report",
                        help="human-readable report (default) or a bare CSV table")


_SCENES = {
    "glider-block": ca.glider_block_scene,
    "lone-glider": lambda: ca.GLIDER,
    "block-only": lambda: ca.BLOCK,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lifelens",
        description="Observer-relative entities on Conway's Life and three "
                    "behavioral-consistency experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_life = sub.add_parser("life", help="evolve a '.'/'O' pattern file")
    p_life.set_defaults(run=cmd_life)
    p_life.add_argument("pattern", help="path to the pattern file")
    _add_int(p_life, "--steps", 4, "updates to apply")
    p_life.add_argument("--viewport", default=None, metavar="X0,Y0,WIDTH,HEIGHT",
                        help="window to print (default: joint bounding box of all states)")

    p_obs = sub.add_parser("observe", help="watch a built-in scene through the glider observer")
    p_obs.set_defaults(run=cmd_observe)
    p_obs.add_argument("--scene", choices=_SCENES, default="glider-block")
    _add_int(p_obs, "--steps", 19, "trace length in updates")
    _add_format(p_obs)

    p_ud = sub.add_parser("updown", help="exact win counts for the up-and-down game")
    p_ud.set_defaults(run=cmd_updown)
    p_ud.add_argument("--n", type=int, default=None, help="deck size (default: 10)")
    p_ud.add_argument("--strategy", default=None, metavar="WORD",
                      help="a word like UDUD; omit to tabulate all words")
    _add_format(p_ud)

    p_coop = sub.add_parser("coop", help="cooperation game with random stance flips")
    p_coop.set_defaults(run=cmd_coop)
    _add_int(p_coop, "--env-size", 20, "environment members met per repetition", "M")
    _add_int(p_coop, "--population", 1000, "players per repetition", "N")
    p_coop.add_argument("--flip-probability", type=float, default=None, metavar="P",
                        help="per-meeting flip probability (default: even odds for M)")
    _add_int(p_coop, "--reps", 100, "repetitions")
    _add_seed(p_coop)
    _add_format(p_coop)

    p_mkt = sub.add_parser("market", help="consistent vs free traders on a random price map")
    p_mkt.set_defaults(run=cmd_market)
    _add_int(p_mkt, "--tests", 50, "independent tests")
    _add_int(p_mkt, "--group-size", 100, "traders per group")
    _add_int(p_mkt, "--days", market.DAYS_PER_WEEK, "trading days per test")
    _add_seed(p_mkt)
    _add_format(p_mkt)

    p_thm = sub.add_parser("theorem", help="sweep the pigeonhole implication for violations")
    p_thm.set_defaults(run=cmd_theorem)
    _add_int(p_thm, "--trials", 10000, "randomized episodes on top of the exhaustive sweep")
    _add_int(p_thm, "--max-len", 200, "largest randomized lifetime")
    _add_seed(p_thm)

    return parser


# The largest viewport WIDTH and HEIGHT. Rendering a frame took about
# 6 ns and a peak of 3 bytes per cell (2000 x 2000 cells, Python 3.11 on
# 2 vCPU), and its text stays in memory at 1 byte per cell until stdout
# is written, so a frame at this bound on both sides costs about 0.1 s
# and 48 MiB.
_VIEWPORT_MAX = 4096


def _parse_viewport(text: str) -> tuple[int, int, int, int]:
    try:
        x0, y0, w, h = (int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(
            f"viewport must be X0,Y0,WIDTH,HEIGHT integers, got {text!r}") from None
    if not (0 <= w <= _VIEWPORT_MAX and 0 <= h <= _VIEWPORT_MAX):
        raise ValueError(f"viewport WIDTH and HEIGHT must be within 0..{_VIEWPORT_MAX}, "
                         f"got {text!r}")
    return x0, y0, w, h


def cmd_life(args, out: list[str]) -> int:
    # A bad viewport is reported before the file is read or run.
    viewport = _parse_viewport(args.viewport) if args.viewport is not None else None
    try:
        with open(args.pattern, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {args.pattern}: {exc.strerror}") from None
    # latin-1 maps each byte to one character, so columns are byte columns.
    try:
        initial = ca.parse_pattern(data.decode("latin-1"))
    except ca.PatternError as exc:
        if exc.found.isascii():
            raise
        raise ValueError(f"line {exc.line}, column {exc.column}: "
                         f"non-ASCII byte {ord(exc.found):#04x}") from None
    trace = ca.run(initial, args.steps)
    if viewport is None:
        viewport = ca.window(trace)
    for t, state in enumerate(trace):
        if t:
            out.append("")
        out.append(f"t={t}")
        frame = ca.render_pattern(state, viewport)
        # A frame is exactly HEIGHT rows, even when they are empty.
        if viewport[3]:
            out.append(frame)
    return 0


def _csv(out: list[str], header: str, rows) -> None:
    """Append a CSV table to out: the header, then one line per row.

    A row's fields are written as str() gives them, joined by commas.
    No field holds a comma, so none is quoted.
    """
    out.append(header)
    out.extend(",".join(map(str, row)) for row in rows)


def _witness_text(witness: observe.Witness | None, found: str, absent: str) -> str:
    return f"{found}, witness ({witness.a}, {witness.b})" if witness else absent


def cmd_observe(args, out: list[str]) -> int:
    trace = ca.run(_SCENES[args.scene](), args.steps)
    pt = observe.perceive_trace(observe.glider_observer(), trace)
    episodes = observe.extract_entities(pt)
    witnesses = [(observe.is_contradictory(ep), observe.is_deterministic_env(ep))
                 for ep in episodes]
    if args.format == "csv":
        _csv(out, "start,end,intelligence,terminated,contradictory,witness_a,witness_b,"
                  "env_deterministic,env_witness_a,env_witness_b",
             ((ep.start, ep.start + ep.q, observe.intelligence(ep), ep.terminated,
               c is not None, c.a if c else "", c.b if c else "",
               d is None, d.a if d else "", d.b if d else "")
              for ep, (c, d) in zip(episodes, witnesses)))
        return 0
    out.append(f"scene: {args.scene}")
    out.append(f"trace: states 0..{len(trace) - 1}")
    out.append("perceived trace:")
    out.append(observe.format_perceived_trace(pt))
    out.append(f"episodes: {len(episodes)}")
    for k, (ep, (contradiction, determinism)) in enumerate(zip(episodes, witnesses)):
        end = ep.start + ep.q
        out.append(f"episode {k}: lifetime {{{ep.start}..{end}}}, "
                   f"intelligence {observe.intelligence(ep)}, "
                   f"terminated {'yes' if ep.terminated else 'no (trace ended)'}")
        out.append(f"  contradictory: {_witness_text(contradiction, 'yes', 'no')}")
        out.append(f"  deterministic environment: {_witness_text(determinism, 'no', 'yes')}")
    return 0


def cmd_updown(args, out: list[str]) -> int:
    if args.strategy is not None:
        strategy = updown.Strategy.from_text(args.strategy)
        if args.n is not None and args.n != strategy.deck_size:
            raise ValueError(f"strategy {strategy} implies n={strategy.deck_size}, "
                             f"got --n {args.n}")
        count = updown.victories_dp(strategy)
        rows, total = [(str(strategy), count.wins)], count.total
    else:
        n = args.n if args.n is not None else 10
        rows, total = updown.victory_table(n), factorial(n)
    if args.format == "csv":
        _csv(out, "strategy,wins,total", ((w, c, total) for w, c in rows))
    elif args.strategy is not None:
        [(word, wins)] = rows
        out.append(f"strategy {word}: wins {wins} of {total} decks")
    else:
        # One block of rows: for an int, %12d pads as {c:>12} does.
        out.append("\n".join(map(f"%s %12d / {total}".__mod__, rows)))
        # The first maximum, as in max_victories: ties go to the UP-first word.
        best, best_wins = max(rows, key=itemgetter(1))
        out.append(f"maximizer: {best} with {best_wins} of {total} decks")
    return 0


def cmd_coop(args, out: list[str]) -> int:
    config = coop.CoopConfig(
        env_size=args.env_size,
        population=args.population,
        flip_probability=args.flip_probability,
        repetitions=args.reps,
        seed=args.seed,
    )
    report = coop.run_coop_experiment(config)
    rows = [(rep, "".join(str(s) for s in rep.winner.stance_history))
            for rep in report.repetitions]
    if args.format == "csv":
        _csv(out, "rep,env_coop_count,winner_index,winner_payoff,winner_contradictory,"
                  "winner_history,noncontradictory_fraction",
             ((rep.index, rep.env_coop_count, rep.winner_index, rep.winner.total_payoff,
               rep.winner.contradictory, history, f"{rep.noncontradictory_fraction:.6f}")
              for rep, history in rows))
        return 0
    out.append(f"repetitions: {config.repetitions}, environment {config.env_size}, "
               f"population {config.population}, flip probability {report.flip_probability:.6f}")
    for rep, history in rows:
        out.append(f"rep {rep.index:>3}: winner #{rep.winner_index:<4} "
                   f"payoff {rep.winner.total_payoff:>4} "
                   f"{'contradictory' if rep.winner.contradictory else 'consistent   '} "
                   f"history {history}")
    out.append(f"contradictory winners: {report.contradictory_winner_pct:.1f}%")
    out.append(f"non-contradictory population fraction: {report.noncontradictory_fraction:.4f}")
    out.append(f"mean meeting payoff: coop {report.mean_payoff_coop:.4f}, "
               f"noncoop {report.mean_payoff_noncoop:.4f}")
    return 0


def cmd_market(args, out: list[str]) -> int:
    report = market.run_market_experiment(
        tests=args.tests, group_size=args.group_size, days=args.days, seed=args.seed)
    if args.format == "csv":
        _csv(out, "test,initial_price,transition,best_consistent,best_free,comparison",
             ((row.index, row.initial_price, row.transition_digits, row.best_consistent,
               row.best_free, row.comparison) for row in report.results))
        return 0
    out.append(f"tests: {report.tests}, {report.group_size} traders per group, "
               f"{report.days} days, seed {report.seed}")
    for row in report.results:
        out.append(f"test {row.index:>3}: start {row.initial_price}, "
                   f"map {row.transition_digits}, best consistent {row.best_consistent:>7}, "
                   f"best free {row.best_free:>7}  [{row.comparison}]")
    out.append(f"consistent group ahead: {report.count_a_gt_b} of {report.tests}")
    out.append(f"free group ahead:       {report.count_b_gt_a} of {report.tests}")
    out.append(f"ties:                   {report.count_tie} of {report.tests}")
    out.append(f"clamped trades: {report.clamped_trades}")
    return 0


def cmd_theorem(args, out: list[str]) -> int:
    report = observe.run_theorem_check(trials=args.trials, seed=args.seed,
                                       max_len=args.max_len)
    out.append(f"exhaustive sweep: {report.exhaustive_episodes} episodes, "
               f"{report.exhaustive_premise_cases} with premises satisfied")
    out.append(f"randomized sweep: {report.randomized_trials} episodes, "
               f"{report.randomized_premise_cases} with premises satisfied")
    out.append(f"violations: {report.violations}")
    return 1 if report.violations else 0


def _write(stream, lines: list[str]) -> None:
    """Print lines to stream, or raise ValueError saying why that failed.

    A stream of None (its file descriptor was closed at startup) fails
    like a closed descriptor. After a failed write the stream's
    descriptor points at os.devnull, so the exit-time flush of what is
    still buffered cannot fail a second time.
    """
    if stream is None:
        raise ValueError(f"cannot write output: {os.strerror(errno.EBADF)}")
    try:
        print(*lines, sep="\n", file=stream, flush=True)
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        raise ValueError(f"cannot write output: {exc.strerror}") from None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out: list[str] = []
    try:
        code = args.run(args, out)
        _write(sys.stdout, out)
        return code
    except MemoryError:
        reason = "out of memory"
    except (ValueError, OverflowError) as exc:
        reason = str(exc)
    except Exception:
        # A bug: its traceback goes to stderr, never to stdout. Imported
        # here, as only this path needs it, to keep it off every start.
        import traceback
        with contextlib.suppress(ValueError):
            _write(sys.stderr, [traceback.format_exc().rstrip("\n")])
        return 3
    # Exit 2 even when stderr cannot take the reason either.
    with contextlib.suppress(ValueError):
        _write(sys.stderr, [f"lifelens {args.command}: {reason}"])
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
