"""Command line front end. Output is a pure function of flags and seed.

Exit codes: 0 success, 1 theorem violation, 2 usage, input or output
error. Each subcommand handler appends its stdout lines to the list main
passes in and returns its exit code; main writes stdout only after the
handler returns, so stdout stays empty on exit 2. Handlers report bad
input by raising ValueError. main turns any ValueError a handler raises,
internal invariants such as the market's no-negative-portfolio check
included, into exit 2 with one `lifelens <command>: <reason>` line on
stderr. A failed write to stdout, such as a closed pipe, a full disk or a
descriptor closed at startup, exits 2 the same way, with the reason
`cannot write output: <strerror>`. Exit 2 holds even when stderr cannot
be written.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
from math import factorial

from . import ca, coop, market, observe, updown
from .seeds import DEFAULT_SEED


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="base seed for all randomness (default: %(default)s)")


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
    p_life.add_argument("--steps", type=int, default=4,
                        help="updates to apply (default: %(default)s)")
    p_life.add_argument("--viewport", default=None, metavar="X0,Y0,WIDTH,HEIGHT",
                        help="window to print (default: joint bounding box of all states)")

    p_obs = sub.add_parser("observe", help="watch a built-in scene through the glider observer")
    p_obs.set_defaults(run=cmd_observe)
    p_obs.add_argument("--scene", choices=_SCENES, default="glider-block")
    p_obs.add_argument("--steps", type=int, default=19,
                       help="trace length in updates (default: %(default)s)")
    _add_format(p_obs)

    p_ud = sub.add_parser("updown", help="exact win counts for the up-and-down game")
    p_ud.set_defaults(run=cmd_updown)
    p_ud.add_argument("--n", type=int, default=None, help="deck size (default: 10)")
    p_ud.add_argument("--strategy", default=None, metavar="WORD",
                      help="a word like UDUD; omit to tabulate all words")
    _add_format(p_ud)

    p_coop = sub.add_parser("coop", help="cooperation game with random stance flips")
    p_coop.set_defaults(run=cmd_coop)
    p_coop.add_argument("--env-size", type=int, default=20, metavar="M",
                        help="environment members met per repetition (default: %(default)s)")
    p_coop.add_argument("--population", type=int, default=1000, metavar="N",
                        help="players per repetition (default: %(default)s)")
    p_coop.add_argument("--flip-probability", type=float, default=None, metavar="P",
                        help="per-meeting flip probability (default: even odds for M)")
    p_coop.add_argument("--reps", type=int, default=100, help="repetitions (default: %(default)s)")
    _add_seed(p_coop)
    _add_format(p_coop)

    p_mkt = sub.add_parser("market", help="consistent vs free traders on a random price map")
    p_mkt.set_defaults(run=cmd_market)
    p_mkt.add_argument("--tests", type=int, default=50,
                       help="independent tests (default: %(default)s)")
    p_mkt.add_argument("--group-size", type=int, default=100,
                       help="traders per group (default: %(default)s)")
    p_mkt.add_argument("--days", type=int, default=market.DAYS_PER_WEEK,
                       help="trading days per test (default: %(default)s)")
    _add_seed(p_mkt)
    _add_format(p_mkt)

    p_thm = sub.add_parser("theorem", help="sweep the pigeonhole implication for violations")
    p_thm.set_defaults(run=cmd_theorem)
    p_thm.add_argument("--trials", type=int, default=10000,
                       help="randomized episodes on top of the exhaustive sweep "
                            "(default: %(default)s)")
    p_thm.add_argument("--max-len", type=int, default=200,
                       help="largest randomized lifetime (default: %(default)s)")
    _add_seed(p_thm)

    return parser


def _parse_viewport(text: str) -> tuple[int, int, int, int]:
    try:
        x0, y0, w, h = (int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(
            f"viewport must be X0,Y0,WIDTH,HEIGHT integers, got {text!r}") from None
    return x0, y0, w, h


def cmd_life(args, out: list[str]) -> int:
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
    if args.viewport:
        viewport = _parse_viewport(args.viewport)
    else:
        # The joint bounding box of all states; 0x0 when every state is empty.
        box = ca.CAState(frozenset().union(*(s.live for s in trace))).bounding_box()
        x0, y0, x1, y1 = box or (0, 0, -1, -1)
        viewport = (x0, y0, x1 - x0 + 1, y1 - y0 + 1)
    for t, state in enumerate(trace):
        if t:
            out.append("")
        out.append(f"t={t}")
        frame = ca.render_pattern(state, viewport)
        # A frame is exactly HEIGHT rows, even when they are empty.
        if viewport[3]:
            out.append(frame)
    return 0


def _witness_text(witness: observe.Witness | None, found: str, absent: str) -> str:
    return f"{found}, witness ({witness.a}, {witness.b})" if witness else absent


def cmd_observe(args, out: list[str]) -> int:
    trace = ca.run(_SCENES[args.scene](), args.steps)
    pt = observe.perceive_trace(observe.glider_observer(), trace)
    episodes = observe.extract_entities(pt)
    witnesses = [(observe.is_contradictory(ep), observe.is_deterministic_env(ep))
                 for ep in episodes]
    if args.format == "csv":
        out.append("start,end,intelligence,terminated,contradictory,witness_a,witness_b,"
                   "env_deterministic,env_witness_a,env_witness_b")
        for ep, (c, d) in zip(episodes, witnesses):
            out.append(",".join(str(v) for v in (
                ep.start, ep.start + ep.q, observe.intelligence(ep),
                ep.terminated,
                c is not None, c.a if c else "", c.b if c else "",
                d is None, d.a if d else "", d.b if d else "",
            )))
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
        out.append("strategy,wins,total")
        out.extend(f"{w},{c},{total}" for w, c in rows)
    elif args.strategy is not None:
        [(word, wins)] = rows
        out.append(f"strategy {word}: wins {wins} of {total} decks")
    else:
        out.extend(f"{w} {c:>12} / {total}" for w, c in rows)
        # The first maximum, as in max_victories: ties go to the UP-first word.
        best, best_wins = max(rows, key=lambda row: row[1])
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
        out.append("rep,env_coop_count,winner_index,winner_payoff,winner_contradictory,"
                   "winner_history,noncontradictory_fraction")
        for rep, history in rows:
            out.append(f"{rep.index},{rep.env_coop_count},{rep.winner_index},"
                       f"{rep.winner.total_payoff},{rep.winner.contradictory},"
                       f"{history},{rep.noncontradictory_fraction:.6f}")
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
        out.append("test,initial_price,transition,best_consistent,best_free,comparison")
        out.extend(f"{row.index},{row.initial_price},{row.transition_digits},"
                   f"{row.best_consistent},{row.best_free},{row.comparison}"
                   for row in report.results)
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
    except ValueError as exc:
        # Exit 2 even when stderr cannot take the reason either.
        with contextlib.suppress(ValueError):
            _write(sys.stderr, [f"lifelens {args.command}: {exc}"])
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
