"""Command line front end. Output is a pure function of flags and seed.

Exit codes: 0 success, 1 theorem violation, 2 usage or input error.
Subcommands report bad input by raising ValueError. main turns any
ValueError a subcommand raises, internal invariants such as the market's
no-negative-portfolio check included, into exit 2 with one
`lifelens <command>: <reason>` line on stderr. Subcommands check their
input before they print, so stdout stays empty on exit 2.
"""

from __future__ import annotations

import argparse
import sys

from . import ca, coop, market, observe, updown
from .seeds import DEFAULT_SEED


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"base seed for all randomness (default: {DEFAULT_SEED})")


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("report", "csv"), default="report",
                        help="human-readable report (default) or a bare CSV table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lifelens",
        description="Observer-relative entities on Conway's Life and three "
                    "behavioral-consistency experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_life = sub.add_parser("life", help="evolve a '.'/'O' pattern file")
    p_life.add_argument("pattern", help="path to the pattern file")
    p_life.add_argument("--steps", type=int, default=4, help="updates to apply (default: 4)")
    p_life.add_argument("--viewport", default=None, metavar="X0,Y0,WIDTH,HEIGHT",
                        help="window to print (default: joint bounding box of all states)")

    p_obs = sub.add_parser("observe", help="watch a built-in scene through the glider observer")
    p_obs.add_argument("--scene", choices=("glider-block", "lone-glider", "block-only"),
                       default="glider-block")
    p_obs.add_argument("--steps", type=int, default=19,
                       help="trace length in updates (default: 19)")
    _add_format(p_obs)

    p_ud = sub.add_parser("updown", help="exact win counts for the up-and-down game")
    p_ud.add_argument("--n", type=int, default=None, help="deck size (default: 10)")
    p_ud.add_argument("--strategy", default=None, metavar="WORD",
                      help="a word like UDUD; omit to tabulate all words")
    _add_format(p_ud)

    p_coop = sub.add_parser("coop", help="cooperation game with random stance flips")
    p_coop.add_argument("--env-size", type=int, default=20, metavar="M",
                        help="environment members met per repetition (default: 20)")
    p_coop.add_argument("--population", type=int, default=1000, metavar="N",
                        help="players per repetition (default: 1000)")
    p_coop.add_argument("--flip-probability", type=float, default=None, metavar="P",
                        help="per-meeting flip probability (default: even odds for M)")
    p_coop.add_argument("--reps", type=int, default=100, help="repetitions (default: 100)")
    _add_seed(p_coop)
    _add_format(p_coop)

    p_mkt = sub.add_parser("market", help="consistent vs free traders on a random price map")
    p_mkt.add_argument("--tests", type=int, default=50, help="independent tests (default: 50)")
    p_mkt.add_argument("--group-size", type=int, default=100,
                       help="traders per group (default: 100)")
    p_mkt.add_argument("--days", type=int, default=market.DAYS_PER_WEEK,
                       help="trading days per test (default: 7)")
    _add_seed(p_mkt)
    _add_format(p_mkt)

    p_thm = sub.add_parser("theorem", help="sweep the pigeonhole implication for violations")
    p_thm.add_argument("--trials", type=int, default=10000,
                       help="randomized episodes on top of the exhaustive sweep (default: 10000)")
    p_thm.add_argument("--max-len", type=int, default=200,
                       help="largest randomized lifetime (default: 200)")
    _add_seed(p_thm)

    return parser


def _parse_viewport(text: str) -> tuple[int, int, int, int]:
    try:
        x0, y0, w, h = (int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(
            f"viewport must be X0,Y0,WIDTH,HEIGHT integers, got {text!r}") from None
    return x0, y0, w, h


def cmd_life(args) -> int:
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
    # Render every frame first, so a bad viewport leaves stdout empty.
    frames = [ca.render_pattern(state, viewport) for state in trace]
    for t, frame in enumerate(frames):
        if t:
            print()
        print(f"t={t}")
        if frame:
            print(frame)
    return 0


_SCENES = {
    "glider-block": ca.glider_block_scene,
    "lone-glider": lambda: ca.GLIDER,
    "block-only": lambda: ca.BLOCK,
}


def _witness_text(witness: observe.Witness | None, found: str, absent: str) -> str:
    return f"{found}, witness ({witness.a}, {witness.b})" if witness else absent


def cmd_observe(args) -> int:
    trace = ca.run(_SCENES[args.scene](), args.steps)
    pt = observe.perceive_trace(observe.glider_observer(), trace)
    episodes = observe.extract_entities(pt)
    witnesses = [(observe.is_contradictory(ep), observe.is_deterministic_env(ep))
                 for ep in episodes]
    if args.format == "csv":
        print("start,end,intelligence,terminated,contradictory,witness_a,witness_b,"
              "env_deterministic,env_witness_a,env_witness_b")
        for ep, (c, d) in zip(episodes, witnesses):
            print(",".join(str(v) for v in (
                ep.start, ep.start + ep.q, observe.intelligence(ep),
                ep.terminated,
                c is not None, c.a if c else "", c.b if c else "",
                d is None, d.a if d else "", d.b if d else "",
            )))
        return 0
    print(f"scene: {args.scene}")
    print(f"trace: states 0..{len(trace) - 1}")
    print("perceived trace:")
    print(observe.format_perceived_trace(pt))
    print(f"episodes: {len(episodes)}")
    for k, (ep, (contradiction, determinism)) in enumerate(zip(episodes, witnesses)):
        end = ep.start + ep.q
        print(f"episode {k}: lifetime {{{ep.start}..{end}}}, "
              f"intelligence {observe.intelligence(ep)}, "
              f"terminated {'yes' if ep.terminated else 'no (trace ended)'}")
        print(f"  contradictory: {_witness_text(contradiction, 'yes', 'no')}")
        print(f"  deterministic environment: {_witness_text(determinism, 'no', 'yes')}")
    return 0


def cmd_updown(args) -> int:
    if args.strategy is not None:
        strategy = updown.Strategy.from_text(args.strategy)
        if args.n is not None and args.n != strategy.deck_size:
            raise ValueError(f"strategy {strategy} implies n={strategy.deck_size}, "
                             f"got --n {args.n}")
        rows = [(strategy, updown.victories_dp(strategy))]
    else:
        rows = updown.victory_table(args.n if args.n is not None else 10)
    if args.format == "csv":
        print("strategy,wins,total")
        for s, c in rows:
            print(f"{s},{c.wins},{c.total}")
    elif args.strategy is not None:
        [(strategy, count)] = rows
        print(f"strategy {strategy}: wins {count.wins} of {count.total} decks")
    else:
        for s, c in rows:
            print(f"{s} {c.wins:>12} / {c.total}")
        # The first maximum, as in max_victories: ties go to the UP-first word.
        best, best_count = max(rows, key=lambda row: row[1].wins)
        print(f"maximizer: {best} with {best_count.wins} of {best_count.total} decks")
    return 0


def cmd_coop(args) -> int:
    config = coop.CoopConfig(
        env_size=args.env_size,
        population=args.population,
        flip_probability=args.flip_probability,
        repetitions=args.reps,
        seed=args.seed,
    )
    report = coop.run_coop_experiment(config)
    if args.format == "csv":
        print("rep,env_coop_count,winner_index,winner_payoff,winner_contradictory,"
              "winner_history,noncontradictory_fraction")
        for rep in report.repetitions:
            history = "".join(str(s) for s in rep.winner.stance_history)
            print(f"{rep.index},{rep.env_coop_count},{rep.winner_index},"
                  f"{rep.winner.total_payoff},{rep.winner.contradictory},"
                  f"{history},{rep.noncontradictory_fraction:.6f}")
        return 0
    print(f"repetitions: {config.repetitions}, environment {config.env_size}, "
          f"population {config.population}, flip probability {report.flip_probability:.6f}")
    for rep in report.repetitions:
        history = "".join(str(s) for s in rep.winner.stance_history)
        print(f"rep {rep.index:>3}: winner #{rep.winner_index:<4} payoff {rep.winner.total_payoff:>4} "
              f"{'contradictory' if rep.winner.contradictory else 'consistent   '} "
              f"history {history}")
    print(f"contradictory winners: {report.contradictory_winner_pct:.1f}%")
    print(f"non-contradictory population fraction: {report.noncontradictory_fraction:.4f}")
    print(f"mean meeting payoff: coop {report.mean_payoff_coop:.4f}, "
          f"noncoop {report.mean_payoff_noncoop:.4f}")
    return 0


def cmd_market(args) -> int:
    report = market.run_market_experiment(
        tests=args.tests, group_size=args.group_size, days=args.days, seed=args.seed)
    if args.format == "csv":
        print("test,initial_price,transition,best_consistent,best_free,comparison")
        for row in report.results:
            print(f"{row.index},{row.initial_price},{row.transition_digits},"
                  f"{row.best_consistent},{row.best_free},{row.comparison}")
        return 0
    print(f"tests: {report.tests}, {report.group_size} traders per group, "
          f"{report.days} days, seed {report.seed}")
    for row in report.results:
        print(f"test {row.index:>3}: start {row.initial_price}, map {row.transition_digits}, "
              f"best consistent {row.best_consistent:>7}, best free {row.best_free:>7}  [{row.comparison}]")
    print(f"consistent group ahead: {report.count_a_gt_b} of {report.tests}")
    print(f"free group ahead:       {report.count_b_gt_a} of {report.tests}")
    print(f"ties:                   {report.count_tie} of {report.tests}")
    print(f"clamped trades: {report.clamped_trades}")
    return 0


def cmd_theorem(args) -> int:
    report = observe.run_theorem_check(trials=args.trials, seed=args.seed,
                                       max_len=args.max_len)
    print(f"exhaustive sweep: {report.exhaustive_episodes} episodes, "
          f"{report.exhaustive_premise_cases} with premises satisfied")
    print(f"randomized sweep: {report.randomized_trials} episodes, "
          f"{report.randomized_premise_cases} with premises satisfied")
    print(f"violations: {report.violations}")
    return 1 if report.violations else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "life": cmd_life,
        "observe": cmd_observe,
        "updown": cmd_updown,
        "coop": cmd_coop,
        "market": cmd_market,
        "theorem": cmd_theorem,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"lifelens {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
