"""Tracing for the benchmark's traced passes, from outside the program.

`Tracer.installed()` rebinds the public names that lifelens's callers
look up at call time (module attributes such as `lifelens.observe.find_glider`,
and `substream` as imported into observe, coop and market) and restores
them on exit. Coarse boundaries record spans; hot inner calls only count
calls and accumulate time. Everything stays in memory until the
benchmark writes it out.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from lifelens import ca, cli, coop, market, observe, updown

# (owner, attribute, name): coarse boundaries, one span per call.
SPANS = (
    (cli, "main", "cli.main"),
    (cli, "cmd_life", "cli.life"),
    (cli, "cmd_observe", "cli.observe"),
    (cli, "cmd_updown", "cli.updown"),
    (cli, "cmd_coop", "cli.coop"),
    (cli, "cmd_market", "cli.market"),
    (cli, "cmd_theorem", "cli.theorem"),
    (ca, "run", "ca.run"),
    (observe, "perceive_trace", "observe.perceive_trace"),
    (observe, "extract_entities", "observe.extract_entities"),
    (observe, "is_contradictory", "observe.is_contradictory"),
    (observe, "is_deterministic_env", "observe.is_deterministic_env"),
    (observe, "run_theorem_check", "observe.run_theorem_check"),
    (updown, "max_victories", "updown.max_victories"),
    (coop, "run_coop_experiment", "coop.run_coop_experiment"),
    (market, "run_market_experiment", "market.run_market_experiment"),
)

# Hot inner calls: counted and timed, no span.
COUNTERS = (
    (ca, "life_step", "ca.life_step"),
    (ca, "parse_pattern", "ca.parse_pattern"),
    (ca, "render_pattern", "ca.render_pattern"),
    (observe, "find_glider", "observe.find_glider"),
    (observe, "check_proposition", "observe.check_proposition"),
    (updown, "victories_dp", "updown.victories_dp"),
    (observe, "substream", "seeds.substream"),
    (coop, "substream", "seeds.substream"),
    (market, "substream", "seeds.substream"),
    (market.PriceDynamics, "path", "market.PriceDynamics.path"),
    (market.Portfolio, "execute", "market.Portfolio.execute"),
)

WITNESSES = ("observe.is_contradictory", "observe.is_deterministic_env")


# Work each call did, read from its arguments and result after timing.
def _tally_life_step(t, args, result):
    t["cells"] += len(args[0].live)


def _tally_find_glider(t, args, result):
    t["glider_hits"] += result is not None


def _tally_perceive(t, args, result):
    t["states"] += len(result)


def _tally_extract(t, args, result):
    t["episodes"] += len(result)


def _tally_theorem(t, args, r):
    t["theorem_episodes"] += r.exhaustive_episodes + r.randomized_trials
    t["premise_cases"] += r.exhaustive_premise_cases + r.randomized_premise_cases


def _tally_coop(t, args, report):
    c = report.config
    t["meetings"] += c.repetitions * c.population * c.env_size


def _tally_market(t, args, report):
    t["trader_weeks"] += report.tests * 2 * report.group_size


TALLIES = {
    "ca.life_step": _tally_life_step,
    "observe.find_glider": _tally_find_glider,
    "observe.perceive_trace": _tally_perceive,
    "observe.extract_entities": _tally_extract,
    "observe.run_theorem_check": _tally_theorem,
    "coop.run_coop_experiment": _tally_coop,
    "market.run_market_experiment": _tally_market,
}


class Tracer:
    """Spans, call counters and self times of one traced pass.

    A span is (operation id, span id, parent span id, name, start, end);
    every span of one benchmark operation carries the operation id the
    benchmark set in `op_id`. Span id 0 is the benchmark itself.
    """

    def __init__(self):
        self.op_id = 0
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.tallies: defaultdict[str, int] = defaultdict(int)
        # One frame per active traced call: [child seconds, span id, name].
        self._stack: list[list] = [[0.0, 0, "bench"]]
        self._next_span = 0

    def _wrap(self, fn, name: str, span: bool):
        clock = time.perf_counter
        stack = self._stack
        tally = TALLIES.get(name)
        witness = name in WITNESSES

        def traced(*args, **kwargs):
            parent = stack[-1]
            # Witness scans inside a theorem episode are part of that
            # episode's check_proposition count, not observer witness calls.
            if witness and parent[2] == "observe.check_proposition":
                return fn(*args, **kwargs)
            if span:
                self._next_span += 1
                frame = [0.0, self._next_span, name]
            else:
                frame = [0.0, parent[1], name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                self.calls[name] += 1
                self.seconds[name] += elapsed
                self.self_seconds[name] += elapsed - frame[0]
                if span:
                    self.spans.append((self.op_id, frame[1], parent[1], name, start, end))
            if tally is not None:
                tally(self.tallies, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for specs, span in ((SPANS, True), (COUNTERS, False)):
                for owner, attr, name in specs:
                    fn = owner.__dict__[attr]
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, self._wrap(fn, name, span))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except trace.overhead_ratio,
    which compares passes. A layer the pass never entered reads 0."""
    calls, secs, tallies = tr.calls, tr.seconds, tr.tallies
    subcommands = ("life", "observe", "updown", "coop", "market", "theorem")
    return {
        "ca.life_step.calls": calls["ca.life_step"],
        "ca.life_step.s": secs["ca.life_step"],
        "ca.cells_per_s": _rate(tallies["cells"], secs["ca.life_step"]),
        "ca.parse_pattern.s": secs["ca.parse_pattern"],
        "ca.render_pattern.s": secs["ca.render_pattern"],
        "observe.find_glider.calls": calls["observe.find_glider"],
        "observe.find_glider.s": secs["observe.find_glider"],
        "observe.find_glider.hit_ratio": _rate(tallies["glider_hits"],
                                               calls["observe.find_glider"]),
        "observe.perceive_trace.s": secs["observe.perceive_trace"],
        "observe.states_per_s": _rate(tallies["states"], secs["observe.perceive_trace"]),
        "observe.extract_entities.s": secs["observe.extract_entities"],
        "observe.episodes": tallies["episodes"],
        "observe.witness.calls": sum(calls[w] for w in WITNESSES),
        "observe.witness.s": sum(secs[w] for w in WITNESSES),
        "observe.run_theorem_check.s": secs["observe.run_theorem_check"],
        "observe.check_proposition.calls": calls["observe.check_proposition"],
        "observe.theorem_episodes_per_s": _rate(tallies["theorem_episodes"],
                                                secs["observe.run_theorem_check"]),
        "observe.premise_ratio": _rate(tallies["premise_cases"], tallies["theorem_episodes"]),
        "updown.victories_dp.calls": calls["updown.victories_dp"],
        "updown.victories_dp.s": secs["updown.victories_dp"],
        "updown.words_per_s": _rate(calls["updown.victories_dp"], secs["updown.victories_dp"]),
        "coop.run_coop_experiment.s": secs["coop.run_coop_experiment"],
        "coop.meetings_per_s": _rate(tallies["meetings"], secs["coop.run_coop_experiment"]),
        "market.run_market_experiment.s": secs["market.run_market_experiment"],
        "market.trader_weeks_per_s": _rate(tallies["trader_weeks"],
                                           secs["market.run_market_experiment"]),
        "market.PriceDynamics.path.calls": calls["market.PriceDynamics.path"],
        "market.Portfolio.execute.calls": calls["market.Portfolio.execute"],
        "seeds.substream.calls": calls["seeds.substream"],
        "seeds.substream.s": secs["seeds.substream"],
        **{f"cli.{sub}.s": secs[f"cli.{sub}"] for sub in subcommands},
        "cli.self_s": tr.self_seconds["cli.main"]
        + sum(tr.self_seconds[f"cli.{sub}"] for sub in subcommands),
    }
