"""The public API surface: the names `lifelens/__init__.py` exports,
the promise that the package needs nothing beyond the standard library
at run time, a `CAState` that looks the same before and after its rows
are memoised, and the module attributes a profiler rebinds, which the
package must keep calling through.

A change to this list is a change to the public API, so it has to be
made here on purpose.
"""

import dataclasses
import json
import pickle
import subprocess
import sys
import types

import lifelens
from lifelens import ca, cli

PUBLIC_NAMES = [
    "BLOCK", "BonusDemo", "CAState", "Cell", "ConsistentPolicy", "CoopConfig",
    "CoopReport", "DEFAULT_SEED", "DOWN", "Deck", "FreePolicy", "GLIDER",
    "IndividualRecord", "MarketReport", "ObservedEpisode", "Observer", "PatternError",
    "PayoffMatrix", "PerceivedTrace", "PerceptionSpace", "Portfolio", "PriceDynamics",
    "PropositionCheck", "Stance", "Strategy", "Trace", "UP", "VictoryCount", "Witness",
    "ZERO", "all_strategies", "check_proposition", "contradiction_threshold",
    "contradictory_bonus_demo", "deck_pattern", "dual_view", "extract_entities",
    "find_glider", "flip_probability_for_even_odds", "format_perceived_trace",
    "glider_block_scene", "glider_observer", "intelligence", "is_contradictory",
    "is_deterministic_env", "life_step", "max_victories", "meeting_payoff",
    "parse_pattern", "perceive_trace", "render_pattern", "run", "run_coop_experiment",
    "run_market_experiment", "run_theorem_check", "sample_consistent_policy",
    "sample_dynamics", "simulate_week", "substream", "victories_bruteforce",
    "victories_dp", "wins",
]


def test_public_names_are_frozen():
    # Submodules become package attributes on import; they are not exports.
    exported = sorted(name for name, value in vars(lifelens).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC_NAMES


# Imports lifelens, runs every subcommand in both formats at small sizes
# through cli.main, and prints the top-level modules that this loaded.
_IMPORT_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import lifelens
from lifelens import cli
pattern = sys.argv[1]
runs = [
    ["life", pattern, "--steps", "2"],
    ["observe", "--steps", "6"],
    ["updown", "--n", "4"],
    ["updown", "--strategy", "UD"],
    ["coop", "--env-size", "3", "--population", "5", "--reps", "2"],
    ["market", "--tests", "2", "--group-size", "3"],
    ["theorem", "--trials", "4", "--max-len", "5"],
]
runs += [argv + ["--format", "csv"] for argv in runs[1:6]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps({"codes": codes, "loaded": sorted(loaded)}))
"""


def test_runtime_needs_only_the_standard_library(tmp_path):
    # A fresh interpreter, so modules the test runner already loaded
    # cannot hide an import. An import of an installed third-party
    # package such as numpy would otherwise pass unnoticed.
    pattern = tmp_path / "block.txt"
    pattern.write_text("OO\nOO\n")
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(pattern)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 12
    assert "lifelens" in result["loaded"]
    outside = [name for name in result["loaded"]
               if name != "lifelens" and name not in sys.stdlib_module_names]
    assert outside == []


def test_packed_rows_stay_out_of_the_dataclass():
    # life_step stores its rows on the state it returns; pack_rows stores
    # them on a state it packs. Neither shows in the fields, eq or hash.
    stepped = ca.life_step(ca.GLIDER)
    plain = ca.CAState(stepped.live)
    assert "_packed" in vars(stepped) and "_packed" not in vars(plain)
    for state in (stepped, plain, ca.GLIDER):
        ca.pack_rows(state)
        assert [f.name for f in dataclasses.fields(state)] == ["live"]
        assert repr(state) == f"CAState(live={state.live!r})"
        assert dataclasses.asdict(state) == {"live": state.live}
        assert pickle.loads(pickle.dumps(state)) == state
    assert stepped == plain and hash(stepped) == hash(plain)


# A profiler counts calls by rebinding these module attributes, so the
# package must call through them. The glider observer's one call of
# observe.find_glider per state is pinned in test_equivalence.py
# (TestSoup.test_observer_detects_once_per_state).
def counting(monkeypatch, module, name: str) -> list:
    """Rebind module.name to a wrapper that logs each call's first argument."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda first, *rest: calls.append(first) or fn(first, *rest))
    return calls


def test_run_steps_through_the_module_life_step(monkeypatch):
    calls = counting(monkeypatch, ca, "life_step")
    trace = ca.run(ca.GLIDER, 7)
    assert calls == list(trace.states[:-1])


def test_life_renders_through_the_module_render_pattern(monkeypatch, tmp_path, capsys):
    pattern = tmp_path / "glider.txt"
    pattern.write_text(".O.\n..O\nOOO\n")
    calls = counting(monkeypatch, ca, "render_pattern")
    for extra in ([], ["--viewport", "0,0,4,4"]):
        calls.clear()
        assert cli.main(["life", str(pattern), "--steps", "4", *extra]) == 0
        assert len(calls) == 5
    capsys.readouterr()
