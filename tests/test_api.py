"""The public API surface: the names `lifelens/__init__.py` exports,
and the promise that the package needs nothing beyond the standard
library at run time.

A change to this list is a change to the public API, so it has to be
made here on purpose.
"""

import json
import subprocess
import sys
import types

import lifelens

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
