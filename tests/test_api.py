"""The public API surface: the names `lifelens/__init__.py` exports,
the promise that the package needs nothing beyond the standard library
at run time, a `CAState` that looks the same before and after its rows
are memoised and before and after a stepped state's cells are unpacked,
the module attributes a profiler rebinds, which the package must keep
calling through, `ca` as the one module that reads a state's bands, and
no top-level name that the package neither exports nor reads.

A change to this list is a change to the public API, so it has to be
made here on purpose.
"""

import ast
import copy
import dataclasses
import json
import pickle
import random
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import lifelens
import reference
from lifelens import ca, cli, observe

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
    # life_step stores its rows on the state it returns, and its cells
    # only once `live` is read; pack_rows stores them on a state it
    # packs. Neither shows in the fields, repr, eq or hash.
    stepped = ca.life_step(ca.GLIDER)
    assert list(vars(stepped)) == ["_packed"]
    plain = ca.CAState(stepped.live)
    assert vars(stepped).keys() == {"_packed", "live"}
    assert "_packed" not in vars(plain)
    assert dataclasses.fields(ca.CAState)[0].default is dataclasses.MISSING
    assert ca.CAState().live == frozenset() and "live" in vars(ca.CAState())
    for state in (stepped, plain, ca.GLIDER):
        rows = ca.pack_rows(state)
        assert "_packed" in vars(state) and ca.pack_rows(state) is rows
        assert [f.name for f in dataclasses.fields(state)] == ["live"]
        assert repr(state) == f"CAState(live={state.live!r})"
        assert dataclasses.asdict(state) == {"live": state.live}
        assert pickle.loads(pickle.dumps(state)) == state
    assert stepped == plain and hash(stepped) == hash(plain)


# Each makes a fresh stepped glider, whose `live` has not been read.
UNREAD = {
    "eq": lambda cells: ca.life_step(ca.GLIDER) == ca.CAState(cells),
    "eq-reflected": lambda cells: ca.CAState(cells) == ca.life_step(ca.GLIDER),
    "hash": lambda cells: hash(ca.life_step(ca.GLIDER)) == hash(ca.CAState(cells)),
    "repr": lambda cells: repr(ca.life_step(ca.GLIDER)) == repr(ca.CAState(cells)),
    "asdict": lambda cells: dataclasses.asdict(ca.life_step(ca.GLIDER)) == {"live": cells},
    "replace": lambda cells: dataclasses.replace(ca.life_step(ca.GLIDER)) == ca.CAState(cells),
}


@pytest.mark.parametrize("check", UNREAD.values(), ids=UNREAD)
def test_an_unread_stepped_state_equals_one_built_from_its_cells(check):
    assert check(frozenset(reference.life_step(ca.GLIDER).live))


@pytest.mark.parametrize("duplicate", [lambda s: pickle.loads(pickle.dumps(s)), copy.copy,
                                       copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_an_unread_stepped_state_is_duplicated_as_its_rows(duplicate):
    # The duplicate carries only the rows and unpacks its own cells.
    stepped = ca.life_step(ca.GLIDER)
    twin = duplicate(stepped)
    assert list(vars(stepped)) == list(vars(twin)) == ["_packed"]
    assert twin.live == reference.life_step(ca.GLIDER).live
    assert twin == stepped and hash(twin) == hash(stepped)
    assert ca.CAState(twin.live) == stepped
    assert all(row & 1 == 0 for row in ca.pack_rows(twin)[1].values())


@pytest.mark.parametrize("duplicate", [lambda s: pickle.loads(pickle.dumps(s)), copy.copy,
                                       copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_a_stepped_state_is_duplicated_with_its_bands(duplicate):
    # Stepping a state lays out its bands and keeps them on it; the
    # duplicate carries them and steps as the original does.
    stepped = ca.life_step(ca.GLIDER)
    after = ca.life_step(stepped)
    twin = duplicate(stepped)
    assert list(vars(twin)) == ["_packed", "_bands"]
    assert twin._bands == stepped._bands
    assert twin == stepped and hash(twin) == hash(stepped)
    assert ca.life_step(twin) == after


def test_only_live_is_unpacked_on_demand():
    stepped = ca.life_step(ca.GLIDER)
    assert hasattr(stepped, "nope") is False
    with pytest.raises(AttributeError, match="'CAState' object has no attribute 'nope'"):
        stepped.nope
    assert list(vars(stepped)) == ["_packed"]
    # A state that holds neither `live` nor `_packed` derives no form:
    # the read fails like any missing name's, and does not recurse.
    bare = object.__new__(ca.CAState)
    for name in ("live", "_packed", "_bands"):
        assert hasattr(bare, name) is False
        with pytest.raises(AttributeError, match=f"'CAState' object has no attribute '{name}'"):
            getattr(bare, name)
    # Unpacked once: later reads return the stored set.
    assert stepped.live is stepped.live is vars(stepped)["live"]
    # Every cell of a lone cell dies, so its successor has no rows at all.
    died = ca.life_step(ca.CAState(frozenset({(3, 4)})))
    assert ca.pack_rows(died)[1] == {} and died.live == frozenset() and died == ca.CAState()


def test_life_never_unpacks_a_stepped_state(monkeypatch, tmp_path, capsys):
    # lifelens life only renders, and a render reads the packed rows, so
    # the cells of a state that life_step returned are never built. The
    # output is still the set-based oracle's, frame by frame.
    rng = random.Random(20)
    text = "\n".join("".join("O" if rng.random() < 0.35 else "." for _ in range(24))
                     for _ in range(24))
    pattern = tmp_path / "soup.txt"
    pattern.write_text(text)
    traces, run = [], ca.run
    monkeypatch.setattr(ca, "run", lambda *args: traces.append(run(*args)) or traces[-1])
    assert cli.main(["life", str(pattern), "--steps", "12"]) == 0
    [trace] = traces
    assert [("live" in vars(state)) for state in trace.states[1:]] == [False] * 12
    states = [ca.parse_pattern(text)]
    for _ in range(12):
        states.append(reference.life_step(states[-1]))
    assert list(trace) == states
    xs, ys = zip(*frozenset().union(*(state.live for state in states)))
    viewport = (min(xs), min(ys), max(xs) - min(xs) + 1, max(ys) - min(ys) + 1)
    frames = (f"t={t}\n{reference.render_pattern(state, viewport)}"
              for t, state in enumerate(states))
    assert capsys.readouterr().out == "\n\n".join(frames) + "\n"


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


def test_observe_reads_states_only_through_ca_public_names():
    # ca lays a state out in bands and is the only module that reads
    # them: observe imports none of ca's private names, reads none of a
    # state's private forms, and calls ca's own find_glider, which the
    # package exports as it is.
    source = Path(observe.__file__).read_text(encoding="utf-8")
    imported = [alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "ca"
                for alias in node.names]
    assert imported
    assert [name for name in imported if name.startswith("_")] == []
    assert re.findall(r"\b(?:_bands|_packed|_layout)\b", source) == []
    assert lifelens.find_glider is ca.find_glider is observe.find_glider


def unread_top_level_names() -> list[str]:
    """Each top-level function, class and assignment target of the
    package's modules, as `module.name`, that `lifelens/__init__.py`
    does not export and no package code reads as a loaded name or an
    attribute. A docstring that mentions a name does not read it, and
    dunders are exempt."""
    package = Path(lifelens.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name)]
            else:
                continue
            unread += [f"{module}.{name}" for name in names
                       if not (name.startswith("__") and name.endswith("__"))
                       and name not in PUBLIC_NAMES and name not in read]
    return unread


def test_every_top_level_name_is_exported_or_read():
    # A name that nothing exports and nothing in the package reads is
    # dead code: the tests' oracles live in tests/reference.py.
    assert unread_top_level_names() == []
