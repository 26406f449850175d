"""Golden stdout digests: every subcommand at its defaults, plus a few
non-default runs, frozen.

The SHA-256 of each command's stdout is kept in tests/golden.json, in
groups with a note on when each was recorded: the first group once,
before the Life step and the glider detection were rewritten for speed,
and each later one before the code behind it was rewritten. A digest
must never change. To check a new run, add its digest from a run of the
code whose output is meant to be the reference; never update a digest
to make a changed output pass. Each run goes through tools/golden.py's
`run`, the same runner that checks the goldens on any interpreter
without pytest, which writes the pattern files the `life` runs read.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from lifelens.ca import parse_pattern, render_pattern
from lifelens.seeds import DEFAULT_SEED

_PATH = Path(__file__).resolve().parent.parent / "tools" / "golden.py"
_SPEC = importlib.util.spec_from_file_location("golden", _PATH)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

GOLDEN = golden.load()

SEEDED = ("coop", "market", "theorem")

BENCH_DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "digests.json"


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_stdout_matches_the_frozen_digest(label):
    assert golden.run(label) == (0, GOLDEN[label], "")


def test_the_cut_input_lays_out_as_a_column_cut():
    # The state `life cut.txt` starts from: the ladder and the far block
    # are two bands that share their top row, which only a column cut
    # makes, and the glider is the third.
    state = parse_pattern(render_pattern(golden.column_cut()))
    assert [band.y0 for band in state._bands] == [-1, -1, 44]


def bench_label(label: str) -> str:
    """The benchmark's label for the same run: seeded commands there pass
    the default seed explicitly, right after the subcommand."""
    command, *rest = label.split()
    if command in SEEDED:
        return " ".join([command, "--seed", str(DEFAULT_SEED), *rest])
    return label


def test_agrees_with_the_benchmark_digests():
    bench = json.loads(BENCH_DIGESTS.read_text(encoding="ascii"))
    shared = {label: bench[bench_label(label)]
              for label in GOLDEN if bench_label(label) in bench}
    assert shared
    assert shared == {label: GOLDEN[label] for label in shared}
