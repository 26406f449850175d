"""Command line tests: exit codes, output shape, and frozen small outputs.

Everything runs in-process through main(argv) except the checks of the
`python -m lifelens` entry point and of failed stdout writes, which need
a process of their own. Byte-identical repeatability across processes is
asserted in test_acceptance.py.
"""

import contextlib
import errno
import functools
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lifelens import cli, observe, updown
from lifelens.cli import _write, main
from lifelens.observe import ZERO, Observer


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestLife:
    # Any line ending, and none at the end, reads as the same block.
    @pytest.mark.parametrize("text", ["OO\nOO\n", "OO\r\nOO\r\n", "OO\rOO\r", "OO\r\nOO"],
                             ids=["lf", "crlf", "cr", "crlf-unterminated"])
    def test_block_is_still(self, capsys, tmp_path, text):
        pattern = tmp_path / "block.txt"
        pattern.write_bytes(text.encode())
        code, out, _ = run_cli(capsys, "life", str(pattern), "--steps", "1")
        assert code == 0
        assert out == "t=0\nOO\nOO\n\nt=1\nOO\nOO\n"

    def test_viewport_crops(self, capsys, tmp_path):
        pattern = tmp_path / "block.txt"
        pattern.write_text("OO\nOO\n")
        code, out, _ = run_cli(capsys, "life", str(pattern), "--steps", "0",
                               "--viewport=-1,-1,4,4")
        assert code == 0
        assert out == "t=0\n....\n.OO.\n.OO.\n....\n"

    @pytest.mark.parametrize("viewport, stdout", [
        ("0,0,0,0", "t=0\n\nt=1\n"),
        ("0,0,0,1", "t=0\n\n\nt=1\n\n"),
        ("0,0,0,2", "t=0\n\n\n\nt=1\n\n\n"),
        ("0,0,3,0", "t=0\n\nt=1\n"),
    ], ids=["0x0", "0x1", "0x2", "3x0"])
    def test_frame_has_height_rows(self, capsys, tmp_path, viewport, stdout):
        pattern = tmp_path / "block.txt"
        pattern.write_text("OO\nOO\n")
        code, out, _ = run_cli(capsys, "life", str(pattern), "--steps", "1",
                               f"--viewport={viewport}")
        assert (code, out) == (0, stdout)

    def test_default_window_of_an_empty_run_is_0x0(self, capsys, tmp_path):
        pattern = tmp_path / "empty.txt"
        pattern.write_text("")
        code, out, _ = run_cli(capsys, "life", str(pattern), "--steps", "2")
        assert (code, out) == (0, "t=0\n\nt=1\n\nt=2\n")

    def test_glider_translates(self, capsys, tmp_path):
        pattern = tmp_path / "glider.txt"
        pattern.write_text(".O.\n..O\nOOO\n")
        code, out, _ = run_cli(capsys, "life", str(pattern), "--steps", "4")
        assert code == 0
        frames = out.split("\n\n")
        assert len(frames) == 5
        first = frames[0].splitlines()
        last = frames[-1].splitlines()
        assert first[0] == "t=0"
        assert last[0] == "t=4"
        # Default viewport covers the whole flight: 4 steps move the
        # glider one cell right and one down within the joint box.
        assert first[1:] == [".O..", "..O.", "OOO.", "...."]
        assert last[1:] == ["....", "..O.", "...O", ".OOO"]


class TestObserve:
    def test_default_scene_report(self, capsys):
        code, out, _ = run_cli(capsys, "observe")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "scene: glider-block"
        assert lines[1] == "trace: states 0..19"
        assert "episodes: 1" in lines
        assert ("episode 0: lifetime {0..14}, intelligence 14, "
                "terminated yes") in lines
        assert "  contradictory: no" in lines
        assert "  deterministic environment: yes" in lines

    def test_default_scene_csv(self, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = re.search(r"^\$ lifelens observe --format csv\n(.*?)^```$", readme, re.M | re.S)
        assert block, "README lacks its `lifelens observe --format csv` example"
        code, out, _ = run_cli(capsys, "observe", "--format", "csv")
        assert code == 0
        assert out == block.group(1)

    def test_block_only_has_no_episodes(self, capsys):
        code, out, _ = run_cli(capsys, "observe", "--scene", "block-only",
                               "--steps", "3", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 1  # header only

    def test_lone_glider_never_terminates(self, capsys):
        code, out, _ = run_cli(capsys, "observe", "--scene", "lone-glider",
                               "--steps", "6")
        assert code == 0
        assert "terminated no (trace ended)" in out

    def test_witness_wordings(self, capsys, monkeypatch):
        # One entity label and a population-mod-3 environment: the scene
        # then repeats label pairs, so both witness branches print.
        monkeypatch.setattr(observe, "glider_observer", lambda: Observer(
            ps_ent=lambda s: "A" if s.live else ZERO,
            ps_env=lambda s: len(s.live) % 3))
        code, out, _ = run_cli(capsys, "observe")
        assert code == 0
        lines = out.splitlines()
        assert "  contradictory: yes, witness (0, 17)" in lines
        assert "  deterministic environment: no, witness (0, 14)" in lines
        code, out, _ = run_cli(capsys, "observe", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1:] == ["0,17,17,True,True,0,17,False,0,14"]

class TestUpdown:
    def test_single_strategy(self, capsys):
        code, out, _ = run_cli(capsys, "updown", "--strategy", "UDUD")
        assert code == 0
        assert out == "strategy UDUD: wins 16 of 120 decks\n"

    def test_single_strategy_csv(self, capsys):
        code, out, _ = run_cli(capsys, "updown", "--strategy", "UDUD",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["strategy,wins,total", "UDUD,16,120"]

    def test_table_csv(self, capsys):
        code, out, _ = run_cli(capsys, "updown", "--n", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "strategy,wins,total",
            "UU,1,6", "UD,2,6", "DU,2,6", "DD,1,6",
        ]

    def test_table_report(self, capsys):
        code, out, _ = run_cli(capsys, "updown", "--n", "3")
        assert code == 0
        lines = out.splitlines()
        assert [ln.split() for ln in lines[:4]] == [
            ["UU", "1", "/", "6"],
            ["UD", "2", "/", "6"],
            ["DU", "2", "/", "6"],
            ["DD", "1", "/", "6"],
        ]
        assert lines[4] == "maximizer: UD with 2 of 6 decks"

    def test_matching_n_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "updown", "--strategy", "UDU", "--n", "4")
        assert code == 0
        assert "wins 5 of 24" in out

    def test_table_walks_the_word_trie_without_the_dp(self, capsys, monkeypatch):
        calls = []
        dp = updown.victories_dp

        def counted(strategy):
            calls.append(strategy)
            return dp(strategy)

        monkeypatch.setattr(updown, "victories_dp", counted)
        code, out, _ = run_cli(capsys, "updown", "--n", "12")
        assert code == 0
        assert calls == []
        assert out.splitlines()[-1].startswith("maximizer: UDUDUDUDUDU with ")

    def test_table_builds_no_strategy_per_row(self, capsys, monkeypatch):
        built = []
        post_init = updown.Strategy.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(updown.Strategy, "__post_init__", counted)
        code, out, _ = run_cli(capsys, "updown", "--n", "12")
        assert code == 0
        assert built == []
        assert out.splitlines()[-1] == "maximizer: UDUDUDUDUDU with 2702765 of 479001600 decks"
        best, _ = updown.max_victories(12)
        assert built == [best]

    def test_table_is_written_in_a_fixed_number_of_writes(self, capsys, monkeypatch):
        class CountingStream(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        counted = {}
        for n in ("8", "12"):
            stream = CountingStream()
            monkeypatch.setattr(sys, "stdout", stream)
            assert main(["updown", "--n", n]) == 0
            monkeypatch.undo()
            code, out, _ = run_cli(capsys, "updown", "--n", n)
            assert code == 0
            assert stream.getvalue() == out
            counted[n] = stream.writes
        assert counted["8"] == counted["12"]


class TestCoop:
    ARGS = ("coop", "--env-size", "2", "--population", "5", "--reps", "3",
            "--seed", "9")

    def test_report_shape(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith(
            "repetitions: 3, environment 2, population 5, flip probability ")
        assert sum(ln.startswith("rep ") for ln in lines) == 3
        assert any(ln.startswith("contradictory winners: ") for ln in lines)
        assert any(ln.startswith("non-contradictory population fraction: ")
                   for ln in lines)
        assert any(ln.startswith("mean meeting payoff: ") for ln in lines)

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("rep,env_coop_count,winner_index,winner_payoff,"
                            "winner_contradictory,winner_history,"
                            "noncontradictory_fraction")
        assert len(lines) == 4
        for ln in lines[1:]:
            assert len(ln.split(",")) == 7

    def test_negative_zero_flip_probability_is_zero(self, capsys):
        # The header once printed "flip probability -0.000000" here.
        zero = run_cli(capsys, *self.ARGS, "--flip-probability", "0")
        assert "flip probability 0.000000" in zero[1]
        assert run_cli(capsys, *self.ARGS, "--flip-probability", "-0.0") == zero

class TestMarket:
    ARGS = ("market", "--tests", "3", "--group-size", "5", "--seed", "4")

    def test_report_shape(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "tests: 3, 5 traders per group, 7 days, seed 4"
        assert sum(ln.startswith("test ") for ln in lines) == 3
        assert any(ln.startswith("consistent group ahead: ") for ln in lines)
        assert any(ln.startswith("clamped trades: ") for ln in lines)

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("test,initial_price,transition,best_consistent,"
                            "best_free,comparison")
        assert len(lines) == 4
        for ln in lines[1:]:
            fields = ln.split(",")
            assert len(fields) == 6
            assert fields[5] in ("A>B", "B>A", "tie")


class TestTheorem:
    def test_small_sweep_is_clean(self, capsys):
        code, out, _ = run_cli(capsys, "theorem", "--trials", "60",
                               "--max-len", "20", "--seed", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("exhaustive sweep: 4092 episodes, ")
        assert lines[1].startswith("randomized sweep: 60 episodes, ")
        assert lines[2] == "violations: 0"


# Rows are (id, argv, pattern, stderr). PATH in argv stands for a path
# under tmp_path that holds the pattern's bytes, is a directory (DIR) or
# does not exist (None); in stderr it stands for the same path.
PATH = "<pattern>"
DIR = object()
VIEWPORT_FORMAT = "lifelens life: viewport must be X0,Y0,WIDTH,HEIGHT integers, got "
VIEWPORT_SIZE = "lifelens life: viewport WIDTH and HEIGHT must be within 0..4096, got "
BAD_INPUTS = [
    ("life-missing-file", ("life", PATH), None,
     f"lifelens life: cannot read {PATH}: {os.strerror(errno.ENOENT)}"),
    ("life-directory", ("life", PATH), DIR,
     f"lifelens life: cannot read {PATH}: {os.strerror(errno.EISDIR)}"),
    ("life-bad-character", ("life", PATH), b"O?\n",
     "lifelens life: line 1, column 2: unexpected character '?'"),
    ("life-form-feed", ("life", PATH), b"O\fO\n",
     "lifelens life: line 1, column 2: unexpected character '\\x0c'"),
    ("life-non-ascii-byte", ("life", PATH), "O.\n.O\u00e9\n".encode("utf-8"),
     "lifelens life: line 2, column 3: non-ASCII byte 0xc3"),
    # U+0085 ends a row for str.splitlines; here it is one bad byte.
    ("life-byte-0x85", ("life", PATH), b"O.\n.\x85O\n",
     "lifelens life: line 2, column 2: non-ASCII byte 0x85"),
    # Two faults: the first in reading order is reported.
    ("life-first-fault-wins", ("life", PATH), b"O?\n\xc3\xa9\n",
     "lifelens life: line 1, column 2: unexpected character '?'"),
    ("life-bad-viewport", ("life", PATH, "--viewport", "0,0,-1,2"), b"O\n",
     VIEWPORT_SIZE + "'0,0,-1,2'"),
    ("life-viewport-negative-height", ("life", PATH, "--viewport", "0,0,2,-1"), b"O\n",
     VIEWPORT_SIZE + "'0,0,2,-1'"),
    ("life-viewport-three-fields", ("life", PATH, "--viewport", "1,2,3"), b"O\n",
     VIEWPORT_FORMAT + "'1,2,3'"),
    ("life-viewport-letters", ("life", PATH, "--viewport", "a,b,c,d"), b"O\n",
     VIEWPORT_FORMAT + "'a,b,c,d'"),
    ("life-viewport-empty-fields", ("life", PATH, "--viewport", ",,,"), b"O\n",
     VIEWPORT_FORMAT + "',,,'"),
    # An empty value is malformed too, not a request for the default window.
    ("life-viewport-empty-string", ("life", PATH, "--viewport", ""), b"O\n",
     VIEWPORT_FORMAT + "''"),
    ("life-viewport-too-wide", ("life", PATH, "--viewport", "0,0,99999999999999999999,1"),
     b"O\n", VIEWPORT_SIZE + "'0,0,99999999999999999999,1'"),
    ("life-viewport-too-high", ("life", PATH, "--viewport", "0,0,1,4097"), b"O\n",
     VIEWPORT_SIZE + "'0,0,1,4097'"),
    ("life-negative-steps", ("life", PATH, "--steps", "-1"), b"O\n",
     "lifelens life: steps must be non-negative, got -1"),
    ("observe-negative-steps", ("observe", "--steps", "-2"), None,
     "lifelens observe: steps must be non-negative, got -2"),
    ("updown-n-1", ("updown", "--n", "1"), None,
     "lifelens updown: deck size must be within 2..16, got 1"),
    ("updown-n-17", ("updown", "--n", "17"), None,
     "lifelens updown: deck size must be within 2..16, got 17"),
    ("updown-bad-strategy", ("updown", "--strategy", "UDX"), None,
     "lifelens updown: strategy letters must be 'U' or 'D', got 'X'"),
    ("updown-strategy-n-mismatch", ("updown", "--strategy", "UDU", "--n", "5"), None,
     "lifelens updown: strategy UDU implies n=4, got --n 5"),
    ("coop-population-0", ("coop", "--population", "0"), None,
     "lifelens coop: env_size, population and repetitions must be positive"),
    ("coop-flip-probability-2", ("coop", "--flip-probability", "2"), None,
     "lifelens coop: flip probability must lie in [0, 1], got 2.0"),
    # No stance lane is wider than 8 bytes, so the row stops below 2**64.
    ("coop-env-size-2**64", ("coop", "--env-size", str(2 ** 64)), None,
     f"lifelens coop: env_size must be below 2**64, got {2 ** 64}"),
    ("market-tests-0", ("market", "--tests", "0"), None,
     "lifelens market: tests and group_size must be positive"),
    ("market-days-0", ("market", "--days", "0"), None,
     "lifelens market: the week needs at least one day, got 0"),
    ("market-days-negative", ("market", "--days", "-3"), None,
     "lifelens market: the week needs at least one day, got -3"),
    ("theorem-trials-negative", ("theorem", "--trials", "-1"), None,
     "lifelens theorem: trials must be non-negative, got -1"),
    ("theorem-max-len-0", ("theorem", "--max-len", "0"), None,
     "lifelens theorem: max_len must be at least 1, got 0"),
]


class TestBadInput:
    """Bad input exits 2 with nothing on stdout and one exact stderr line."""

    @pytest.mark.parametrize("argv, pattern, stderr",
                             [row[1:] for row in BAD_INPUTS],
                             ids=[row[0] for row in BAD_INPUTS])
    def test_exits_2_with_one_stderr_line(self, capsys, tmp_path, argv, pattern, stderr):
        path = tmp_path / "pattern.txt"
        if pattern is DIR:
            path.mkdir()
        elif pattern is not None:
            path.write_bytes(pattern)
        code, out, err = run_cli(capsys, *(str(path) if a == PATH else a for a in argv))
        assert (code, out) == (2, "")
        assert err == stderr.replace(PATH, str(path)) + "\n"

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        # An injected failure: a real one would exhaust the host's memory.
        def exhausted(args, out):
            out.append("partial")
            raise MemoryError
        monkeypatch.setattr(cli, "cmd_observe", exhausted)
        assert run_cli(capsys, "observe") == (2, "", "lifelens observe: out of memory\n")

    def test_overflow_exits_2(self, capsys, monkeypatch):
        # An injected failure, as no flag is known to overflow before it
        # allocates: a size too large for the interpreter.
        def overflowed(args, out):
            out.append("partial")
            raise OverflowError("cannot fit 'int' into an index-sized integer")
        monkeypatch.setattr(cli, "cmd_observe", overflowed)
        assert run_cli(capsys, "observe") == (
            2, "", "lifelens observe: cannot fit 'int' into an index-sized integer\n")

    @pytest.mark.parametrize("exists", [True, False], ids=["file", "missing-file"])
    def test_malformed_viewport_is_reported_before_the_run(self, capsys, monkeypatch, tmp_path,
                                                           exists):
        # The viewport is parsed before the pattern file is read, so neither
        # a missing file nor a 50,000-step run is reached.
        def run(*args):
            pytest.fail("ca.run was called before the viewport was checked")
        monkeypatch.setattr(cli.ca, "run", run)
        path = tmp_path / "block.txt"
        if exists:
            path.write_bytes(b"OO\nOO\n")
        assert (run_cli(capsys, "life", str(path), "--steps", "50000", "--viewport", "abc")
                == (2, "", VIEWPORT_FORMAT + "'abc'\n"))

    @pytest.mark.parametrize("viewport", ["0,0,-1,2", "0,0,4097,1"])
    def test_viewport_size_is_checked_before_the_run(self, capsys, monkeypatch, tmp_path,
                                                     viewport):
        # Neither the missing file nor a 50,000-step run is reached.
        monkeypatch.setattr(cli.ca, "run", lambda *args: pytest.fail("ca.run was called"))
        assert (run_cli(capsys, "life", str(tmp_path / "missing.txt"), "--steps", "50000",
                        "--viewport", viewport)
                == (2, "", f"{VIEWPORT_SIZE}{viewport!r}\n"))

    def test_viewport_at_the_bound_is_accepted(self, capsys, tmp_path):
        path = tmp_path / "block.txt"
        path.write_bytes(b"OO\nOO\n")
        code, out, err = run_cli(capsys, "life", str(path), "--steps", "0",
                                 "--viewport=-4094,0,4096,1")
        assert (code, err) == (0, "")
        assert out == "t=0\n" + "." * 4094 + "OO\n"

    def test_module_entry_point_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lifelens", "observe", "--steps", "-2"],
            capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("lifelens observe: ")
        assert proc.stderr.count("\n") == 1


class TestUnexpectedError:
    """Any other exception, a bug, exits 3: not 1, the violation code."""

    @staticmethod
    def inject(monkeypatch):
        def broken(args, out):
            out.append("partial")
            raise RuntimeError("injected")
        monkeypatch.setattr(cli, "cmd_observe", broken)

    def test_exits_3_with_the_traceback_on_stderr(self, capsys, monkeypatch):
        self.inject(monkeypatch)
        code, out, err = run_cli(capsys, "observe")
        assert (code, out) == (3, "")
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("\nRuntimeError: injected\n")

    def test_exits_3_when_stderr_is_closed(self, capsys, monkeypatch):
        # With fd 2 closed at startup sys.stderr is None; print would then
        # write the traceback to stdout.
        self.inject(monkeypatch)
        monkeypatch.setattr(sys, "stderr", None)
        assert main(["observe"]) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_exits_3_when_stderr_is_full(self, capsys, monkeypatch):
        # In-process: the failed write points this test's own file at
        # os.devnull, which touches no descriptor of the runner's.
        self.inject(monkeypatch)
        with open("/dev/full", "w") as full:
            monkeypatch.setattr(sys, "stderr", full)
            assert main(["observe"]) == 3
        assert capsys.readouterr().out == ""


# The exit-code contract over drawn argv: a subcommand, its size flags
# and a subset of its other flags, each given a value of its kind (a
# small int, 0 and negatives included, for a number) or, one time in
# four, junk. Sizes are capped so that an example runs in milliseconds,
# and the size flags whose defaults are large are always passed. For
# life, the positional names a small pattern file in the module's
# directory or a file that does not exist.
JUNK = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e3", "0x10", "1.5", "UDX"])


def ints(low: int, high: int):
    return st.sampled_from([str(i) for i in range(low, high + 1)])


SEEDS = ints(-1, 99)
FORMATS = st.sampled_from(["report", "csv", "tsv"])
VIEWPORT_FIELDS = ints(-1, 6) | st.sampled_from(["4097", "99999999999999999999", "a", ""])
ARGV_FLAGS = {  # subcommand: (size flags always passed, other flags)
    "life": ({"--steps": ints(-1, 20)}, {"--viewport": st.lists(VIEWPORT_FIELDS, max_size=5)
                                         .map(",".join)}),
    "observe": ({}, {"--steps": ints(-1, 20), "--format": FORMATS,
                     "--scene": st.sampled_from(["glider-block", "lone-glider", "block-only",
                                                 "soup"])}),
    "updown": ({}, {"--n": ints(-1, 10), "--format": FORMATS,
                    "--strategy": st.text("UD", max_size=9) | st.sampled_from(["UDX", "ud", "U D"])}),
    "coop": ({"--population": ints(-1, 30), "--reps": ints(-1, 3), "--env-size": ints(-1, 20)},
             {"--flip-probability": st.sampled_from(["0", "0.25", "1", "-0.5", "2"]),
              "--seed": SEEDS, "--format": FORMATS}),
    "market": ({"--tests": ints(-1, 5), "--group-size": ints(-1, 20), "--days": ints(-1, 10)},
               {"--seed": SEEDS, "--format": FORMATS}),
    "theorem": ({"--trials": ints(-1, 50), "--max-len": ints(-1, 50)}, {"--seed": SEEDS}),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(ARGV_FLAGS)))
    sizes, others = ARGV_FLAGS[command]
    flags = {**sizes, **{flag: values for flag, values in others.items() if draw(st.booleans())}}
    argv = [command, *(f"{flag}={draw(JUNK if draw(st.integers(0, 3)) == 0 else values)}"
                       for flag, values in flags.items())]
    if command == "life":
        argv.insert(1, draw(st.sampled_from(["glider.txt", "missing.txt"])))
    return argv


@pytest.fixture(scope="module")
def pattern_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("patterns")
    (directory / "glider.txt").write_text(".O.\n..O\nOOO\n")
    return directory


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(argv=argvs())
def test_any_argv_exits_0_or_2(pattern_dir, argv):
    # Exit 1 (a theorem violation) and exit 3 (a bug) fail the test, as
    # does a usage error that is not exit 2.
    if argv[0] == "life":
        argv[1] = str(pattern_dir / argv[1])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, handled = main(argv), True
        except SystemExit as exc:  # argparse rejected the argv
            code, handled = exc.code, False
    assert code in (0, 2), (code, err.getvalue())
    if code == 0:
        assert err.getvalue() == ""
    elif handled:
        assert out.getvalue() == ""
        [line] = err.getvalue().splitlines()
        assert line.startswith(f"lifelens {argv[0]}: ") and err.getvalue() == line + "\n"


class TestDispatch:
    def test_missing_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_repeated_runs_print_identical_text(self, capsys):
        first = run_cli(capsys, "coop", "--env-size", "3", "--population", "8",
                        "--reps", "4", "--format", "csv")
        second = run_cli(capsys, "coop", "--env-size", "3", "--population", "8",
                         "--reps", "4", "--format", "csv")
        assert first == second

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lifelens", "updown", "--n", "3",
             "--format", "csv"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [
            "strategy,wins,total",
            "UU,1,6", "UD,2,6", "DU,2,6", "DD,1,6",
        ]


# Rows are (subcommand, phrase): each flag whose help names its default.
# argparse wraps help at the terminal width, so whitespace is collapsed
# before the substring check.
HELP_DEFAULTS = [
    ("life", "--steps STEPS updates to apply (default: 4)"),
    ("life", "--viewport X0,Y0,WIDTH,HEIGHT window to print "
             "(default: joint bounding box of all states)"),
    ("observe", "--steps STEPS trace length in updates (default: 19)"),
    ("observe", "--format {report,csv} human-readable report (default) or a bare CSV table"),
    ("updown", "--n N deck size (default: 10)"),
    ("updown", "--format {report,csv} human-readable report (default) or a bare CSV table"),
    ("coop", "--env-size M environment members met per repetition (default: 20)"),
    ("coop", "--population N players per repetition (default: 1000)"),
    ("coop", "--flip-probability P per-meeting flip probability (default: even odds for M)"),
    ("coop", "--reps REPS repetitions (default: 100)"),
    ("coop", "--seed SEED base seed for all randomness (default: 271828)"),
    ("coop", "--format {report,csv} human-readable report (default) or a bare CSV table"),
    ("market", "--tests TESTS independent tests (default: 50)"),
    ("market", "--group-size GROUP_SIZE traders per group (default: 100)"),
    ("market", "--days DAYS trading days per test (default: 7)"),
    ("market", "--seed SEED base seed for all randomness (default: 271828)"),
    ("market", "--format {report,csv} human-readable report (default) or a bare CSV table"),
    ("theorem", "--trials TRIALS randomized episodes on top of the exhaustive sweep "
                "(default: 10000)"),
    ("theorem", "--max-len MAX_LEN largest randomized lifetime (default: 200)"),
    ("theorem", "--seed SEED base seed for all randomness (default: 271828)"),
]


class TestHelp:
    @pytest.mark.parametrize("command, phrase", HELP_DEFAULTS)
    def test_help_names_the_default(self, capsys, command, phrase):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert phrase in " ".join(capsys.readouterr().out.split())


class TestWriteFailure:
    """A failed stdout write exits 2 with one stderr line, no traceback.

    The runs of main are subprocesses: after a failed write main points
    fd 1 at os.devnull, which in-process would repoint the test runner's
    own fd 1.
    """

    @staticmethod
    def run(argv, stdout):
        return subprocess.run([sys.executable, "-m", "lifelens", *argv],
                              stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_disk(self):
        with open("/dev/full", "wb") as full:
            proc = self.run(["observe"], full)
        assert proc.returncode == 2
        assert proc.stderr == (f"lifelens observe: cannot write output: "
                               f"{os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.parametrize("argv", [("theorem", "--trials", "50"),
                                      ("updown", "--n", "16")])
    def test_closed_pipe(self, argv):
        # The read end is closed before the child starts, so its first
        # write meets a pipe with no reader.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.run(argv, write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == (f"lifelens {argv[0]}: cannot write output: "
                               f"{os.strerror(errno.EPIPE)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv, stdout_full", [(("observe", "--steps", "-2"), False),
                                                   (("observe",), True)],
                             ids=["bad-input", "failed-write"])
    def test_unwritable_stderr(self, argv, stdout_full):
        # The reason cannot be written, yet the exit code stays 2: not 1,
        # the violation code a traceback gave, nor 120, which a second
        # failure in the exit-time flush would give.
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "lifelens", *argv],
                                  stdout=full if stdout_full else subprocess.PIPE, stderr=full,
                                  timeout=60)
        assert proc.returncode == 2
        assert not proc.stdout

    def test_closed_stdout(self):
        # With fd 1 closed at startup sys.stdout is None, and print would
        # drop the output without an error.
        proc = subprocess.run([sys.executable, "-m", "lifelens", "observe"],
                              stderr=subprocess.PIPE, text=True, timeout=60,
                              preexec_fn=functools.partial(os.close, 1))
        assert proc.returncode == 2
        assert proc.stderr == (f"lifelens observe: cannot write output: "
                               f"{os.strerror(errno.EBADF)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_leaves_no_descriptor_open(self):
        # In-process: the stream is a file of this test's own, so pointing
        # its descriptor at os.devnull touches nothing else. The lowest free
        # descriptor is where the next open lands.
        def lowest_free():
            fd = os.open(os.devnull, os.O_RDONLY)
            os.close(fd)
            return fd

        with open("/dev/full", "w") as full:
            before = lowest_free()
            with pytest.raises(ValueError, match="cannot write output"):
                _write(full, ["x"])
            assert lowest_free() == before
