"""Command line tests: exit codes, output shape, and frozen small outputs.

Everything runs in-process through main(argv) except one subprocess
check of the `python -m lifelens` entry point. Byte-identical
repeatability across processes is asserted in test_acceptance.py.
"""

import subprocess
import sys

import pytest

from lifelens import updown
from lifelens.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestLife:
    def test_block_is_still(self, capsys, tmp_path):
        pattern = tmp_path / "block.txt"
        pattern.write_text("OO\nOO\n")
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

    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "life", "/no/such/pattern.txt")
        assert code == 2
        assert out == ""
        assert "cannot read" in err

    def test_bad_character_reports_position(self, capsys, tmp_path):
        pattern = tmp_path / "bad.txt"
        pattern.write_text("O?\n")
        code, _, err = run_cli(capsys, "life", str(pattern))
        assert code == 2
        assert "line 1, column 2" in err
        assert "'?'" in err

    def test_bad_viewport(self, capsys, tmp_path):
        pattern = tmp_path / "p.txt"
        pattern.write_text("O\n")
        for viewport in ("1,2,3", "a,b,c,d", ",,,"):
            code, out, err = run_cli(capsys, "life", str(pattern), "--viewport", viewport)
            assert (code, out) == (2, "")
            assert err == ("lifelens life: viewport must be X0,Y0,WIDTH,HEIGHT "
                           f"integers, got '{viewport}'\n")

    def test_non_ascii_byte_reports_position(self, capsys, tmp_path):
        pattern = tmp_path / "accent.txt"
        pattern.write_bytes("O.\n.O\u00e9\n".encode("utf-8"))
        code, out, err = run_cli(capsys, "life", str(pattern))
        assert code == 2
        assert out == ""
        assert err == "lifelens life: line 2, column 3: non-ASCII byte 0xc3\n"


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
        code, out, _ = run_cli(capsys, "observe", "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "start,end,intelligence,terminated,contradictory,witness_a,witness_b,"
            "env_deterministic,env_witness_a,env_witness_b",
            "0,14,14,True,False,,,True,,",
        ]

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

    def test_negative_steps(self, capsys):
        code, _, err = run_cli(capsys, "observe", "--steps", "-2")
        assert code == 2
        assert "non-negative" in err


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

    def test_strategy_and_n_must_agree(self, capsys):
        code, _, err = run_cli(capsys, "updown", "--strategy", "UDU", "--n", "5")
        assert code == 2
        assert "implies n=4" in err

    def test_matching_n_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "updown", "--strategy", "UDU", "--n", "4")
        assert code == 0
        assert "wins 5 of 24" in out

    def test_bad_strategy_text(self, capsys):
        code, _, err = run_cli(capsys, "updown", "--strategy", "UDX")
        assert code == 2
        assert "'X'" in err

    def test_table_runs_the_dp_once_per_word(self, capsys, monkeypatch):
        calls = []
        dp = updown.victories_dp

        def counted(strategy):
            calls.append(strategy)
            return dp(strategy)

        monkeypatch.setattr(updown, "victories_dp", counted)
        code, out, _ = run_cli(capsys, "updown", "--n", "12")
        assert code == 0
        assert len(calls) == 2 ** 11
        assert out.splitlines()[-1].startswith("maximizer: UDUDUDUDUDU with ")


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

    def test_invalid_population(self, capsys):
        code, _, err = run_cli(capsys, "coop", "--population", "0")
        assert code == 2
        assert "positive" in err


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

    @pytest.mark.parametrize("days", ["0", "-3"])
    def test_week_without_days_is_rejected(self, capsys, days):
        code, out, err = run_cli(capsys, "market", "--days", days)
        assert code == 2
        assert out == ""
        assert err == f"lifelens market: the week needs at least one day, got {days}\n"


class TestTheorem:
    def test_small_sweep_is_clean(self, capsys):
        code, out, _ = run_cli(capsys, "theorem", "--trials", "60",
                               "--max-len", "20", "--seed", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("exhaustive sweep: 4092 episodes, ")
        assert lines[1].startswith("randomized sweep: 60 episodes, ")
        assert lines[2] == "violations: 0"


# Rows are (id, argv, pattern). PATH in argv stands for a path under
# tmp_path that holds the pattern's bytes, is a directory (DIR) or does
# not exist (None).
PATH = "<pattern>"
DIR = object()
BAD_INPUTS = [
    ("life-missing-file", ("life", PATH), None),
    ("life-directory", ("life", PATH), DIR),
    ("life-bad-character", ("life", PATH), b"O?\n"),
    ("life-non-ascii-byte", ("life", PATH), "O.\n.O\u00e9\n".encode("utf-8")),
    ("life-bad-viewport", ("life", PATH, "--viewport", "0,0,-1,2"), b"O\n"),
    ("life-negative-steps", ("life", PATH, "--steps", "-1"), b"O\n"),
    ("observe-negative-steps", ("observe", "--steps", "-2"), None),
    ("updown-n-1", ("updown", "--n", "1"), None),
    ("updown-n-17", ("updown", "--n", "17"), None),
    ("updown-bad-strategy", ("updown", "--strategy", "UDX"), None),
    ("updown-strategy-n-mismatch", ("updown", "--strategy", "UDU", "--n", "5"), None),
    ("coop-population-0", ("coop", "--population", "0"), None),
    ("coop-flip-probability-2", ("coop", "--flip-probability", "2"), None),
    ("market-tests-0", ("market", "--tests", "0"), None),
    ("market-days-0", ("market", "--days", "0"), None),
    ("theorem-trials-negative", ("theorem", "--trials", "-1"), None),
    ("theorem-max-len-0", ("theorem", "--max-len", "0"), None),
]


class TestBadInput:
    """Bad input exits 2 with nothing on stdout and one stderr line."""

    @pytest.mark.parametrize("argv, pattern",
                             [row[1:] for row in BAD_INPUTS],
                             ids=[row[0] for row in BAD_INPUTS])
    def test_exits_2_with_one_stderr_line(self, capsys, tmp_path, argv, pattern):
        path = tmp_path / "pattern.txt"
        if pattern is DIR:
            path.mkdir()
        elif pattern is not None:
            path.write_bytes(pattern)
        code, out, err = run_cli(capsys, *(str(path) if a == PATH else a for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith(f"lifelens {argv[0]}: ")
        assert err.endswith("\n") and err.count("\n") == 1

    def test_module_entry_point_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lifelens", "observe", "--steps", "-2"],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("lifelens observe: ")
        assert proc.stderr.count("\n") == 1


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
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [
            "strategy,wins,total",
            "UU,1,6", "UD,2,6", "DU,2,6", "DD,1,6",
        ]
