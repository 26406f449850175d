"""Tests of the benchmark itself: seeded inputs, repeatable counters,
failure accounting, metric names, the speed gauge, and the oracles the
checks rest on.

    python3 -m pytest bench/tests
"""

import ast
import dataclasses
import json
import random
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import kernel
import oracles
import run
import tracer
import workloads
from lifelens import ca, observe

SMALL_SOUP = 40
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def traced_pass(ops):
    tr = tracer.Tracer()
    with tr.installed():
        result = workloads.run_pass(ops, tr)
    return result, tr


def counts(tr):
    return {name: value for name, value in tracer.layer_metrics(tr).items()
            if run.layer_unit(name) == "count"}


def by_label(workload, label):
    return next(op for op in workload.ops if op.label == label)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = workloads.BUILDERS[name](7, tmp_path / "a")
    again = workloads.BUILDERS[name](7, tmp_path / "b")
    assert first.inputs == again.inputs
    assert [op.label for op in first.ops] == [op.label for op in again.ops]


def test_seed_changes_the_generated_inputs(tmp_path):
    assert (workloads.build_soup(7, tmp_path).inputs["soup-7.txt"]
            != workloads.build_soup(8, tmp_path).inputs["soup-8.txt"])
    assert "coop --seed 8" in [op.label for op in workloads.build_defaults(8, tmp_path).ops]


@pytest.fixture(params=["defaults", "soup"])
def small_workload(request, tmp_path):
    if request.param == "soup":
        return workloads.build_soup(3, tmp_path, size=SMALL_SOUP)
    return workloads.build_defaults(3, tmp_path)


def test_counters_repeat_across_traced_passes(small_workload):
    first, tr_first = traced_pass(small_workload.ops)
    again, tr_again = traced_pass(small_workload.ops)
    assert first.failures == again.failures == ()
    assert counts(tr_first) == counts(tr_again)
    assert counts(tr_first)["ca.life_step.calls"] > 0


def test_tracing_restores_the_program():
    before = (ca.run, observe.find_glider, observe.substream)
    with tracer.Tracer().installed():
        assert observe.find_glider is not before[1]
    assert (ca.run, observe.find_glider, observe.substream) == before


def test_untraced_pass_is_correct(small_workload):
    result = workloads.run_pass(small_workload.ops)
    assert result.attempted == len(small_workload.ops)
    assert result.failures == ()


def corrupt_stdout(op, edit):
    def run_op(ctx):
        code, out, err = op.run(ctx)
        return code, edit(out), err
    return dataclasses.replace(op, run=run_op)


def _flip_first_digit(text):
    return re.sub(r"\d", lambda m: str((int(m[0]) + 1) % 10), text, count=1)


@pytest.mark.parametrize("label, edit", [
    # fixed input: caught by the frozen digest
    ("observe", lambda out: out.replace("intelligence 14", "intelligence 15")),
    # seeded input: caught by the comparison counts, which must sum to --tests
    ("market --seed 3", lambda out: out.replace("ties:", "ties: 1", 1)),
    ("market --seed 3 --format csv", lambda out: out.rsplit("\n", 2)[0] + "\n"),
    ("coop --seed 3 --format csv", lambda out: out + "100,0,0,0,False,C,0.5\n"),
    ("updown --format csv", _flip_first_digit),
    ("theorem --seed 3", lambda out: out.replace("violations: 0", "violations: 1")),
])
def test_corrupted_stdout_counts_as_failed(label, edit, tmp_path):
    wl = workloads.build_defaults(3, tmp_path)
    op = by_label(wl, label)
    assert workloads.run_pass([op]).failures == ()
    result = workloads.run_pass([corrupt_stdout(op, edit)])
    assert result.attempted == 1
    assert len(result.failures) == 1 and result.failures[0].startswith(label)


def test_corrupted_soup_state_counts_as_failed(tmp_path):
    wl = workloads.build_soup(3, tmp_path, size=SMALL_SOUP)
    step = wl.ops[0]

    def broken_step(ctx):
        trace = step.run(ctx)
        ctx["trace"] = ca.Trace(trace.states[:-1] + (ca.CAState(),))
        return ctx["trace"]

    result = workloads.run_pass([dataclasses.replace(step, run=broken_step), *wl.ops[1:]])
    assert result.attempted == len(wl.ops)
    assert any(f.startswith("ca.run soup: state") for f in result.failures)


def test_raising_and_stderr_count_as_failed(tmp_path):
    wl = workloads.build_defaults(3, tmp_path)
    op = by_label(wl, "updown")

    def raises(ctx):
        raise RuntimeError("boom")

    result = workloads.run_pass([
        dataclasses.replace(op, run=raises),
        dataclasses.replace(op, run=lambda ctx: (0, op.run(ctx)[1], "warning\n")),
        dataclasses.replace(op, run=lambda ctx: workloads.call_cli(["updown", "--n", "1"])),
        op,
    ])
    assert result.attempted == 4
    assert len(result.failures) == 3


def test_metric_names_and_units_match_the_benchmark_file():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = [*tracer.layer_metrics(tracer.Tracer()), "trace.overhead_ratio"]
    assert ({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
            == {name: run.layer_unit(name) for name in layer_names})
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_run_prints_every_metric_then_one_json_line(capsys):
    assert run.main(["--workload", "defaults", "--seed", "5", "--seconds", "0.1",
                     "--trace", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0
        assert any(line.startswith(name) and metric["unit"] in line for line in lines[:-1])


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "defaults",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_oracle_life_rule():
    blinker = {(0, 1), (1, 1), (2, 1)}
    states, offset = oracles.evolve(blinker, 2)
    assert oracles.rows_to_cells(states[1], offset) == {(1, 0), (1, 1), (1, 2)}
    assert oracles.rows_to_cells(states[2], offset) == blinker
    glider = oracles.parse_cells(oracles.GLIDER_TEXT)
    states, offset = oracles.evolve(glider, 4)
    assert oracles.rows_to_cells(states[4], offset) == {(x + 1, y + 1) for x, y in glider}


def test_oracle_life_rule_matches_a_neighbour_count():
    rng = random.Random(0)
    cells = {(x, y) for x in range(-6, 6) for y in range(-6, 6) if rng.random() < 0.4}
    states, offset = oracles.evolve(cells, 1)
    near = {(x + dx, y + dy) for x, y in cells for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
    expected = set()
    for x, y in near:
        n = sum((x + dx, y + dy) in cells
                for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy)
        if n == 3 or (n == 2 and (x, y) in cells):
            expected.add((x, y))
    assert oracles.rows_to_cells(states[1], offset) == expected


def test_oracle_glider_detection():
    glider = oracles.parse_cells(oracles.GLIDER_TEXT)
    assert oracles.isolated_glider(glider) == frozenset(glider)
    assert oracles.isolated_glider(glider | {(3, 3)}) is None  # touches the glider
    far = {(x + 10, y) for x, y in glider}
    assert oracles.isolated_glider(glider | far) == frozenset(glider)
    assert oracles.isolated_glider({(0, 0), (1, 0), (0, 1), (1, 1)}) is None


def test_oracle_zigzag_numbers():
    assert [oracles.zigzag(n) for n in range(8)] == [1, 1, 1, 2, 5, 16, 61, 272]
    assert oracles.zigzag(10) == 50521
    assert oracles.zigzag(16) == 19391512145


def test_reference_seconds_scale_with_slice_speed():
    ref = calibrate.SLICE_REFERENCE_S
    assert calibrate.to_reference(2.0, 10 * ref, 10) == pytest.approx(2.0)
    assert calibrate.to_reference(2.0, 20 * ref, 10) == pytest.approx(1.0)


def test_kernel_slice_is_fixed_work_without_imports():
    assert kernel.kernel_slice() == kernel.kernel_slice()
    tree = ast.parse(Path(kernel.__file__).read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_gauge_slices_are_taken_out_of_the_pass(tmp_path):
    wl = workloads.build_soup(3, tmp_path, size=SMALL_SOUP)
    before = signal.getsignal(signal.SIGALRM)
    gauge = calibrate.Gauge()
    with gauge.running():
        result = workloads.run_pass(wl.ops, gauge=gauge)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert result.failures == ()
    assert 0 < result.slices <= gauge.slices
    assert 0 < result.slice_wall_s <= gauge.wall_s
    assert result.wall_s > 0
