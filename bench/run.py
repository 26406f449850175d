"""Benchmark of the lifelens command line and library, one workload per run.

    python3 bench/run.py --workload {defaults,scaled,soup} --seed N --seconds S --trace {0,1}

Run from anywhere; it benchmarks the checkout it sits in (`src/lifelens`)
and writes only there. One client runs passes back to back (a closed
loop, as a batch CLI is used) for about S seconds of measured time; each
pass runs every operation of the workload once, and every output is
checked untimed after its pass (see workloads.py).

With --trace 0 it reports the end-to-end metrics: run_s and cpu_s (median
per pass), setup_s (median over fresh interpreters that import lifelens
and build the CLI parser) and peak_rss_mib (this process). The times are
in reference seconds (see calibrate.py): slices of a fixed kernel run
interleaved with the measured work, and each time is scaled by how fast
the slices beside it ran, so that a host whose speed drifts gives the
same figures. The raw times are printed too. With --trace 1 it
alternates plain and traced passes and reports the per-layer metrics of
tracer.layer_metrics, medians over traced passes, plus
trace.overhead_ratio; the spans go to .bench-out/ in the checkout.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("defaults", "scaled", "soup")
END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
SETUP_STARTS = 21
SETUP_SLICES = 8
"""Gauge slices run back to back before and after the timed set-up."""

# Run in a fresh interpreter: warm up the import-free kernel, time slices
# of it, import the package and build the parser, time slices again.
SETUP_PROBE = """\
import sys, time
src, bench, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.append(bench)
from kernel import kernel_slice
def slices():
    start = time.perf_counter()
    for _ in range(count):
        kernel_slice()
    return time.perf_counter() - start
slices()
before = slices()
start = time.perf_counter()
sys.path.insert(0, src)
import lifelens.cli
lifelens.cli.build_parser()
setup = time.perf_counter() - start
print(setup, before + slices())
"""


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "observe.episodes":
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def measure_setup() -> tuple[list[float], list[float]]:
    """(raw, reference) setup_s samples, from fresh interpreters started
    one at a time; each times gauge slices around its own set-up.

    The first start is not kept: it may compile bytecode, which a user
    pays once, not on every run.
    """
    from calibrate import to_reference

    raw, reference = [], []
    for k in range(SETUP_STARTS + 1):
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(HERE),
                               str(SETUP_SLICES)],
                              capture_output=True, text=True, timeout=60, check=True)
        if k:
            seconds, slice_seconds = map(float, done.stdout.split())
            raw.append(seconds)
            reference.append(to_reference(seconds, slice_seconds, 2 * SETUP_SLICES))
    return raw, reference


def measure(ops, seconds: float, traced: bool) -> tuple[list, list]:
    """Closed loop over passes until about `seconds` of measured time.

    Returns (plain passes, traced passes with their tracers). Plain passes
    run with the gauge; traced runs alternate a plain and a traced pass,
    so both see the same machine.
    """
    # Both import lifelens, which main has just put on the path.
    import calibrate
    import tracer
    import workloads

    plain, with_trace = [], []
    elapsed = 0.0
    while True:
        gauge = calibrate.Gauge()
        with gauge.running():
            step = workloads.run_pass(ops, gauge=gauge)
        plain.append(step)
        last = step.wall_s + step.slice_wall_s
        if traced:
            tr = tracer.Tracer()
            with tr.installed():
                step = workloads.run_pass(ops, tr)
            with_trace.append((step, tr))
            last += step.wall_s
        elapsed += last
        if elapsed + last / 2 >= seconds:
            return plain, with_trace


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles (the median itself stands in for one sample)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def git_head() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_trace(workload: str, seed: int, traced: list) -> Path:
    out = ROOT / ".bench-out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-seed{seed}.json"
    passes = [{
        "wall_s": step.wall_s,
        "calls": dict(tr.calls),
        "seconds": dict(tr.seconds),
        "spans": [dict(zip(("op", "id", "parent", "name", "start", "end"), span))
                  for span in tr.spans],
    } for step, tr in traced]
    path.write_text(json.dumps({"workload": workload, "seed": seed, "passes": passes}))
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "lifelens" / "__init__.py").is_file():
        print(f"bench: no lifelens source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads
    from calibrate import to_reference

    setup_raw, setup = ([], []) if args.trace else measure_setup()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        wl = workloads.BUILDERS[args.workload](args.seed, Path(tmp))
        plain, traced = measure(wl.ops, args.seconds, bool(args.trace))
    steps = plain + [step for step, _ in traced]
    attempted = sum(step.attempted for step in steps)
    failures = [f for step in steps for f in step.failures]

    samples: dict[str, list[float]] = {}
    if args.trace:
        per_pass = [tracer.layer_metrics(tr) for _, tr in traced]
        for name in per_pass[0]:
            samples[name] = [m[name] for m in per_pass]
        overhead = (statistics.median(step.wall_s for step, _ in traced)
                    / statistics.median(step.wall_s for step in plain))
        samples["trace.overhead_ratio"] = [overhead]
        units = {name: layer_unit(name) for name in samples}
        trace_path = write_trace(args.workload, args.seed, traced)
    else:
        samples["run_s"] = [to_reference(step.wall_s, step.slice_wall_s, step.slices)
                            for step in plain]
        samples["cpu_s"] = [to_reference(step.cpu_s, step.slice_cpu_s, step.slices)
                            for step in plain]
        samples["setup_s"] = setup
        samples["peak_rss_mib"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
        units = END_TO_END_UNITS

    print(f"# lifelens bench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"git HEAD {git_head()}")
    print(f"# passes: {len(plain)} plain, {len(traced)} traced; operations attempted "
          f"{attempted}, failed {len(failures)}, failed_ratio {len(failures) / attempted:g}")
    for failure in failures:
        print(f"# FAILED {failure}")
    print("# raw pass wall times, s: " + " ".join(f"{step.wall_s:.4f}" for step in plain))
    if not args.trace:
        print("# reference pass wall times, s: "
              + " ".join(f"{value:.4f}" for value in samples["run_s"]))
    print("# gauge slices per pass, mean ms: " + " ".join(
        f"{step.slices}, {1e3 * step.slice_wall_s / max(step.slices, 1):.3f}" for step in plain))
    if setup_raw:
        print(f"# raw setup time, s: median {statistics.median(setup_raw):.6g}")
    if args.trace:
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    metrics = {}
    for name, values in samples.items():
        median, q1, q3 = summary(values)
        metrics[name] = {"value": median, "unit": units[name]}
        print(f"{name:34} {median:>14.6g} {units[name]:6} "
              f"median (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
