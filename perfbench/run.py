"""Benchmark of the scusum pipeline: whole CLI commands, timed end to end.

    python3 perfbench/run.py --workload sweep_closed_form --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports the package from ``src/`` of the
same checkout and works in ``.perfbench_work/<workload>/`` there. Workloads
(see ``workloads.py`` for why each exists): ``sweep_closed_form``,
``train_scorenet``, ``detect_mocap``.

Each run is a closed loop: one client in this one process runs passes back to
back, a pass being the workload's CLI calls made in-process through
``scusum.cli.main``. BLAS threads stay at the library default, which the
platform record reports. A run:

1. sets up at least three times and for at least five seconds; ``setup_s``
   is the median time of one set-up. A set-up loads the package in a fresh
   interpreter, as every ``scusum`` command does when it starts, then
   generates every input from ``--seed`` into a fresh work directory (for
   ``detect_mocap`` it also fits the two score networks with ``scusum
   train``). The in-process passes never pay the load, so work moved into
   import time shows in ``setup_s``;
2. builds the references of the output checks once, outside any timing;
3. runs one warm-up pass, then passes until ``--seconds`` have elapsed;
4. checks the outputs of every CLI call after its pass, outside the timing;
5. runs one more pass with every CLI call in a fresh process of its own
   (``one_call.py``), the way a user runs ``scusum <command>``:
   ``peak_rss_mb`` is the largest peak resident set among those processes.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports per-layer metrics from
spans recorded around the public functions of each package module
(``spans.py``); ``trace.overhead_s`` is the traced minus the untraced median
pass time. A human-readable report goes to stdout first; the last line is a
JSON object with ``correct``, ``attempted``, ``failed`` (CLI calls, a call
failing when it exits non-zero or its output check fails) and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 5.0  # short set-ups repeat more, so their median is steadier
LOAD_PACKAGE = "import sys; sys.path.insert(0, sys.argv[1]); import scusum.cli"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "transitions_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metrics measured by the run itself rather than read off spans
EXTRA_LAYER_METRICS = ("trace.pass_s", "trace.overhead_s", "blas.dgemm_peak_gflops",
                       "scorenet.score_rel_error")

TRANSITION_UNITS = {
    "sweep_closed_form": "chain steps simulated",
    "train_scorenet": "training pairs x epochs",
    "detect_mocap": "pairs scored by both networks",
}


def per_layer_units(names) -> dict[str, str]:
    """Unit of each per-layer metric, read off its name."""
    units = {}
    for name in names:
        if name.endswith("gflops"):
            units[name] = "GFLOP/s"
        elif name.endswith("_per_s"):
            units[name] = "1/s"
        elif name.endswith("flop_per_pair"):
            units[name] = "flop"
        elif name.endswith("bytes_per_pair"):
            units[name] = "B"
        elif name.endswith((".alarms", ".steps")):
            units[name] = "count"
        elif name.endswith("rel_error"):
            units[name] = "ratio"
        else:
            units[name] = "s"
    return units


class Runner:
    """Runs passes of one workload and keeps the tallies of its CLI calls."""

    def __init__(self, workload, run_cli):
        self.workload = workload
        self.run_cli = run_cli
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, tracing=None) -> float:
        """Time one pass, then check every call's outputs; returns the wall time.

        ``tracing`` is a context manager held around the timed calls only, so
        that the checks are neither timed nor traced.
        """
        calls = self.workload.calls()
        with tracing or contextlib.nullcontext():
            t0 = time.perf_counter()
            codes = [self.run_cli(call.argv) for call in calls]
            wall = time.perf_counter() - t0
        self._check(calls, codes)
        return wall

    def run_pass_in_processes(self) -> float:
        """Run and check one pass with each call in a fresh process of its own.

        That is how a user runs ``scusum <command>``. Returns the largest peak
        resident set of those processes in MB (NaN if every call failed).
        """
        calls = self.workload.calls()
        codes, peaks = [], []
        for call in calls:
            child = subprocess.run([sys.executable, str(HERE / "one_call.py"), str(SRC), *call.argv],
                                   stdout=subprocess.PIPE, text=True)
            codes.append(child.returncode)
            if child.returncode == 0:
                peaks.append(int(child.stdout.split()[-1]) / 1024)
        self._check(calls, codes)
        return max(peaks, default=math.nan)

    def _check(self, calls, codes) -> None:
        for call, code in zip(calls, codes):
            self.attempted += 1
            if code != 0:
                problems = [f"exit code {code}"]
            else:
                try:
                    problems = call.check()
                except (OSError, ValueError, KeyError, IndexError) as err:
                    problems = [f"unreadable output: {err!r}"]
            if problems:
                self.failed += 1
                self.problems.append(f"{' '.join(call.argv)}: {'; '.join(problems)}")


def set_up(workload_cls, work: Path, seed: int):
    """Fresh work directory, then the timed set-up; returns (workload, seconds).

    The timed part loads the package in a fresh interpreter, then runs the
    workload's ``setup``.
    """
    os.chdir(ROOT)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    workload = workload_cls(work, seed)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", LOAD_PACKAGE, str(SRC)], check=True)
    workload.setup()
    return workload, time.perf_counter() - t0


def set_up_repeatedly(workload_cls, work: Path, seed: int, repeats: int, min_seconds: float):
    """Set up until ``repeats`` set-ups are done and ``min_seconds`` have elapsed."""
    times = []
    deadline = time.perf_counter() + min_seconds
    while len(times) < repeats or time.perf_counter() < deadline:
        workload, seconds = set_up(workload_cls, work, seed)
        times.append(seconds)
    return workload, times


def high_percentile(values):
    """Highest percentile with at least ten samples above it, (pct, value), if above p50."""
    n = len(values)
    pct = math.floor(100 * (n - 10) / n)
    if pct <= 50:
        return None
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, sorted(values)[rank - 1]


def measure(runner: Runner, seconds: float) -> list[float]:
    walls = []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        walls.append(runner.run_pass())
    return walls


def measure_traced(runner: Runner, seconds: float, spans):
    """Alternate untraced and traced passes; returns both wall lists and pass metrics."""
    tracer = spans.Tracer()
    plain, traced, metrics = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(runner.run_pass())
        tracer.trace += 1
        traced.append(runner.run_pass(spans.instrumented(tracer)))
        metrics.append(spans.pass_metrics([s for s in tracer.spans if s.trace == tracer.trace]))
    return plain, traced, metrics


def report_line(name: str, value, unit: str, note: str = "") -> str:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<40} {text:>14} {unit:<8} {note}".rstrip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scusum" / "__init__.py").is_file():
        print(f"error: no scusum package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import machine
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    platform_record = machine.record()
    print("platform " + json.dumps(platform_record, sort_keys=True))
    work = ROOT / ".perfbench_work" / args.workload
    cls = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            workload, setup_times = set_up_repeatedly(cls, work, args.seed, 1, 0.0)
        else:
            workload, setup_times = set_up_repeatedly(cls, work, args.seed, SETUP_REPEATS,
                                                      SETUP_MIN_SECONDS)
        workload.prepare_checks()
        runner = Runner(workload, workloads.run_cli)
        runner.run_pass()  # warm-up: caches, lazy imports, first-touch allocations
        if args.trace:
            plain, traced, per_pass = measure_traced(runner, args.seconds, spans)
            walls = traced
        else:
            walls = measure(runner, args.seconds)
            peak_rss_mb = runner.run_pass_in_processes()
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work.parent, ignore_errors=True)

    for problem in runner.problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    wall = statistics.median(walls)
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} passes in a closed loop "
          f"(1 client, 1 process, {platform_record['blas_threads']} BLAS threads), "
          f"{runner.attempted} CLI calls")
    if args.trace:
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["trace.pass_s"] = wall
        metrics["trace.overhead_s"] = wall - statistics.median(plain)
        metrics["blas.dgemm_peak_gflops"] = machine.dgemm_gflops()
        metrics["scorenet.score_rel_error"] = workload.score_rel_error
        units = per_layer_units(metrics)
        layer_total = sum(v for k, v in metrics.items() if k.count(".") == 1 and k.endswith(".self_s"))
        for name, value in metrics.items():
            note = ""
            if name.count(".") == 1 and name.endswith(".self_s") and layer_total > 0:
                note = f"{100 * value / layer_total:.1f}% of the time in package layers"
            print(report_line(name, value, units[name], note))
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "transitions_per_s": workload.transitions_per_pass / wall,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        tail = high_percentile(walls)
        notes = {
            "setup_s": f"median of {len(setup_times)} set-ups",
            "wall_s": f"median of {len(walls)} passes; "
                      + (f"p{tail[0]} {tail[1]:.6g} s" if tail else "no percentile above the median "
                         "has 10 passes beyond it"),
            "transitions_per_s": TRANSITION_UNITS[args.workload],
            "peak_rss_mb": "largest peak resident set of one CLI call run in its own process",
        }
        for name, value in metrics.items():
            print(report_line(name, value, units[name], notes[name]))
        print(report_line("failed_fraction", runner.failed / runner.attempted, "",
                          f"{runner.failed} of {runner.attempted} CLI calls"))
        if args.workload == "train_scorenet":
            print(report_line("score_rel_error", workload.score_rel_error, "ratio",
                              "held-out, against the closed-form score"))

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
