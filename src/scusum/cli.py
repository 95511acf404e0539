"""Command-line entry point.

Subcommands: ``simulate``, ``train``, ``detect``, ``sweep``, ``bounds``,
``mocap``. Each reads its JSON config with ``scusum.config.load_config``,
which checks every config rule before any work starts; the rules are listed
in ``scusum.config``. Only what depends on the data is checked here.

Each command writes its outputs (CSV series; plotting is left to external
tooling) and a ``manifest.json`` echoing the config as read, with every
default filled in and no value rewritten, so any run can be reproduced from
its manifest alone. ``train``, ``detect``, ``sweep`` and ``mocap`` also
write a ``metrics.json`` with the wall time and the process's peak resident
set (its high-water mark so far) at the end of each stage; ``bounds`` writes
the values it prints to ``bounds.json``. JSON outputs are strict JSON: a
non-finite number is written as the string ``"inf"``, ``"-inf"`` or ``"nan"``.

Exit codes: 0 success, 1 internal errors (a fault in a command, not in its
input), 2 usage/config errors, 3 data errors (trajectory CSVs, AMC files,
``model.bin`` files), 4 numeric/training errors, 5 I/O errors or out of
memory.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict
from itertools import chain, pairwise
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__, _textio, bounds, detector, markov, mocap, scorenet
from .exceptions import AmcError, ModelFileError, NumericsError, TrainingError

if TYPE_CHECKING:
    from .config import (BoundsConfig, DetectConfig, KernelsConfig, MocapConfig, ModelsConfig,
                         SimulateConfig, SweepConfig, TrainCommandConfig)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_IO = 5


def _read_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise ValueError(f"config {path} is not valid JSON: {err}") from err


def _strict(obj):
    """``obj`` with each non-finite float as the string ``"inf"``, ``"-inf"`` or ``"nan"``."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


def _write_json(path: Path, obj, sort_keys: bool = False) -> None:
    with open(path, "w") as fh:
        json.dump(_strict(obj), fh, indent=2, sort_keys=sort_keys, allow_nan=False)
        fh.write("\n")


def _peak_rss_mb() -> float | None:
    """The process's peak resident set so far (``VmHWM``) in MB, or None without /proc."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


class _Stages:
    """The ``stages`` record of a ``metrics.json``, one entry per stage in order.

    A stage records its wall seconds, each item count with its rate, and
    ``peak_rss_mb``: the process's high-water resident set (``VmHWM``) read
    as the stage ends, or None where ``/proc`` is absent. It is the peak of
    the whole process so far, not of the stage alone, so it never decreases
    from one stage to the next. A stage that runs in blocks, interleaved
    with another (``sweep`` simulates and scores one block at a time), is
    ended once per block with ``block=True``: its wall seconds and counts
    add up over its blocks, it records their number as ``blocks``, and its
    ``peak_rss_mb`` is read as its last block ends. ``peak_stage`` is the
    stage during which the high-water mark last rose, which is the stage
    that set the run's peak even when stages interleave.
    """

    def __init__(self):
        self.records: dict[str, dict] = {}
        self.peak_stage: str | None = None
        self._peak = _peak_rss_mb()
        self._last = time.perf_counter()

    def end(self, name: str, block: bool = False, **counts) -> None:
        now = time.perf_counter()
        record = self.records.setdefault(name, {"wall_s": 0.0})
        record["wall_s"] += now - self._last
        seconds = record["wall_s"]
        if block:
            record["blocks"] = record.get("blocks", 0) + 1
        for item, count in counts.items():
            record[item] = record.get(item, 0) + count
            record[f"{item}_per_s"] = record[item] / seconds if seconds > 0 else None
        peak = _peak_rss_mb()
        if peak is not None and (self._peak is None or peak > self._peak):
            self._peak, self.peak_stage = peak, name
        # the running maximum: two VmHWM reads can fall by a few pages, since
        # the kernel keeps RSS in batched per-CPU counters
        record["peak_rss_mb"] = self._peak
        self._last = now

    def metrics(self) -> dict:
        """The ``stages`` record and ``peak_rss_stage``, the stage that set the run's peak."""
        return {"stages": self.records, "peak_rss_stage": self.peak_stage}


def _staged_blocks(stages: _Stages, blocks, make: str, use: str):
    """Yield ``blocks``, timing each one's making as a block of stage ``make`` and its use as one of ``use``.

    ``make`` counts the states of each block and ``use`` the increments it
    gives: its inner pairs and the pair that crosses into it from the block
    before. A block is dropped here once its user asks for the next one.
    """
    first = True
    for block in blocks:
        n = len(block)
        stages.end(make, block=True, states=n)
        yield block
        del block
        stages.end(use, block=True, increments=n - 1 if first else n)
        first = False


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(config: SimulateConfig, out_dir: Path) -> tuple[list[str], dict | None]:
    states = markov.simulate_path(config.trajectory())  # raises on a non-finite state
    path = out_dir / "trajectory.csv"
    # state n (row n - 1) is the first post-change one from n = change_time on
    markov.write_trajectory_csv(path, states, post_from=config.change_time - 1)
    print(f"wrote {path} ({states.shape[0]} steps, dim {config.kernel.dim})")
    return [path.name], None


def _read_states_csv(path) -> np.ndarray:
    """States of a trajectory CSV, every cell but the regime column read with ``float()``.

    A row whose field count differs from the header's, or with a malformed or
    non-finite value, is rejected with its ``path:line``; a file with fewer
    than two rows (one transition pair) with its path.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise AmcError(f"{path}: empty trajectory CSV") from None
        cols = [i for i, name in enumerate(header) if name != "regime"]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise AmcError(f"{path}:{lineno}: row has {len(row)} fields, the header {len(header)}")
            try:
                values = [float(row[i]) for i in cols]
            except ValueError:
                raise AmcError(f"{path}:{lineno}: malformed trajectory row") from None
            if not all(map(math.isfinite, values)):
                raise AmcError(f"{path}:{lineno}: non-finite value in trajectory row")
            rows.append(values)
    if len(rows) < 2:
        raise AmcError(f"{path}: trajectory has {len(rows)} rows, need at least 2")
    return np.asarray(rows)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(config: TrainCommandConfig, out_dir: Path) -> tuple[list[str], dict | None]:
    stages = _Stages()
    data = config.data
    oracle = None
    if data.csv is not None:
        pairs = markov.PairBatch.from_states(_read_states_csv(data.csv))
    else:
        pairs = markov.stationary_pairs(data.kernel, data.pairs, seed=data.seed, burn_in=data.burn_in)
        oracle = markov.closed_form_score(data.kernel)
    stages.end("data", pairs=len(pairs))

    arch = scorenet.MlpArchitecture(
        input_dim=2 * pairs.dim,
        hidden_widths=config.architecture.hidden_widths,
        output_dim=pairs.dim,
    )
    epochs = []

    def record_epoch(epoch, loss, seconds):
        epochs.append({"epoch": epoch, "loss": loss, "wall_s": seconds,
                       "pairs_per_s": len(pairs) / seconds})

    params, history = scorenet.train(
        arch, pairs, config.training, standardize=config.standardize, on_epoch=record_epoch
    )
    stages.end("fit", epochs=len(history))

    model_path = out_dir / "model.bin"
    scorenet.save_model(params, model_path)
    curve_path = out_dir / "loss_curve.csv"
    with open(curve_path, "w", newline="") as fh:
        _textio.write_rows(fh, ["epoch,loss", *(f"{i},{loss!r}" for i, loss in enumerate(history))])
    stages.end("write")

    print(f"trained {len(history)} epochs; final loss {history[-1]:.6g}")
    report = None
    if oracle is not None:
        report = scorenet.evaluate_accuracy(params, oracle, pairs)
        stages.end("evaluate", pairs=len(pairs))
        print(
            f"accuracy vs closed-form score (in-sample): mse={report.mse:.6g} "
            f"var_scale={report.var_scale:.6g} rel_error={report.rel_error:.6g}"
        )
    # built after the last stage ends, so peak_rss_stage can name any stage
    metrics = {"pairs": len(pairs), **stages.metrics(), "epochs": epochs}
    if report is not None:
        metrics["accuracy"] = {"sample": "in-sample: the training pairs", **asdict(report)}
    print(f"wrote {model_path}")
    return [model_path.name, curve_path.name], metrics


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def _resolve_fields(models: ModelsConfig, kernels: KernelsConfig):
    """The pre- and post-change score fields, checked to share a dimension once models are read."""
    field_pre, field_post = (
        markov.closed_form_score(kernel) if ref == "closed_form"
        else scorenet.as_score_field(scorenet.load_model(ref))
        for ref, kernel in ((models.pre, kernels.pre), (models.post, kernels.post)))
    if field_pre.dim != field_post.dim:
        raise ValueError(f"model dimensions differ: pre {field_pre.dim} vs post {field_post.dim}")
    return field_pre, field_post


def _diagnostics(report: detector.SweepReport) -> dict:
    """The clipped fraction, the exact peak of W and the clipped increments' drift of one scan."""
    return {"clipped_fraction": report.clipped_fraction, "peak_statistic": report.peak_statistic,
            "drift": asdict(report.drift)}


def cmd_detect(config: DetectConfig, out_dir: Path) -> tuple[list[str], dict | None]:
    field_pre, field_post = _resolve_fields(config.models, config.kernels)
    cp = config.change_time
    trajectory = config.trajectory()
    stages = _Stages()
    if trajectory is None:
        states = _read_states_csv(config.data.csv)
        (n_states, dim), blocks = states.shape, [states]
        if n_states < cp < math.inf:  # the rule a simulated stream's length gets at load
            raise ValueError(f"change_point = {cp} is past the end of {config.data.csv} "
                             f"({n_states} rows)")
    else:
        # a simulated stream is scored one block at a time, as it is stepped
        n_states, dim = trajectory.length, trajectory.pre.dim
        blocks = markov.path_blocks(trajectory)
    if dim != field_pre.dim:
        raise ValueError(f"data dimension {dim} does not match model dimension {field_pre.dim}")
    blocks = _staged_blocks(stages, blocks, "read", "score")
    increments = detector.stream_increments(field_pre, field_post, blocks, n_states)

    trunc = detector.TruncationSpec(config.detector.truncation)
    trace = detector.statistic_trace(increments, trunc)
    sweep = detector.threshold_sweep(increments, [config.detector.threshold], trunc)
    stages.end("scan", increments=len(increments))

    trace_path = out_dir / "trace.csv"
    # increment i covers the pair (state_{i+1}, state_{i+2}), so times start at 2
    detector.write_trace_csv(trace_path, increments, trace, first_time=2)
    alarm_times = [int(v) + 1 for v in np.cumsum(sweep[0].intervals)]
    summary = {
        "threshold": config.detector.threshold,
        "truncation": trunc.level,
        "alarm_times": alarm_times,
        "change_point": None if cp == math.inf else int(cp),
    }
    if cp != math.inf:
        summary["false_alarm_times"] = [t for t in alarm_times if t < cp]
        summary["delays"] = [t - int(cp) for t in alarm_times if t >= cp]
    summary_path = out_dir / "alarms.json"
    _write_json(summary_path, summary)
    stages.end("write", rows=len(increments))

    print(f"alarms at {alarm_times}" if alarm_times else "no alarm")
    if summary.get("delays"):
        print(f"first delay after change: {summary['delays'][0]}")
    return [trace_path.name, summary_path.name], {**stages.metrics(), **_diagnostics(sweep)}


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _drift(given, estimate: float):
    """(drift, provenance label): the config's number, or ``estimate`` for "empirical"."""
    if given == "empirical":
        return estimate, "empirical mean of truncated increments"
    return float(given), "explicit"


def _sweep_bounds(config: SweepConfig, drift_estimate):
    """The bound curve over the thresholds and the inputs it used, with provenance labels."""
    thresholds = config.thresholds
    mu, mu_label = config.resolved_mu()
    inputs = {"mu": {"value": mu, "provenance": mu_label}}
    if config.stream.law == "pre":
        delta, delta_label = _drift(config.bounds.delta, -drift_estimate)
        if delta <= 0:
            raise NumericsError(
                "estimated pre-change drift is not negative; cannot evaluate the false-alarm bound"
            )
        curve = bounds.bound_curve(delta, mu, thresholds)
        inputs["delta"] = {"value": delta, "provenance": delta_label}
        print(f"mu = {mu:.6g} ({mu_label}); delta = {delta:.6g} ({delta_label})")
        if any(b <= mu for b in thresholds):
            print(f"note: bound undefined (NaN) for thresholds <= mu = {mu:g}")
    else:
        drift, drift_label = _drift(config.bounds.post_drift, drift_estimate)
        if drift <= 0:
            raise NumericsError(
                "estimated post-change drift is not positive; cannot evaluate the delay bound"
            )
        curve = [(b, bounds.delay_upper_bound(b, mu, drift)[1]) for b in thresholds]
        inputs["post_drift"] = {"value": drift, "provenance": drift_label}
        print(f"mu = {mu:.6g} ({mu_label}); post drift = {drift:.6g} ({drift_label})")
        print("delay bound is asymptotic (leading order in n0)")
    return curve, inputs


def cmd_sweep(config: SweepConfig, out_dir: Path) -> tuple[list[str], dict | None]:
    field_pre, field_post = _resolve_fields(config.models, config.kernels)
    stages = _Stages()
    # the stream is stepped and scored one block at a time: only the
    # increments grow with its length
    blocks = _staged_blocks(stages, markov.path_blocks(config.trajectory()), "simulate", "score")
    increments = detector.stream_increments(field_pre, field_post, blocks, config.stream.length)

    trunc = detector.TruncationSpec(config.truncation)
    levels = {"sweep.csv": trunc}
    if config.compare_untruncated and trunc.level is not None:
        levels["sweep_untruncated.csv"] = detector.TruncationSpec()
    sweeps = {name: detector.threshold_sweep(increments, config.thresholds, level)
              for name, level in levels.items()}
    curve, bound_inputs = (None, None) if config.bounds is None else _sweep_bounds(
        config, sweeps["sweep.csv"].drift.mean)
    stages.end("scan", increments=len(increments))

    for name, report in sweeps.items():
        detector.write_sweep_csv(out_dir / name, report)
    outputs = list(sweeps)
    if curve is not None:
        bounds.write_bound_csv(out_dir / "bounds.csv", curve)
        outputs.append("bounds.csv")
    stages.end("write", rows=len(config.thresholds) * len(outputs))

    metrics = {**stages.metrics(), "truncation_levels": [
        {"output": name, "truncation": levels[name].level, **_diagnostics(report)}
        for name, report in sweeps.items()]}
    if bound_inputs is not None:
        metrics["bounds"] = bound_inputs
    for row in sweeps["sweep.csv"]:
        print(f"b={row.threshold:g} mean_run_length={row.mean:g} count={row.count}")
    return outputs, metrics


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def cmd_bounds(config: BoundsConfig, out_dir: Path) -> tuple[list[str], dict | None]:
    mu, mu_label = config.resolved_mu()
    delta = float(config.delta)
    b = float(config.threshold)
    print(f"mu = {mu:.6g} ({mu_label})")
    lower = bounds.false_alarm_lower_bound(delta, mu, b)
    print(f"false-alarm lower bound at b={b:g}: {lower:.6g}")
    values = {
        "mu": {"value": mu, "provenance": mu_label},
        "delta": delta,
        "threshold": b,
        "false_alarm_lower_bound": lower,
    }
    outputs = []
    if config.post_drift is not None:
        n0, delay = bounds.delay_upper_bound(b, mu, float(config.post_drift))
        print(f"delay bound at b={b:g}: n0 = {n0}, 1 + n0 = {delay:g} (asymptotic)")
        values["delay"] = {"post_drift": float(config.post_drift), "n0": n0,
                           "upper_bound": delay, "asymptotic": True}
    if config.thresholds:
        curve = bounds.bound_curve(delta, mu, [float(t) for t in config.thresholds])
        path = out_dir / "bounds.csv"
        bounds.write_bound_csv(path, curve)
        outputs.append(path.name)
        print(f"wrote {path}")
    values_path = out_dir / "bounds.json"
    _write_json(values_path, values)
    outputs.append(values_path.name)
    return outputs, None


# ---------------------------------------------------------------------------
# mocap
# ---------------------------------------------------------------------------

def _parse_amc_file(path):
    with open(path) as fh:
        # parse_amc gets the open file: perfbench's tracer counts the lines of
        # the file it names, and reads 0 lines/s for a list of lines
        try:
            return mocap.parse_amc(fh)
        except AmcError as err:
            raise AmcError(f"{path}: {err}") from err


def cmd_mocap(config: MocapConfig, out_dir: Path) -> tuple[list[str], dict | None]:
    stages = _Stages()
    pre_clip = _parse_amc_file(config.pre)
    post_clip = None if config.post is None else _parse_amc_file(config.post)
    stages.end("parse", lines=sum(clip.n_lines for clip in (pre_clip, post_clip) if clip is not None))
    result = mocap.build_scenario(mocap.ScenarioSpec(
        pre_clip, post_clip, config.splice_index, config.stride, config.standardize))
    n_frames, d = result.states.shape
    stages.end("build", frames=n_frames)

    # each state row is formatted once; pair row i is state rows i and i+1
    states_path = out_dir / "states.csv"
    pairs_path = out_dir / "pairs.csv"
    state_lines = markov.trajectory_csv_lines(result.states)
    header = next(state_lines)
    names = header[0].split(",")
    pair_header = ",".join([f"prev_{x}" for x in names] + [f"next_{x}" for x in names])
    with open(states_path, "w", newline="") as states_fh, \
            open(pairs_path, "w", newline="") as pairs_fh:
        _textio.write_rows(states_fh, header)
        _textio.write_rows(pairs_fh, [pair_header])
        last = []
        for rows in state_lines:
            _textio.write_rows(states_fh, rows)
            _textio.write_rows(pairs_fh, [a + "," + b for a, b in pairwise(chain(last, rows))])
            last = rows[-1:]
    stages.end("write", rows=n_frames + n_frames - 1)  # state rows and pair rows

    scenario = {
        "dimension": d,
        "n_frames": n_frames,
        "n_pairs": n_frames - 1,
        "change_index": None if result.change_index == math.inf else int(result.change_index),
        "standardized": result.state_mean is not None,
    }
    if result.state_mean is not None:
        scenario["state_mean"] = result.state_mean.tolist()
        scenario["state_scale"] = result.state_scale.tolist()
    scenario_path = out_dir / "scenario.json"
    _write_json(scenario_path, scenario)

    print(
        f"scenario: {scenario['n_frames']} frames, dimension {d}, "
        f"change index {scenario['change_index']}"
    )
    return [states_path.name, pairs_path.name, scenario_path.name], stages.metrics()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "detect": cmd_detect,
    "sweep": cmd_sweep,
    "bounds": cmd_bounds,
    "mocap": cmd_mocap,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scusum",
        description="Score-based CUSUM change detection for Markov processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    help_lines = {
        "simulate": "generate a synthetic trajectory CSV",
        "train": "fit a conditional score network",
        "detect": "run the detector over a trajectory and write the trace",
        "sweep": "measure run lengths over a threshold grid, with bound curves",
        "bounds": "evaluate the run-length bound calculators",
        "mocap": "build a change-point pair stream from AMC motion files",
    }
    for name, text in help_lines.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None, help="override every seed in the config")
        if name == "mocap":
            p.epilog = (
                "AMC clips are not bundled; download them from mocap.cs.cmu.edu "
                "and pass local paths in the config."
            )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code else EXIT_OK
    try:
        from .config import load_config  # the schema is built on first use, not at import

        config, resolved = load_config(args.command, _read_config(args.config), args.seed)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        # a command returns its output names and its metrics.json record, or None
        outputs, metrics = _COMMANDS[args.command](config, out_dir)
        if metrics is not None:
            _write_json(out_dir / "metrics.json", metrics)
            outputs.append("metrics.json")
        manifest = {"command": args.command, "package_version": __version__, "config": resolved,
                    "outputs": outputs}
        _write_json(out_dir / "manifest.json", manifest, sort_keys=True)
        return EXIT_OK
    except (AmcError, ModelFileError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (NumericsError, TrainingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_IO
    except Exception as err:  # a fault in a command, not in its input
        print(f"error: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
