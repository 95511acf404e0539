"""Command-line entry point.

Subcommands: ``simulate``, ``train``, ``detect``, ``sweep``, ``bounds``,
``mocap``. Each reads its JSON config into the frozen dataclasses of
``scusum.config`` (with ``markov.GaussianKernelSpec`` for every kernel and
``scorenet.TrainConfig`` for ``training``), whose fields are the schema and
whose defaults are the only defaults. Every value is checked before any work
starts, and a bad one is rejected with its dotted key: unknown and missing
keys; integers that are not JSON integers (``2.0`` is not one); numbers that
are ``true``/``false``, ``NaN`` or ``Infinity`` (Python's ``json`` accepts
the last two); lists (``thresholds``, ``hidden_widths``) with a bad element;
strings outside their sets; a ``data`` section with both sources or none,
or ``train``'s ``csv`` beside ``pairs``, ``seed`` or ``burn_in``; a
``detect`` ``change_point`` other than ``data.simulate.change_point``;
bound inputs that are not positive, a heuristic mu without a truncation
level, and a number drift above the truncation. The string sentinels are
``"infinity"`` (a change point that never comes), ``"closed_form"`` (a
kernel's exact score) and ``"empirical"`` (a drift estimated from the
stream).

Each command writes its outputs (CSV series; plotting is left to external
tooling) and a ``manifest.json`` echoing the config as read, with every
default filled in and no value rewritten, so any run can be reproduced from
its manifest alone. ``train``, ``detect``, ``sweep`` and ``mocap`` also
write a ``metrics.json`` with the wall time and the process's peak resident
set (its high-water mark so far) at the end of each stage; ``bounds`` writes
the values it prints to ``bounds.json``.

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


def _write_manifest(out_dir: Path, command: str, config: dict, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "package_version": __version__,
        "config": config,
        "outputs": outputs,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
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

def cmd_simulate(config: SimulateConfig, out_dir: Path) -> list[str]:
    cp = config.change_time
    states = markov.simulate_path(config.trajectory(config.kernel, config.post_kernel, cp))
    path = out_dir / "trajectory.csv"
    # state n (row n - 1) is the first post-change one from n = cp on
    markov.write_trajectory_csv(path, states, post_from=cp - 1)
    print(f"wrote {path} ({states.shape[0]} steps, dim {config.kernel.dim})")
    return [path.name]


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

def cmd_train(config: TrainCommandConfig, out_dir: Path) -> list[str]:
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
        metrics["accuracy"] = {
            "sample": "in-sample: the training pairs",
            "mse": report.mse,
            "var_scale": report.var_scale,
            "rel_error": report.rel_error,
        }
    metrics_path = out_dir / "metrics.json"
    _write_json(metrics_path, metrics)
    print(f"wrote {model_path}")
    return [model_path.name, curve_path.name, metrics_path.name]


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def _resolve_field(model_ref: str, kernel):
    if model_ref == "closed_form":
        return markov.closed_form_score(kernel)
    return scorenet.as_score_field(scorenet.load_model(model_ref))


def _resolve_fields(models: ModelsConfig, kernels: KernelsConfig):
    """The pre- and post-change score fields, checked to share a dimension."""
    for which in ("pre", "post"):  # before either model file is read
        if getattr(models, which) == "closed_form" and getattr(kernels, which) is None:
            raise ValueError(f"models.{which} = closed_form requires kernels.{which}")
    field_pre = _resolve_field(models.pre, kernels.pre)
    field_post = _resolve_field(models.post, kernels.post)
    if field_pre.dim != field_post.dim:
        raise ValueError(f"model dimensions differ: pre {field_pre.dim} vs post {field_post.dim}")
    return field_pre, field_post


def cmd_detect(config: DetectConfig, out_dir: Path) -> list[str]:
    data = config.data
    trajectory = None
    if data.csv is None:
        if config.kernels.pre is None:
            raise ValueError("data.simulate requires kernels.pre")
        # checks change_point <= length, like the rules above, before any model file is read
        trajectory = data.simulate.trajectory(config.kernels.pre, config.kernels.post,
                                              data.simulate.change_time)
    field_pre, field_post = _resolve_fields(config.models, config.kernels)
    declared_cp = config.change_time
    stages = _Stages()
    if trajectory is None:
        states = _read_states_csv(data.csv)
        (n_states, dim), blocks = states.shape, [states]
        if n_states < declared_cp < math.inf:  # the rule a simulated stream's length gets at load
            raise ValueError(f"change_point = {declared_cp} is past the end of {data.csv} "
                             f"({n_states} rows)")
    else:
        # a simulated stream is scored one block at a time, as it is stepped
        n_states, dim = trajectory.length, trajectory.pre.dim
        blocks = markov.path_blocks(trajectory)
        declared_cp = trajectory.change_point  # a declared one equals it (checked at load)
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
        "change_point": None if declared_cp == math.inf else int(declared_cp),
    }
    if declared_cp != math.inf:
        summary["false_alarm_times"] = [t for t in alarm_times if t < declared_cp]
        summary["delays"] = [t - int(declared_cp) for t in alarm_times if t >= declared_cp]
    summary_path = out_dir / "alarms.json"
    _write_json(summary_path, summary)
    stages.end("write", rows=len(increments))

    metrics_path = out_dir / "metrics.json"
    _write_json(metrics_path, {
        **stages.metrics(),
        "clipped_fraction": sweep.clipped_fraction,
        "drift": asdict(sweep.drift),
        "peak_statistic": float(trace.max()),
    })

    if alarm_times:
        print(f"alarms at {alarm_times}")
        if declared_cp != math.inf and summary["delays"]:
            print(f"first delay after change: {summary['delays'][0]}")
    else:
        print("no alarm")
    return [trace_path.name, summary_path.name, metrics_path.name]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _resolve_mu(mu, truncation_level):
    """Returns (mu value, provenance label)."""
    if isinstance(mu, (int, float)):
        return float(mu), "explicit"
    if mu.doeblin is not None:
        return bounds.concentration_mu(mu.doeblin.norm_phi, mu.doeblin), "doeblin constants"
    level = mu.heuristic.truncation_level
    if level is None:
        level = truncation_level
    factor = mu.heuristic.factor
    return bounds.heuristic_mu(level, factor), f"heuristic ({factor} * truncation level)"


def _drift(given, estimate: float):
    """(drift, provenance label): the config's number, or ``estimate`` for "empirical"."""
    if given == "empirical":
        return estimate, "empirical mean of truncated increments"
    return float(given), "explicit"


def _sweep_bounds(config: SweepConfig, thresholds, truncation_level, drift_estimate):
    """The bound curve over ``thresholds`` and the inputs it used, with provenance labels."""
    mu, mu_label = _resolve_mu(config.bounds.mu, truncation_level)
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


def cmd_sweep(config: SweepConfig, out_dir: Path) -> list[str]:
    law = config.stream.law
    spec = config.kernels.pre if law == "pre" else config.kernels.post
    if spec is None:
        raise ValueError(f"stream.law = {law} requires kernels.{law}")
    field_pre, field_post = _resolve_fields(config.models, config.kernels)
    stages = _Stages()
    # the stream is stepped and scored one block at a time: only the
    # increments grow with its length
    blocks = _staged_blocks(stages, markov.path_blocks(config.stream.trajectory(spec)),
                            "simulate", "score")
    increments = detector.stream_increments(field_pre, field_post, blocks, config.stream.length)

    thresholds = [float(b) for b in config.thresholds]
    trunc = detector.TruncationSpec(config.truncation)
    levels = {"sweep.csv": trunc}
    if config.compare_untruncated and trunc.level is not None:
        levels["sweep_untruncated.csv"] = detector.TruncationSpec()
    sweeps = {}
    level_metrics = []
    for name, level in levels.items():
        sweeps[name] = report = detector.threshold_sweep(increments, thresholds, level)
        level_metrics.append({
            "output": name,
            "truncation": level.level,
            "clipped_fraction": report.clipped_fraction,
            "peak_statistic": report.peak_statistic,
            "drift": asdict(report.drift),
        })
    if config.bounds is not None:
        curve, bound_inputs = _sweep_bounds(config, thresholds, trunc.level,
                                            level_metrics[0]["drift"]["mean"])
    stages.end("scan", increments=len(increments))

    for name, report in sweeps.items():
        detector.write_sweep_csv(out_dir / name, report)
    outputs = list(sweeps)
    if config.bounds is not None:
        bounds_path = out_dir / "bounds.csv"
        bounds.write_bound_csv(bounds_path, curve)
        outputs.append(bounds_path.name)
    stages.end("write", rows=len(thresholds) * len(outputs))

    metrics = {
        **stages.metrics(),
        "truncation_levels": level_metrics,
    }
    if config.bounds is not None:
        metrics["bounds"] = bound_inputs
    metrics_path = out_dir / "metrics.json"
    _write_json(metrics_path, metrics)
    outputs.append(metrics_path.name)

    for row in sweeps["sweep.csv"]:
        print(f"b={row.threshold:g} mean_run_length={row.mean:g} count={row.count}")
    return outputs


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def cmd_bounds(config: BoundsConfig, out_dir: Path) -> list[str]:
    mu, mu_label = _resolve_mu(config.mu, None)
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
    return outputs


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


def cmd_mocap(config: MocapConfig, out_dir: Path) -> list[str]:
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
    metrics_path = out_dir / "metrics.json"
    _write_json(metrics_path, stages.metrics())

    print(
        f"scenario: {scenario['n_frames']} frames, dimension {d}, "
        f"change index {scenario['change_index']}"
    )
    return [states_path.name, pairs_path.name, scenario_path.name, metrics_path.name]


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
        outputs = _COMMANDS[args.command](config, out_dir)
        _write_manifest(out_dir, args.command, resolved, outputs)
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
