"""Command-line entry point.

Subcommands: ``simulate``, ``train``, ``detect``, ``sweep``, ``bounds``,
``mocap``. Every command reads a strict JSON config (unknown keys are
rejected), applies centralized defaults, and writes a ``manifest.json`` next
to its outputs echoing the fully-resolved config, the command and the seed,
so any run can be reproduced from its manifest alone.

Outputs are CSV series (trajectories, detector traces, sweeps, bound
curves); plotting is left to external tooling. ``train``, ``detect`` and
``mocap`` also write a ``metrics.json`` with the wall time of each stage.

Exit codes: 0 success, 2 usage/config errors, 3 data parse/structure
errors, 4 numeric/training errors, 5 I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from itertools import chain, pairwise
from pathlib import Path

import numpy as np

from . import __version__, _textio, bounds, detector, markov, mocap, scorenet
from .exceptions import AmcError, NumericsError, TrainingError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_IO = 5


# ---------------------------------------------------------------------------
# strict config handling
# ---------------------------------------------------------------------------

def _merge_strict(defaults, user, path=""):
    """Fill defaults into ``user``, rejecting keys the schema does not know."""
    if not isinstance(user, dict):
        raise ValueError(f"config section '{path or '<root>'}' must be an object")
    merged = {}
    for key, default in defaults.items():
        here = f"{path}.{key}" if path else key
        if key in user:
            value = user[key]
            if isinstance(default, dict) and default.get("__section__"):
                spec = {k: v for k, v in default.items() if k != "__section__"}
                merged[key] = None if value is None else _merge_strict(spec, value, here)
            else:
                merged[key] = value
        else:
            if isinstance(default, dict) and default.get("__section__"):
                spec = {k: v for k, v in default.items() if k != "__section__"}
                if default.get("__optional__"):
                    merged[key] = None
                else:
                    merged[key] = _merge_strict(spec, {}, here)
            elif default is _REQUIRED:
                raise ValueError(f"missing required config key '{here}'")
            else:
                merged[key] = default
    for key in user:
        if key not in defaults:
            here = f"{path}.{key}" if path else key
            raise ValueError(f"unknown config key '{here}'")
    merged.pop("__optional__", None)
    return merged


class _Required:
    def __repr__(self):
        return "<required>"


_REQUIRED = _Required()


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise ValueError(f"config {path} is not valid JSON: {err}") from err


def _override_seeds(config, seed: int):
    if isinstance(config, dict):
        return {k: (seed if k == "seed" else _override_seeds(v, seed)) for k, v in config.items()}
    if isinstance(config, list):
        return [_override_seeds(v, seed) for v in config]
    return config


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


def _stage(seconds: float, **counts) -> dict:
    """One stage's wall seconds, plus each item count and its rate."""
    out = {"wall_s": seconds}
    for name, count in counts.items():
        out[name] = count
        out[f"{name}_per_s"] = count / seconds if seconds > 0 else None
    return out


def _kernel_spec(section: dict) -> markov.GaussianKernelSpec:
    return markov.GaussianKernelSpec(
        dim=section["dim"],
        alpha=section["alpha"],
        sigma=section["sigma"],
        shift=section["shift"],
    )


_KERNEL_SCHEMA = {
    "__section__": True,
    "dim": _REQUIRED,
    "alpha": _REQUIRED,
    "sigma": _REQUIRED,
    "shift": 0.0,
}


def _change_point(value) -> float:
    if value in ("infinity", "inf", None):
        return math.inf
    return value


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_SIMULATE_SCHEMA = {
    "kernel": _KERNEL_SCHEMA,
    "post_kernel": {**_KERNEL_SCHEMA, "__optional__": True},
    "change_point": "infinity",
    "length": _REQUIRED,
    "seed": 0,
    "burn_in": 1000,
}


def cmd_simulate(config: dict, out_dir: Path) -> int:
    pre = _kernel_spec(config["kernel"])
    post = _kernel_spec(config["post_kernel"]) if config["post_kernel"] else None
    cp = _change_point(config["change_point"])
    traj = markov.TrajectoryConfig(
        pre=pre,
        post=post,
        change_point=cp,
        length=config["length"],
        seed=config["seed"],
        burn_in=config["burn_in"],
    )
    states = markov.simulate_path(traj)
    regime = ["pre" if n < cp else "post" for n in range(1, config["length"] + 1)]
    path = out_dir / "trajectory.csv"
    markov.write_trajectory_csv(path, states, regime=regime)
    _write_manifest(out_dir, "simulate", config, [path.name])
    print(f"wrote {path} ({states.shape[0]} steps, dim {pre.dim})")
    return EXIT_OK


def _read_states_csv(path) -> np.ndarray:
    """States of a trajectory CSV, every cell but the regime column read with ``float()``.

    A row whose field count differs from the header's, or with a malformed or
    non-finite value, is rejected with its ``path:line``.
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
    if not rows:
        raise ValueError(f"{path}: trajectory has no rows")
    return np.asarray(rows)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

_TRAIN_SCHEMA = {
    "data": {
        "__section__": True,
        "kernel": {**_KERNEL_SCHEMA, "__optional__": True},
        "pairs": 50000,
        "seed": 1,
        "burn_in": 1000,
        "csv": None,
    },
    "architecture": {
        "__section__": True,
        "hidden_widths": [128, 128, 128],
    },
    "training": {
        "__section__": True,
        "learning_rate": 1e-3,
        "batch_size": 128,
        "epochs": 20,
        "seed": 0,
        "optimizer": "adam",
        "beta1": 0.9,
        "beta2": 0.999,
        "eps": 1e-8,
        "shuffle": True,
    },
    "standardize": False,
}


def cmd_train(config: dict, out_dir: Path) -> int:
    data = config["data"]
    oracle = None
    if data["csv"] is not None:
        states = _read_states_csv(data["csv"])
        pairs = markov.PairBatch.from_states(states)
        dim = pairs.dim
    elif data["kernel"] is not None:
        spec = _kernel_spec(data["kernel"])
        pairs = markov.stationary_pairs(spec, data["pairs"], seed=data["seed"], burn_in=data["burn_in"])
        oracle = markov.closed_form_score(spec)
        dim = spec.dim
    else:
        raise ValueError("train needs data.kernel or data.csv")

    arch = scorenet.MlpArchitecture(
        input_dim=2 * dim,
        hidden_widths=tuple(config["architecture"]["hidden_widths"]),
        output_dim=dim,
    )
    tc = config["training"]
    train_config = scorenet.TrainConfig(
        learning_rate=tc["learning_rate"],
        batch_size=tc["batch_size"],
        epochs=tc["epochs"],
        seed=tc["seed"],
        optimizer=tc["optimizer"],
        beta1=tc["beta1"],
        beta2=tc["beta2"],
        eps=tc["eps"],
        shuffle=tc["shuffle"],
    )
    epochs = []

    def record_epoch(epoch, loss, seconds):
        epochs.append({"epoch": epoch, "loss": loss, "wall_s": seconds,
                       "pairs_per_s": len(pairs) / seconds})

    params, history = scorenet.train(
        arch, pairs, train_config, standardize=config["standardize"], on_epoch=record_epoch
    )

    model_path = out_dir / "model.bin"
    scorenet.save_model(params, model_path)
    curve_path = out_dir / "loss_curve.csv"
    with open(curve_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        for i, loss in enumerate(history):
            writer.writerow([i, repr(loss)])

    print(f"trained {len(history)} epochs; final loss {history[-1]:.6g}")
    metrics = {"pairs": len(pairs), "epochs": epochs}
    if oracle is not None:
        report = scorenet.evaluate_accuracy(params, oracle, pairs)
        print(
            f"accuracy vs closed-form score (in-sample): mse={report.mse:.6g} "
            f"var_scale={report.var_scale:.6g} rel_error={report.rel_error:.6g}"
        )
        metrics["accuracy"] = {
            "sample": "in-sample: the training pairs",
            "mse": report.mse,
            "var_scale": report.var_scale,
            "rel_error": report.rel_error,
        }
    metrics_path = out_dir / "metrics.json"
    _write_json(metrics_path, metrics)
    _write_manifest(out_dir, "train", config, [model_path.name, curve_path.name, metrics_path.name])
    print(f"wrote {model_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

_DETECT_SCHEMA = {
    "models": {
        "__section__": True,
        "pre": "closed_form",
        "post": "closed_form",
    },
    "kernels": {
        "__section__": True,
        "pre": {**_KERNEL_SCHEMA, "__optional__": True},
        "post": {**_KERNEL_SCHEMA, "__optional__": True},
    },
    "data": {
        "__section__": True,
        "simulate": {
            "__section__": True,
            "__optional__": True,
            "change_point": "infinity",
            "length": _REQUIRED,
            "seed": 0,
            "burn_in": 1000,
        },
        "csv": None,
    },
    "detector": {
        "__section__": True,
        "threshold": _REQUIRED,
        "truncation": None,
    },
    "change_point": None,
}


def _resolve_field(which: str, model_ref, kernel_section):
    if model_ref == "closed_form":
        if kernel_section is None:
            raise ValueError(f"models.{which} = closed_form requires kernels.{which}")
        return markov.closed_form_score(_kernel_spec(kernel_section))
    params = scorenet.load_model(model_ref)
    return scorenet.as_score_field(params)


def cmd_detect(config: dict, out_dir: Path) -> int:
    field_pre = _resolve_field("pre", config["models"]["pre"], config["kernels"]["pre"])
    field_post = _resolve_field("post", config["models"]["post"], config["kernels"]["post"])
    if field_pre.dim != field_post.dim:
        raise ValueError(
            f"model dimensions differ: pre {field_pre.dim} vs post {field_post.dim}"
        )

    declared_cp = _change_point(config["change_point"])
    data = config["data"]
    started = time.perf_counter()
    if data["csv"] is not None:
        states = _read_states_csv(data["csv"])
    elif data["simulate"] is not None:
        sim = data["simulate"]
        cp = _change_point(sim["change_point"])
        if config["kernels"]["pre"] is None:
            raise ValueError("data.simulate requires kernels.pre")
        traj = markov.TrajectoryConfig(
            pre=_kernel_spec(config["kernels"]["pre"]),
            post=_kernel_spec(config["kernels"]["post"]) if config["kernels"]["post"] else None,
            change_point=cp,
            length=sim["length"],
            seed=sim["seed"],
            burn_in=sim["burn_in"],
        )
        states = markov.simulate_path(traj)
        if declared_cp == math.inf:
            declared_cp = cp
    else:
        raise ValueError("detect needs data.simulate or data.csv")
    if states.shape[1] != field_pre.dim:
        raise ValueError(
            f"data dimension {states.shape[1]} does not match model dimension {field_pre.dim}"
        )
    read = time.perf_counter()

    increments = detector.score_increments(field_pre, field_post, states)
    scored = time.perf_counter()

    trunc = detector.TruncationSpec(config["detector"]["truncation"])
    dconf = detector.DetectorConfig(threshold=config["detector"]["threshold"], truncation=trunc)
    trace = detector.statistic_trace(increments, trunc)
    report = detector.measure_false_alarms(increments, dconf)
    scanned = time.perf_counter()

    trace_path = out_dir / "trace.csv"
    # increment i covers the pair (state_{i+1}, state_{i+2}), so times start at 2
    detector.write_trace_csv(trace_path, increments, trace, first_time=2)
    alarm_times = [int(v) + 1 for v in np.cumsum(report.intervals)]
    summary = {
        "threshold": dconf.threshold,
        "truncation": trunc.level,
        "alarm_times": alarm_times,
        "change_point": None if declared_cp == math.inf else int(declared_cp),
    }
    if declared_cp != math.inf:
        summary["false_alarm_times"] = [t for t in alarm_times if t < declared_cp]
        summary["delays"] = [t - int(declared_cp) for t in alarm_times if t >= declared_cp]
    summary_path = out_dir / "alarms.json"
    _write_json(summary_path, summary)
    written = time.perf_counter()

    metrics_path = out_dir / "metrics.json"
    _write_json(metrics_path, {
        "stages": {
            "read": _stage(read - started, states=int(states.shape[0])),
            "score": _stage(scored - read, increments=len(increments)),
            "scan": _stage(scanned - scored, increments=len(increments)),
            "write": _stage(written - scanned, rows=len(increments)),
        },
        "clipped_fraction": float(np.mean(np.abs(increments) > trunc.clip)),
        "peak_statistic": float(trace.max()),
    })

    if alarm_times:
        print(f"alarms at {alarm_times}")
        if declared_cp != math.inf and summary["delays"]:
            print(f"first delay after change: {summary['delays'][0]}")
    else:
        print("no alarm")
    _write_manifest(out_dir, "detect", config,
                    [trace_path.name, summary_path.name, metrics_path.name])
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_SCHEMA = {
    "models": {
        "__section__": True,
        "pre": "closed_form",
        "post": "closed_form",
    },
    "kernels": {
        "__section__": True,
        "pre": _KERNEL_SCHEMA,
        "post": {**_KERNEL_SCHEMA, "__optional__": True},
    },
    "stream": {
        "__section__": True,
        "law": "pre",
        "length": _REQUIRED,
        "seed": 0,
        "burn_in": 1000,
    },
    "thresholds": _REQUIRED,
    "truncation": None,
    "compare_untruncated": False,
    "bounds": {
        "__section__": True,
        "__optional__": True,
        "mu": _REQUIRED,
        "delta": "empirical",
        "post_drift": "empirical",
    },
}


def _resolve_mu(mu_section, truncation_level):
    """Returns (mu value, provenance label)."""
    if isinstance(mu_section, (int, float)):
        return float(mu_section), "explicit"
    if isinstance(mu_section, dict) and "heuristic" in mu_section:
        h = dict(mu_section["heuristic"])
        level = h.pop("truncation_level", truncation_level)
        factor = h.pop("factor", bounds.HEURISTIC_MU_FACTOR)
        if h:
            raise ValueError(f"unknown keys in bounds.mu.heuristic: {sorted(h)}")
        if level is None:
            raise ValueError("heuristic mu needs a truncation level")
        return bounds.heuristic_mu(level, factor), f"heuristic ({factor} * truncation level)"
    if isinstance(mu_section, dict) and "doeblin" in mu_section:
        d = dict(mu_section["doeblin"])
        try:
            constants = bounds.DoeblinConstants(l=d.pop("l"), lam=d.pop("lam"))
            norm_phi = d.pop("norm_phi")
        except KeyError as err:
            raise ValueError(f"bounds.mu.doeblin needs key {err}") from None
        if d:
            raise ValueError(f"unknown keys in bounds.mu.doeblin: {sorted(d)}")
        return bounds.concentration_mu(norm_phi, constants), "doeblin constants"
    raise ValueError("bounds.mu must be a number, {'heuristic': ...} or {'doeblin': ...}")


def cmd_sweep(config: dict, out_dir: Path) -> int:
    field_pre = _resolve_field("pre", config["models"]["pre"], config["kernels"]["pre"])
    post_kernel = config["kernels"]["post"]
    field_post = _resolve_field("post", config["models"]["post"], post_kernel)

    stream_cfg = config["stream"]
    law = stream_cfg["law"]
    if law not in ("pre", "post"):
        raise ValueError("stream.law must be 'pre' or 'post'")
    if law == "pre":
        spec = _kernel_spec(config["kernels"]["pre"])
    else:
        if post_kernel is None:
            raise ValueError("stream.law = post requires kernels.post")
        spec = _kernel_spec(post_kernel)
    traj = markov.TrajectoryConfig(
        pre=spec, length=stream_cfg["length"], seed=stream_cfg["seed"], burn_in=stream_cfg["burn_in"]
    )
    states = markov.simulate_path(traj)
    increments = detector.score_increments(field_pre, field_post, states)

    thresholds = [float(b) for b in config["thresholds"]]
    trunc = detector.TruncationSpec(config["truncation"])
    rows = detector.threshold_sweep(increments, thresholds, trunc)
    sweep_path = out_dir / "sweep.csv"
    detector.write_sweep_csv(sweep_path, rows)
    outputs = [sweep_path.name]

    if config["compare_untruncated"] and trunc.level is not None:
        rows_plain = detector.threshold_sweep(increments, thresholds, detector.TruncationSpec.none())
        plain_path = out_dir / "sweep_untruncated.csv"
        detector.write_sweep_csv(plain_path, rows_plain)
        outputs.append(plain_path.name)

    if config["bounds"] is not None:
        mu, mu_label = _resolve_mu(config["bounds"]["mu"], trunc.level)
        phi = np.clip(increments, -trunc.clip, trunc.clip)
        if law == "pre":
            delta_cfg = config["bounds"]["delta"]
            if delta_cfg == "empirical":
                delta = -float(np.mean(phi))
                delta_label = "empirical mean of truncated increments"
            else:
                delta, delta_label = float(delta_cfg), "explicit"
            if delta <= 0:
                raise NumericsError(
                    "estimated pre-change drift is not negative; cannot evaluate the false-alarm bound"
                )
            # the bound is defined only above mu; keep the grid aligned with NaN rows
            curve = [
                (b, bounds.false_alarm_lower_bound(delta, mu, b) if b > mu else float("nan"))
                for b in thresholds
            ]
            print(f"mu = {mu:.6g} ({mu_label}); delta = {delta:.6g} ({delta_label})")
            if any(b <= mu for b in thresholds):
                print(f"note: bound undefined (NaN) for thresholds <= mu = {mu:g}")
        else:
            drift_cfg = config["bounds"]["post_drift"]
            if drift_cfg == "empirical":
                drift = float(np.mean(phi))
                drift_label = "empirical mean of truncated increments"
            else:
                drift, drift_label = float(drift_cfg), "explicit"
            if drift <= 0:
                raise NumericsError(
                    "estimated post-change drift is not positive; cannot evaluate the delay bound"
                )
            curve = [(b, bounds.delay_upper_bound(b, mu, drift)[1]) for b in thresholds]
            print(f"mu = {mu:.6g} ({mu_label}); post drift = {drift:.6g} ({drift_label})")
            print("delay bound is asymptotic (leading order in n0)")
        bounds_path = out_dir / "bounds.csv"
        bounds.write_bound_csv(bounds_path, curve)
        outputs.append(bounds_path.name)

    for row in rows:
        print(f"b={row.threshold:g} mean_run_length={row.mean_run_length:g} count={row.count}")
    _write_manifest(out_dir, "sweep", config, outputs)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

_BOUNDS_SCHEMA = {
    "delta": _REQUIRED,
    "mu": _REQUIRED,
    "threshold": _REQUIRED,
    "post_drift": None,
    "thresholds": None,
}


def cmd_bounds(config: dict, out_dir: Path) -> int:
    mu, mu_label = _resolve_mu(config["mu"], None)
    delta = float(config["delta"])
    b = float(config["threshold"])
    print(f"mu = {mu:.6g} ({mu_label})")
    lower = bounds.false_alarm_lower_bound(delta, mu, b)
    print(f"false-alarm lower bound at b={b:g}: {lower:.6g}")
    outputs = []
    if config["post_drift"] is not None:
        n0, delay = bounds.delay_upper_bound(b, mu, float(config["post_drift"]))
        print(f"delay bound at b={b:g}: n0 = {n0}, 1 + n0 = {delay:g} (asymptotic)")
    if config["thresholds"]:
        curve = bounds.bound_curve(delta, mu, [float(t) for t in config["thresholds"]])
        path = out_dir / "bounds.csv"
        bounds.write_bound_csv(path, curve)
        outputs.append(path.name)
        print(f"wrote {path}")
    _write_manifest(out_dir, "bounds", config, outputs)
    return EXIT_OK


# ---------------------------------------------------------------------------
# mocap
# ---------------------------------------------------------------------------

_MOCAP_SCHEMA = {
    "pre": _REQUIRED,
    "post": None,
    "splice_index": _REQUIRED,
    "stride": 1,
    "standardize": True,
}


def _parse_amc_file(path):
    """The parsed clip and the file's line count."""
    with open(path) as fh:
        # parse_amc gets the open file: perfbench's tracer counts the lines of
        # the file it names, and reads 0 lines/s for a list of lines
        try:
            clip = mocap.parse_amc(fh)
        except AmcError as err:
            raise AmcError(f"{path}: {err}") from err
        fh.seek(0)
        return clip, sum(1 for _ in fh)


def cmd_mocap(config: dict, out_dir: Path) -> int:
    started = time.perf_counter()
    pre_clip, lines = _parse_amc_file(config["pre"])
    post_clip = None
    if config["post"] is not None:
        post_clip, post_lines = _parse_amc_file(config["post"])
        lines += post_lines
    parsed = time.perf_counter()
    spec = mocap.ScenarioSpec(
        pre_clip=pre_clip,
        post_clip=post_clip,
        splice_index=config["splice_index"],
        stride=config["stride"],
        standardize=config["standardize"],
    )
    result = mocap.build_scenario(spec)
    built = time.perf_counter()

    # each state row is formatted once; pair row i is state rows i and i+1
    states_path = out_dir / "states.csv"
    pairs_path = out_dir / "pairs.csv"
    d = result.pairs.dim
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
    written = time.perf_counter()

    scenario = {
        "dimension": d,
        "n_frames": int(result.states.shape[0]),
        "n_pairs": len(result.pairs),
        "change_index": None if result.change_index == math.inf else int(result.change_index),
        "standardized": result.state_mean is not None,
    }
    if result.state_mean is not None:
        scenario["state_mean"] = result.state_mean.tolist()
        scenario["state_scale"] = result.state_scale.tolist()
    scenario_path = out_dir / "scenario.json"
    _write_json(scenario_path, scenario)
    metrics_path = out_dir / "metrics.json"
    _write_json(metrics_path, {
        "stages": {
            "parse": _stage(parsed - started, lines=lines),
            "build": _stage(built - parsed, frames=scenario["n_frames"]),
            "write": _stage(written - built, rows=scenario["n_frames"] + scenario["n_pairs"]),
        },
    })

    print(
        f"scenario: {scenario['n_frames']} frames, dimension {d}, "
        f"change index {scenario['change_index']}"
    )
    _write_manifest(out_dir, "mocap", config,
                    [states_path.name, pairs_path.name, scenario_path.name, metrics_path.name])
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_SCHEMAS = {
    "simulate": _SIMULATE_SCHEMA,
    "train": _TRAIN_SCHEMA,
    "detect": _DETECT_SCHEMA,
    "sweep": _SWEEP_SCHEMA,
    "bounds": _BOUNDS_SCHEMA,
    "mocap": _MOCAP_SCHEMA,
}

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
        raw = _load_config(args.config)
        config = _merge_strict(_SCHEMAS[args.command], raw)
        if args.seed is not None:
            config = _override_seeds(config, args.seed)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, out_dir)
    except AmcError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (NumericsError, TrainingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, TypeError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
