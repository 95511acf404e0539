"""End-to-end CLI runs against temp directories (in-process via main())."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from scusum import bounds, cli, markov
from scusum.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from scusum.detector import (DetectorConfig, DetectorState, TruncationSpec, detector_update,
                             score_increments, statistic_trace)
from scusum.markov import GaussianKernelSpec, TrajectoryConfig, closed_form_score, simulate_path

FIXTURES = Path(__file__).parent / "fixtures"

SMALL_KERNEL = {"dim": 3, "alpha": 0.3, "sigma": 0.3, "shift": 0.2}
SMALL_POST = {"dim": 3, "alpha": 0.6, "sigma": 0.5, "shift": 0.9}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, command, payload, out="out", extra=()):
    config = write_config(tmp_path, payload, f"{command}_config.json")
    out_dir = tmp_path / out
    code = main([command, "--config", config, "--out", str(out_dir), *extra])
    return code, out_dir


def read_strict_json(path):
    """The JSON file at ``path``, refusing the non-standard tokens NaN, Infinity and -Infinity."""
    def refuse(token):
        raise ValueError(f"{path}: {token} is not standard JSON")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


def assert_stage_peaks(stages):
    """Every stage records the process's high-water resident set, which never falls."""
    peaks = [stage["peak_rss_mb"] for stage in stages.values()]
    if not os.path.exists("/proc/self/status"):
        assert peaks == [None] * len(peaks)
        return
    assert all(isinstance(peak, float) and peak > 0 for peak in peaks)
    assert peaks == sorted(peaks)


def assert_peak_stage(metrics):
    """``peak_rss_stage`` names a stage of the run, or is null where ``/proc`` is absent."""
    if not os.path.exists("/proc/self/status"):
        assert metrics["peak_rss_stage"] is None
    else:
        assert metrics["peak_rss_stage"] in (*metrics["stages"], None)


def test_peak_rss_is_null_without_proc(monkeypatch):
    def no_proc(*args, **kwargs):
        raise FileNotFoundError("/proc/self/status")

    monkeypatch.setattr(cli, "open", no_proc, raising=False)
    assert cli._peak_rss_mb() is None


def test_stage_peaks_are_the_running_maximum(monkeypatch):
    # VmHWM reads can fall by a few pages; a stage records the highest read
    # so far, and the stage whose read last rose is the peak stage
    reads = iter([70.0, 72.707, 72.691, 72.8, 72.75])
    monkeypatch.setattr(cli, "_peak_rss_mb", lambda: next(reads))
    stages = cli._Stages()
    for name in ("simulate", "score", "scan", "write"):
        stages.end(name)
    metrics = stages.metrics()
    assert [s["peak_rss_mb"] for s in metrics["stages"].values()] == [72.707, 72.707, 72.8, 72.8]
    assert metrics["peak_rss_stage"] == "scan"


def test_train_metrics_can_name_evaluate_the_peak_stage(tmp_path, monkeypatch):
    # each read higher than the last: the evaluate stage, which ends last,
    # sets the peak, and metrics.json must be written after it ends
    reads = iter(range(100, 200))
    monkeypatch.setattr(cli, "_peak_rss_mb", lambda: float(next(reads)))
    code, out = run(tmp_path, "train", {
        "data": {"kernel": SMALL_KERNEL, "pairs": 256, "seed": 5, "burn_in": 100},
        "architecture": {"hidden_widths": [4]},
        "training": {"epochs": 1, "batch_size": 64},
    })
    assert code == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text())
    assert list(metrics["stages"]) == ["data", "fit", "write", "evaluate"]
    assert metrics["peak_rss_stage"] == "evaluate"
    assert_stage_peaks(metrics["stages"])


class TestSimulate:
    def test_writes_trajectory_and_manifest(self, tmp_path):
        payload = {"kernel": SMALL_KERNEL, "length": 50, "seed": 4}
        code, out = run(tmp_path, "simulate", payload)
        assert code == EXIT_OK
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "x0,x1,x2,regime"
        assert len(lines) == 51
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["burn_in"] == 1000  # default echoed

    def test_reruns_are_byte_identical(self, tmp_path):
        payload = {"kernel": SMALL_KERNEL, "length": 40, "seed": 11}
        _, out1 = run(tmp_path, "simulate", payload, out="a")
        _, out2 = run(tmp_path, "simulate", payload, out="b")
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_zero_length_header_only(self, tmp_path):
        payload = {"kernel": SMALL_KERNEL, "length": 0}
        code, out = run(tmp_path, "simulate", payload)
        assert code == EXIT_OK
        assert (out / "trajectory.csv").read_text().strip() == "x0,x1,x2,regime"

    def test_change_point_regime_split(self, tmp_path):
        payload = {
            "kernel": SMALL_KERNEL,
            "post_kernel": SMALL_POST,
            "change_point": 10,
            "length": 30,
            "seed": 0,
        }
        code, out = run(tmp_path, "simulate", payload)
        assert code == EXIT_OK
        regimes = [line.rsplit(",", 1)[1] for line in
                   (out / "trajectory.csv").read_text().strip().splitlines()[1:]]
        assert regimes[: 9] == ["pre"] * 9
        assert set(regimes[9:]) == {"post"}

    def test_unknown_key_rejected(self, tmp_path):
        payload = {"kernel": SMALL_KERNEL, "length": 10, "bogus": 1}
        code, _ = run(tmp_path, "simulate", payload)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("key, value", [("sigma", math.nan), ("sigma", math.inf), ("shift", math.nan)])
    def test_non_finite_kernel_parameter_rejected(self, tmp_path, key, value):
        # json.dumps writes NaN/Infinity, which Python's json accepts on load
        payload = {"kernel": {**SMALL_KERNEL, key: value}, "length": 10}
        code, out = run(tmp_path, "simulate", payload)
        assert code == EXIT_USAGE
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("burn_in, state", [(1000, 1), (0, 3)])
    def test_non_finite_path_exits_4_naming_its_first_state(self, tmp_path, capsys, burn_in, state):
        # numpy warned of the overflow, nan rows were written and the run exited 0
        payload = {"kernel": {"dim": 2, "alpha": 1.9, "sigma": 1e308, "shift": 1e308},
                   "length": 10, "burn_in": burn_in}
        code, out = run(tmp_path, "simulate", payload)
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err == f"error: simulated state {state} is not finite\n"
        assert not (out / "trajectory.csv").exists()

    def test_seed_flag_overrides(self, tmp_path):
        payload = {"kernel": SMALL_KERNEL, "length": 20, "seed": 1}
        _, out1 = run(tmp_path, "simulate", payload, out="a", extra=("--seed", "123"))
        payload2 = {"kernel": SMALL_KERNEL, "length": 20, "seed": 123}
        _, out2 = run(tmp_path, "simulate", payload2, out="b")
        assert (out1 / "trajectory.csv").read_text() == (out2 / "trajectory.csv").read_text()
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 123


@pytest.fixture(scope="module")
def trained_model_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("train")
    payload = {
        "data": {"kernel": SMALL_KERNEL, "pairs": 2000, "seed": 5, "burn_in": 100},
        "architecture": {"hidden_widths": [16, 16]},
        "training": {"epochs": 4, "batch_size": 64, "seed": 7},
    }
    config = tmp / "config.json"
    config.write_text(json.dumps(payload))
    out = tmp / "out"
    assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_OK
    return tmp, payload, out


class TestTrain:
    def test_outputs_exist(self, trained_model_dir):
        _, _, out = trained_model_dir
        assert (out / "model.bin").exists()
        lines = (out / "loss_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,loss" and len(lines) == 5

    def test_rerun_identical_model(self, trained_model_dir, tmp_path):
        tmp, payload, out = trained_model_dir
        code, out2 = run(tmp_path, "train", payload)
        assert code == EXIT_OK
        assert (out / "model.bin").read_bytes() == (out2 / "model.bin").read_bytes()

    def test_metrics_record_epochs_and_in_sample_accuracy(self, trained_model_dir):
        _, payload, out = trained_model_dir
        metrics = json.loads((out / "metrics.json").read_text())
        curve = [float(line.split(",")[1])
                 for line in (out / "loss_curve.csv").read_text().strip().splitlines()[1:]]
        assert [e["epoch"] for e in metrics["epochs"]] == [0, 1, 2, 3]
        assert [e["loss"] for e in metrics["epochs"]] == curve
        for e in metrics["epochs"]:
            assert e["wall_s"] > 0
            assert e["pairs_per_s"] == pytest.approx(payload["data"]["pairs"] / e["wall_s"])
        stages = metrics["stages"]
        assert list(stages) == ["data", "fit", "write", "evaluate"]
        assert stages["data"]["pairs"] == stages["evaluate"]["pairs"] == payload["data"]["pairs"]
        assert stages["fit"]["epochs"] == 4
        assert_stage_peaks(stages)
        accuracy = metrics["accuracy"]
        assert accuracy["sample"].startswith("in-sample")
        assert accuracy["rel_error"] == pytest.approx(accuracy["mse"] / accuracy["var_scale"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert "metrics.json" in manifest["outputs"]

    def test_metrics_without_kernel_have_no_accuracy(self, tmp_path):
        code, sim = run(tmp_path, "simulate", {"kernel": SMALL_KERNEL, "length": 200, "seed": 3},
                        out="sim")
        assert code == EXIT_OK
        payload = {
            "data": {"csv": str(sim / "trajectory.csv")},
            "architecture": {"hidden_widths": [4]},
            "training": {"epochs": 2, "batch_size": 64},
        }
        code, out = run(tmp_path, "train", payload)
        assert code == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert len(metrics["epochs"]) == 2 and "accuracy" not in metrics
        assert list(metrics["stages"]) == ["data", "fit", "write"]

    @pytest.mark.parametrize("key, value", [
        ("eps", -1.0), ("eps", 0.0), ("eps", math.inf), ("eps", math.nan),
        ("beta1", 1.0), ("beta1", -0.5), ("beta2", 1.5), ("beta2", math.nan),
        ("learning_rate", math.nan), ("learning_rate", math.inf),
    ])
    def test_meaningless_optimiser_setting_rejected(self, tmp_path, key, value):
        payload = {
            "data": {"kernel": SMALL_KERNEL, "pairs": 256, "seed": 5, "burn_in": 100},
            "architecture": {"hidden_widths": [4]},
            "training": {"epochs": 1, "batch_size": 64, key: value},
        }
        code, out = run(tmp_path, "train", payload)
        assert code == EXIT_USAGE
        assert not (out / "model.bin").exists()

    def test_missing_dataset_path_fails_distinctly(self, tmp_path):
        payload = {"data": {"csv": str(tmp_path / "missing.csv")}}
        code, _ = run(tmp_path, "train", payload)
        assert code != EXIT_OK
        assert code in (EXIT_DATA, 5)


class TestDetect:
    def test_identical_models_never_alarm(self, tmp_path):
        payload = {
            "models": {"pre": "closed_form", "post": "closed_form"},
            "kernels": {"pre": SMALL_KERNEL, "post": SMALL_KERNEL},
            "data": {"simulate": {"length": 300, "seed": 3}},
            "detector": {"threshold": 1.0},
        }
        code, out = run(tmp_path, "detect", payload)
        assert code == EXIT_OK
        summary = json.loads((out / "alarms.json").read_text())
        assert summary["alarm_times"] == []
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == "n,score_diff,cusum_stat"
        assert trace[1].split(",")[0] == "2"
        values = [float(line.split(",")[1]) for line in trace[1:]]
        assert np.allclose(values, 0.0)

    def test_synthetic_change_detected_after_change_point(self, tmp_path):
        payload = {
            "models": {"pre": "closed_form", "post": "closed_form"},
            "kernels": {"pre": SMALL_KERNEL, "post": SMALL_POST},
            "data": {"simulate": {"length": 400, "change_point": 120, "seed": 6}},
            "detector": {"threshold": 300.0, "truncation": 600.0},
        }
        code, out = run(tmp_path, "detect", payload)
        assert code == EXIT_OK
        summary = json.loads((out / "alarms.json").read_text())
        assert summary["change_point"] == 120
        assert summary["false_alarm_times"] == []
        assert summary["delays"] and summary["delays"][0] >= 0

    def test_metrics_record_stages_clipping_and_peak(self, tmp_path):
        payload = {
            "kernels": {"pre": SMALL_KERNEL, "post": SMALL_POST},
            "data": {"simulate": {"length": 400, "change_point": 120, "seed": 6}},
            "detector": {"threshold": 300.0, "truncation": 10.0},
        }
        code, out = run(tmp_path, "detect", payload)
        assert code == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert "metrics.json" in json.loads((out / "manifest.json").read_text())["outputs"]
        stages = metrics["stages"]
        assert list(stages) == ["read", "score", "scan", "write"]
        assert all(stage["wall_s"] >= 0 for stage in stages.values())
        assert stages["read"]["states"] == 400
        assert stages["score"]["increments"] == stages["write"]["rows"] == 399
        # the change point cuts the simulated stream into two blocks
        assert stages["read"]["blocks"] == stages["score"]["blocks"] == 2
        assert_stage_peaks(stages)
        assert_peak_stage(metrics)
        rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
        assert metrics["clipped_fraction"] == np.mean(np.abs(rows[:, 1]) > 10.0) > 0
        phi = np.clip(rows[:, 1], -10.0, 10.0)
        assert metrics["drift"] == {"mean": float(np.mean(phi)), "count": 399,
                                    "std_error": float(np.std(phi, ddof=1) / np.sqrt(399))}
        # the peak is the one-step recursion's, exactly, not the trace's maximum
        config = DetectorConfig(threshold=math.inf, truncation=TruncationSpec(10.0))
        state, peak = DetectorState(), -math.inf
        for s in rows[:, 1]:
            state = detector_update(state, s, config)
            peak = max(peak, state.statistic)
        assert metrics["peak_statistic"] == peak

    def test_alarm_times_follow_the_one_step_recursion_with_resets(self, tmp_path):
        # a truncation that binds and several alarms: alarms.json must list the
        # times at which detector_update over trace.csv's score_diff alarms,
        # restarting from W = 0 after each alarm
        payload = {
            "kernels": {"pre": SMALL_KERNEL, "post": SMALL_POST},
            "data": {"simulate": {"length": 400, "change_point": 120, "seed": 6}},
            "detector": {"threshold": 100.0, "truncation": 10.0},
        }
        code, out = run(tmp_path, "detect", payload)
        assert code == EXIT_OK
        rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)

        def one_step_alarm_times(truncation):
            config = DetectorConfig(threshold=100.0, truncation=truncation)
            state, times = DetectorState(), []
            for n, s in rows[:, :2]:
                state = detector_update(state, s, config)
                if state.alarmed:
                    times.append(int(n))
                    state = DetectorState()
            return times

        expected = one_step_alarm_times(TruncationSpec(10.0))
        summary = json.loads((out / "alarms.json").read_text())
        assert summary["alarm_times"] == expected
        assert len(expected) >= 3
        assert expected != one_step_alarm_times(TruncationSpec())  # the truncation binds
        assert summary["false_alarm_times"] == [t for t in expected if t < 120]
        assert summary["delays"] == [t - 120 for t in expected if t >= 120]

    def test_model_file_and_closed_form_mix(self, tmp_path, trained_model_dir):
        _, _, model_out = trained_model_dir
        payload = {
            "models": {"pre": str(model_out / "model.bin"), "post": "closed_form"},
            "kernels": {"pre": SMALL_KERNEL, "post": SMALL_POST},
            "data": {"simulate": {"length": 100, "seed": 2}},
            "detector": {"threshold": 500.0},
        }
        code, out = run(tmp_path, "detect", payload)
        assert code == EXIT_OK
        assert (out / "trace.csv").exists()

    def test_dimension_mismatch_rejected(self, tmp_path):
        payload = {
            "models": {"pre": "closed_form", "post": "closed_form"},
            "kernels": {"pre": SMALL_KERNEL, "post": {"dim": 2, "alpha": 0.5, "sigma": 1.0}},
            "data": {"simulate": {"length": 50, "seed": 0}},
            "detector": {"threshold": 10.0},
        }
        code, _ = run(tmp_path, "detect", payload)
        assert code == EXIT_USAGE

    def test_missing_kernel_rejected_before_models_are_read(self, tmp_path, capsys):
        missing = str(tmp_path / "no_such_model.bin")
        payload = {
            "models": {"pre": missing, "post": missing},
            "kernels": {"post": SMALL_POST},
            "data": {"simulate": {"length": 50, "seed": 0}},
            "detector": {"threshold": 10.0},
        }
        code, _ = run(tmp_path, "detect", payload)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.strip() == "error: data.simulate requires kernels.pre"

    def test_change_point_checked_before_models_are_read(self, tmp_path, capsys):
        payload = {
            "models": {"pre": str(tmp_path / "no_such_model.bin"), "post": "closed_form"},
            "kernels": {"pre": SMALL_KERNEL, "post": SMALL_POST},
            "data": {"simulate": {"length": 50, "change_point": 80}},
            "detector": {"threshold": 10.0},
        }
        code, _ = run(tmp_path, "detect", payload)
        assert code == EXIT_USAGE
        assert "change_point must be <= length" in capsys.readouterr().err

    @pytest.mark.parametrize("change_point", [40, 41, 100000])
    def test_change_point_checked_against_the_csv_rows(self, tmp_path, capsys, change_point):
        # one past the last row listed every alarm as a false alarm of a change that never came
        states = simulate_path(TrajectoryConfig(pre=GaussianKernelSpec(**SMALL_KERNEL), length=40))
        markov.write_trajectory_csv(tmp_path / "states.csv", states)
        payload = {"kernels": {"pre": SMALL_KERNEL, "post": SMALL_POST},
                   "data": {"csv": str(tmp_path / "states.csv")},
                   "detector": {"threshold": 10.0}, "change_point": change_point}
        code, out = run(tmp_path, "detect", payload)
        if change_point == 40:  # the last row may be the first post-change state
            assert code == EXIT_OK
            assert json.loads((out / "alarms.json").read_text())["change_point"] == 40
            return
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.strip() == (
            f"error: change_point = {change_point} is past the end of {tmp_path / 'states.csv'} "
            "(40 rows)")
        assert not (out / "alarms.json").exists()

    def test_closed_form_kernel_checked_before_models_are_read(self, tmp_path, capsys):
        payload = {
            "models": {"pre": str(tmp_path / "no_such_model.bin"), "post": "closed_form"},
            "kernels": {"pre": SMALL_KERNEL},
            "data": {"simulate": {"length": 50, "seed": 0}},
            "detector": {"threshold": 10.0},
        }
        code, _ = run(tmp_path, "detect", payload)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.strip() == "error: models.post = closed_form requires kernels.post"


class TestSweep:
    def test_single_threshold_row(self, tmp_path):
        payload = {
            "kernels": {"pre": SMALL_KERNEL, "post": SMALL_POST},
            "stream": {"law": "pre", "length": 3000, "seed": 8, "burn_in": 100},
            "thresholds": [50.0],
            "truncation": 600.0,
        }
        code, out = run(tmp_path, "sweep", payload)
        assert code == EXIT_OK
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 2 and lines[0] == "threshold,mean_run_length,count"

    def test_bound_overlay_and_monotone_rows(self, tmp_path):
        payload = {
            "kernels": {"pre": SMALL_KERNEL, "post": SMALL_POST},
            "stream": {"law": "pre", "length": 20000, "seed": 9, "burn_in": 100},
            "thresholds": [20.0, 40.0, 80.0],
            "truncation": 600.0,
            "compare_untruncated": True,
            "bounds": {"mu": {"heuristic": {"factor": 2.05}}, "delta": "empirical"},
        }
        code, out = run(tmp_path, "sweep", payload)
        assert code == EXIT_OK
        rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        means = [float(r.split(",")[1]) for r in rows]
        finite = [m for m in means if not math.isnan(m)]
        assert finite == sorted(finite)
        bound_rows = (out / "bounds.csv").read_text().strip().splitlines()[1:]
        assert len(bound_rows) == 3
        assert (out / "sweep_untruncated.csv").exists()

    def test_delay_law_bound_curve(self, tmp_path):
        payload = {
            "kernels": {"pre": SMALL_KERNEL, "post": SMALL_POST},
            "stream": {"law": "post", "length": 5000, "seed": 10, "burn_in": 100},
            "thresholds": [100.0, 200.0],
            "truncation": 600.0,
            "bounds": {"mu": 1230.0, "post_drift": "empirical"},
        }
        code, out = run(tmp_path, "sweep", payload)
        assert code == EXIT_OK
        assert (out / "bounds.csv").exists()

    def test_delay_bound_past_the_float_range_writes_inf(self, tmp_path):
        payload = {
            "kernels": {"pre": SMALL_KERNEL, "post": SMALL_POST},
            "stream": {"law": "post", "length": 200, "seed": 10, "burn_in": 10},
            "thresholds": [100.0],
            "bounds": {"mu": 1230.0, "post_drift": 1e-310},
        }
        code, out = run(tmp_path, "sweep", payload)
        assert code == EXIT_OK
        assert (out / "bounds.csv").read_text().splitlines() == ["b,bound", "100.0,inf"]

    def test_metrics_record_stages_levels_and_bound_inputs(self, tmp_path, capsys):
        payload = {
            "kernels": {"pre": SMALL_KERNEL, "post": SMALL_POST},
            "stream": {"law": "pre", "length": 5000, "seed": 9, "burn_in": 100},
            "thresholds": [20.0, 40.0, 80.0],
            "truncation": 20.0,
            "compare_untruncated": True,
            "bounds": {"mu": {"heuristic": {"factor": 2.05}}, "delta": "empirical"},
        }
        code, out = run(tmp_path, "sweep", payload)
        assert code == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["outputs"] == [
            "sweep.csv", "sweep_untruncated.csv", "bounds.csv", "metrics.json"]
        metrics = json.loads((out / "metrics.json").read_text())
        stages = metrics["stages"]
        assert list(stages) == ["simulate", "score", "scan", "write"]
        assert all(stage["wall_s"] >= 0 for stage in stages.values())
        assert stages["simulate"]["states"] == 5000
        assert stages["score"]["increments"] == stages["scan"]["increments"] == 4999
        assert stages["write"]["rows"] == 9  # three thresholds in each of three CSVs
        assert stages["simulate"]["blocks"] == stages["score"]["blocks"] == 1
        assert "blocks" not in stages["scan"]
        assert_stage_peaks(stages)
        assert_peak_stage(metrics)

        spec_pre, spec_post = GaussianKernelSpec(**SMALL_KERNEL), GaussianKernelSpec(**SMALL_POST)
        states = simulate_path(TrajectoryConfig(pre=spec_pre, length=5000, seed=9, burn_in=100))
        increments = score_increments(closed_form_score(spec_pre), closed_form_score(spec_post), states)
        levels = metrics["truncation_levels"]
        assert [(lv["output"], lv["truncation"]) for lv in levels] == [
            ("sweep.csv", 20.0), ("sweep_untruncated.csv", None)]
        for lv, m in zip(levels, (20.0, math.inf)):
            phi = np.clip(increments, -m, m)
            assert lv["clipped_fraction"] == np.mean(np.abs(increments) > m)
            assert lv["drift"] == {"mean": float(np.mean(phi)), "count": 4999,
                                   "std_error": float(np.std(phi, ddof=1) / np.sqrt(4999))}
            trace = statistic_trace(increments, TruncationSpec(None if m == math.inf else m))
            assert lv["peak_statistic"] == pytest.approx(trace.max(), rel=1e-12)
        assert levels[0]["clipped_fraction"] > 0 == levels[1]["clipped_fraction"]

        assert metrics["bounds"] == {
            "mu": {"value": 41.0, "provenance": "heuristic (2.05 * truncation level)"},
            "delta": {"value": -levels[0]["drift"]["mean"],
                      "provenance": "empirical mean of truncated increments"},
        }
        assert "empirical mean of truncated increments" in capsys.readouterr().out

    @pytest.mark.parametrize("command, payload", [
        ("sweep", {"kernels": {"pre": SMALL_KERNEL, "post": SMALL_POST},
                   "stream": {"law": "pre", "length": 5000, "seed": 9, "burn_in": 100},
                   "thresholds": [20.0, 40.0, 80.0], "truncation": 20.0,
                   "compare_untruncated": True,
                   "bounds": {"mu": {"heuristic": {"factor": 2.05}}, "delta": "empirical"}}),
        ("detect", {"kernels": {"pre": SMALL_KERNEL, "post": SMALL_POST},
                    "data": {"simulate": {"length": 5000, "change_point": 2500, "seed": 6,
                                          "burn_in": 100}},
                    "detector": {"threshold": 300.0, "truncation": 10.0}}),
    ])
    def test_a_stream_in_blocks_gives_the_outputs_of_one_block(self, tmp_path, command, payload):
        # 700-row blocks cut the 5100 steps into 8 blocks; the first holds the
        # 100 burn-in steps, and in detect each kernel's steps are cut apart
        code, whole = run(tmp_path, command, payload, out="whole")
        assert code == EXIT_OK
        with mock.patch.object(markov, "_BLOCK_BYTES", 8 * 3 * 700):
            code, blocked = run(tmp_path, command, payload, out="blocked")
        assert code == EXIT_OK
        for path in whole.iterdir():
            if path.name != "metrics.json":
                assert (blocked / path.name).read_bytes() == path.read_bytes(), path.name
        metrics = json.loads((blocked / "metrics.json").read_text())
        stages = metrics["stages"]
        make = "simulate" if command == "sweep" else "read"
        assert list(stages) == [make, "score", "scan", "write"]
        assert stages[make]["blocks"] == stages["score"]["blocks"] == 8
        assert stages[make]["states"] == 5000 and stages["score"]["increments"] == 4999
        assert stages["score"]["increments_per_s"] == pytest.approx(4999 / stages["score"]["wall_s"])
        assert_stage_peaks(stages)
        assert_peak_stage(metrics)
        whole_metrics = json.loads((whole / "metrics.json").read_text())
        for key in ("truncation_levels", "bounds", "clipped_fraction", "drift", "peak_statistic"):
            assert metrics.get(key) == whole_metrics.get(key)

    def test_delay_law_records_post_drift(self, tmp_path):
        payload = {
            "kernels": {"pre": SMALL_KERNEL, "post": SMALL_POST},
            "stream": {"law": "post", "length": 2000, "seed": 10, "burn_in": 100},
            "thresholds": [100.0],
            "bounds": {"mu": 1230.0, "post_drift": 3.5},
        }
        code, out = run(tmp_path, "sweep", payload)
        assert code == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["bounds"] == {"mu": {"value": 1230.0, "provenance": "explicit"},
                                     "post_drift": {"value": 3.5, "provenance": "explicit"}}
        assert [lv["truncation"] for lv in metrics["truncation_levels"]] == [None]

    def test_missing_kernel_rejected_before_models_are_read(self, tmp_path, capsys):
        missing = str(tmp_path / "no_such_model.bin")
        payload = {
            "models": {"pre": missing, "post": missing},
            "kernels": {"pre": SMALL_KERNEL},
            "stream": {"law": "post", "length": 100},
            "thresholds": [10.0],
        }
        code, _ = run(tmp_path, "sweep", payload)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.strip() == "error: stream.law = post requires kernels.post"


OVERFLOWING = {"dim": 2, "alpha": 1.9, "sigma": 1e150, "shift": 1e308}


@pytest.mark.parametrize("command, payload", [
    ("sweep", {"kernels": {"pre": OVERFLOWING, "post": OVERFLOWING},
               "stream": {"law": "pre", "length": 50, "burn_in": 0}, "thresholds": [10.0]}),
    ("detect", {"kernels": {"pre": OVERFLOWING, "post": OVERFLOWING},
                "data": {"simulate": {"length": 50, "burn_in": 0}}, "detector": {"threshold": 10.0}}),
])
def test_overflowing_stream_exits_4_naming_its_first_state(tmp_path, capsys, command, payload):
    # numpy warned of the overflow, and the run exited 4 only once a score
    # term was non-finite, naming no state (1 under warnings as errors)
    code, out = run(tmp_path, command, payload)
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err == "error: simulated state 3 is not finite\n"
    assert not (out / "metrics.json").exists()


# states near 1e100 score finitely under a field of sigma 1e-50, about 1e200,
# but half its square overflows
WIDE = {"dim": 2, "alpha": 0.3, "sigma": 1e100}
NARROW = {"dim": 2, "alpha": 0.3, "sigma": 1e-50}


@pytest.mark.parametrize("command, payload", [
    ("sweep", {"kernels": {"pre": WIDE, "post": NARROW},
               "stream": {"law": "pre", "length": 50, "burn_in": 0}, "thresholds": [10.0]}),
    ("detect", {"kernels": {"pre": WIDE, "post": NARROW},
                "data": {"simulate": {"length": 50, "burn_in": 0}}, "detector": {"threshold": 10.0}}),
])
def test_overflowing_hyvarinen_score_exits_4_naming_the_overflow(tmp_path, capsys, command, payload):
    # the score terms were finite, so this exited 4 only at the detector's
    # finite check, as a "non-finite detector increment"
    code, out = run(tmp_path, command, payload)
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err == "error: Hyvarinen score overflows from finite terms\n"
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize("command, data, message", [
    ("train", {"kernel": SMALL_KERNEL, "csv": "no_such.csv"},
     "give exactly one of data.kernel and data.csv, got both"),
    ("train", {}, "give exactly one of data.kernel and data.csv, got neither"),
    ("detect", {"simulate": {"length": 50}, "csv": "no_such.csv"},
     "give exactly one of data.simulate and data.csv, got both"),
    ("detect", {}, "give exactly one of data.simulate and data.csv, got neither"),
])
def test_data_sources_are_exactly_one(tmp_path, capsys, command, data, message):
    # both sources ran on the CSV alone, and train then skipped the accuracy
    # report that data.kernel turns on
    payload = {
        "train": {"architecture": {"hidden_widths": [4]}, "training": {"epochs": 1}},
        "detect": {"kernels": {"pre": SMALL_KERNEL, "post": SMALL_POST},
                   "detector": {"threshold": 10.0}},
    }[command]
    code, out = run(tmp_path, command, {**payload, "data": data})
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not (out / "metrics.json").exists()


class TestBounds:
    def test_prints_values(self, tmp_path, capsys):
        payload = {"delta": 1.0, "mu": 2.0, "threshold": 4.0, "post_drift": 5.0}
        code, _ = run(tmp_path, "bounds", payload)
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        bound_line = next(l for l in captured.splitlines() if "false-alarm lower bound" in l)
        assert float(bound_line.rsplit(" ", 1)[1]) == pytest.approx(6.96649, abs=1e-4)
        assert "n0 = 1" in captured  # floor((4 + 2) / 5)

    def test_writes_what_it_prints(self, tmp_path):
        payload = {"delta": 0.5, "mu": {"heuristic": {"truncation_level": 4.0}},
                   "threshold": 30.0, "post_drift": 2.5, "thresholds": [10.0, 20.0]}
        code, out = run(tmp_path, "bounds", payload)
        assert code == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["outputs"] == [
            "bounds.csv", "bounds.json"]
        mu = bounds.heuristic_mu(4.0)
        n0, delay = bounds.delay_upper_bound(30.0, mu, 2.5)
        assert json.loads((out / "bounds.json").read_text()) == {
            "mu": {"value": mu, "provenance": "heuristic (2.05 * truncation level)"},
            "delta": 0.5,
            "threshold": 30.0,
            "false_alarm_lower_bound": bounds.false_alarm_lower_bound(0.5, mu, 30.0),
            "delay": {"post_drift": 2.5, "n0": n0, "upper_bound": delay, "asymptotic": True},
        }

    def test_bound_past_the_float_range_writes_inf(self, tmp_path):
        # exp(4 * 998 / 4) overflows a double: the bound is inf, not an internal error,
        # and bounds.json writes it as the string "inf", which a strict parser reads
        payload = {"delta": 1.0, "mu": 2.0, "threshold": 1000.0, "thresholds": [4.0, 1000.0]}
        code, out = run(tmp_path, "bounds", payload)
        assert code == EXIT_OK
        lower = bounds.false_alarm_lower_bound(1.0, 2.0, 4.0)
        assert (out / "bounds.csv").read_text().splitlines() == [
            "b,bound", f"4.0,{lower!r}", "1000.0,inf"]
        assert read_strict_json(out / "bounds.json")["false_alarm_lower_bound"] == "inf"

    def test_delay_bound_past_the_float_range_writes_inf(self, tmp_path, capsys):
        # floor((4 + 2) / 1e-310) has no float: an internal error exited 1 with no bounds.json
        payload = {"delta": 1.0, "mu": 2.0, "threshold": 4.0, "post_drift": 1e-310}
        code, out = run(tmp_path, "bounds", payload)
        assert code == EXIT_OK
        assert "n0 = inf, 1 + n0 = inf" in capsys.readouterr().out
        assert read_strict_json(out / "bounds.json")["delay"] == {
            "post_drift": 1e-310, "n0": "inf", "upper_bound": "inf", "asymptotic": True}

    def test_without_post_drift_writes_no_delay(self, tmp_path):
        code, out = run(tmp_path, "bounds", {"delta": 1.0, "mu": 2.0, "threshold": 4.0})
        assert code == EXIT_OK
        values = json.loads((out / "bounds.json").read_text())
        assert "delay" not in values
        assert values["false_alarm_lower_bound"] == bounds.false_alarm_lower_bound(1.0, 2.0, 4.0)

    def test_n0_example(self, tmp_path, capsys):
        payload = {"delta": 1.0, "mu": 10.0, "threshold": 100.0, "post_drift": 5.0}
        code, _ = run(tmp_path, "bounds", payload)
        assert code == EXIT_OK
        assert "n0 = 22" in capsys.readouterr().out

    def test_grid_across_mu_writes_nan_at_and_below_mu(self, tmp_path):
        # the scalar threshold lies above mu; grid points at or below it have no bound
        payload = {"delta": 1.0, "mu": 2.0, "threshold": 4.0, "thresholds": [1.0, 2.0, 100.0]}
        code, out = run(tmp_path, "bounds", payload)
        assert code == EXIT_OK
        assert (out / "bounds.csv").read_text().splitlines() == [
            "b,bound", "1.0,nan", "2.0,nan",
            f"100.0,{bounds.false_alarm_lower_bound(1.0, 2.0, 100.0)!r}"]
        assert json.loads((out / "manifest.json").read_text())["outputs"] == [
            "bounds.csv", "bounds.json"]

    def test_domain_error_mentions_condition(self, tmp_path, capsys):
        payload = {"delta": 1.0, "mu": 10.0, "threshold": 5.0}
        code, _ = run(tmp_path, "bounds", payload)
        assert code == EXIT_USAGE
        assert "b > mu" in capsys.readouterr().err


class TestMocap:
    def test_fixture_scenario(self, tmp_path):
        payload = {
            "pre": str(FIXTURES / "walk_ten_frames.amc"),
            "post": str(FIXTURES / "jump_eight_frames.amc"),
            "splice_index": 6,
        }
        code, out = run(tmp_path, "mocap", payload)
        assert code == EXIT_OK
        scenario = json.loads((out / "scenario.json").read_text())
        assert scenario["dimension"] == 9
        assert scenario["change_index"] == 6
        assert scenario["n_pairs"] == 13
        pair_lines = (out / "pairs.csv").read_text().strip().splitlines()
        assert len(pair_lines) == 14
        assert pair_lines[0].startswith("prev_x0")

    def test_metrics_record_stages_and_rates(self, tmp_path):
        payload = {
            "pre": str(FIXTURES / "walk_ten_frames.amc"),
            "post": str(FIXTURES / "jump_eight_frames.amc"),
            "splice_index": 6,
        }
        code, out = run(tmp_path, "mocap", payload)
        assert code == EXIT_OK
        assert "metrics.json" in json.loads((out / "manifest.json").read_text())["outputs"]
        stages = json.loads((out / "metrics.json").read_text())["stages"]
        assert list(stages) == ["parse", "build", "write"]
        lines = sum(len((FIXTURES / name).read_text().splitlines())
                    for name in ("walk_ten_frames.amc", "jump_eight_frames.amc"))
        assert stages["parse"]["lines"] == lines
        assert stages["parse"]["lines_per_s"] == pytest.approx(lines / stages["parse"]["wall_s"])
        assert stages["build"]["frames"] == 14
        assert stages["write"]["rows"] == 14 + 13
        assert stages["write"]["rows_per_s"] > 0
        assert_stage_peaks(stages)

    def test_stride_halves_even_fixture(self, tmp_path):
        payload = {
            "pre": str(FIXTURES / "jump_eight_frames.amc"),
            "post": None,
            "splice_index": 4,
            "stride": 2,
            "standardize": False,
        }
        code, out = run(tmp_path, "mocap", payload)
        assert code == EXIT_OK
        scenario = json.loads((out / "scenario.json").read_text())
        assert scenario["n_frames"] == 4  # 8 frames -> stride 2 -> 4, splice keeps 4

    def test_malformed_file_exit_code_and_message(self, tmp_path, capsys):
        payload = {"pre": str(FIXTURES / "bad_value.amc"), "splice_index": 1}
        code, _ = run(tmp_path, "mocap", payload)
        assert code == EXIT_DATA
        message = capsys.readouterr().err
        assert "bad_value.amc" in message and "line 6" in message

    def test_post_file_without_frames_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.amc"
        empty.write_text("# empty\n:FULLY-SPECIFIED\n")
        payload = {"pre": str(FIXTURES / "walk_ten_frames.amc"), "post": str(empty),
                   "splice_index": 8}
        code, out = run(tmp_path, "mocap", payload)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: post clip has no frames\n"
        assert not (out / "scenario.json").exists()

    def test_dimension_mismatch_usage_error(self, tmp_path):
        bad = tmp_path / "tiny.amc"
        bad.write_text("1\nroot 1.0 2.0\n2\nroot 1.5 2.5\n")
        payload = {
            "pre": str(FIXTURES / "walk_ten_frames.amc"),
            "post": str(bad),
            "splice_index": 5,
        }
        code, _ = run(tmp_path, "mocap", payload)
        assert code == EXIT_USAGE


class TestArgumentHandling:
    def test_missing_config_file(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == EXIT_IO

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize("fault", [TypeError("unsupported operand"), KeyError("kernel"),
                                       ZeroDivisionError("division by zero")])
    def test_fault_in_a_command_is_an_internal_error(self, tmp_path, monkeypatch, capsys, fault):
        # only the loader's ValueErrors are config errors (exit 2)
        def broken(config, out_dir):
            raise fault

        monkeypatch.setitem(cli._COMMANDS, "simulate", broken)
        code, _ = run(tmp_path, "simulate", {"kernel": SMALL_KERNEL, "length": 5})
        assert code == EXIT_INTERNAL
        assert capsys.readouterr().err == f"error: internal error: {type(fault).__name__}: {fault}\n"

    def test_module_runs_as_script(self, tmp_path):
        config = write_config(tmp_path, {"kernel": SMALL_KERNEL, "length": 5})
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-m", "scusum.cli", "simulate", "--config", config,
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert len((tmp_path / "out" / "trajectory.csv").read_text().splitlines()) == 6
        bad = subprocess.run([sys.executable, "-m", "scusum.cli", "frobnicate"],
                             env=env, capture_output=True, text=True, timeout=120)
        assert bad.returncode == EXIT_USAGE
