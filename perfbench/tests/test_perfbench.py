"""Tests of the benchmark itself: generated inputs, span arithmetic, output checks.

    python3 -m pytest perfbench/tests -q
"""

import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from scusum import _kernels, detector, markov, mocap, scorenet

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------

def _generated(cls, directory: Path, seed: int) -> dict[str, bytes]:
    directory.mkdir()
    cls(directory, seed).write_inputs()
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_fixed_seed_gives_byte_identical_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = _generated(cls, tmp_path / "a", 7)
    second = _generated(cls, tmp_path / "b", 7)
    other = _generated(cls, tmp_path / "c", 8)
    assert first and first == second
    assert first.keys() == other.keys() and first != other


def test_generated_clip_has_cmu_shape(tmp_path):
    workloads.DetectMocap(tmp_path, 3).write_inputs()
    clip = mocap.parse_amc((tmp_path / "walk.amc").read_text())
    assert clip.dimension == 62 and len(clip.bone_order) == 29
    assert clip.n_frames == workloads.MOCAP_PRE_FRAMES


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def _span(id_, name, parent, start, end, **counts):
    return spans.Span(id_, name, parent, 1, start, end, counts)


def test_self_time_subtracts_children_once():
    tree = [
        _span(0, "cli.detect", None, 0.0, 10.0),
        _span(1, "fields.hyvarinen_scores", 0, 1.0, 7.0),
        _span(2, "scorenet.forward_batch", 1, 2.0, 3.0),
        _span(3, "scorenet.divergence_batch", 1, 3.0, 6.0),
        _span(4, "detector.write_trace_csv", 0, 8.0, 9.5),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 2.5, 1: 2.0, 2: 1.0, 3: 3.0, 4: 1.5})
    assert sum(own.values()) == pytest.approx(10.0)


def test_covered_time_merges_overlaps_and_clips_to_parent():
    assert spans.covered_time(0.0, 10.0, [(1, 4), (3, 5), (8, 12), (-2, 0.5)]) == pytest.approx(6.5)
    assert spans.covered_time(0.0, 1.0, []) == 0.0


def test_pass_metrics_from_hand_built_spans():
    tree = [
        _span(0, "cli.sweep", None, 0.0, 10.0),
        _span(1, "markov.simulate_path", 0, 0.0, 6.0),
        _span(2, "kernels.chain_steps", 1, 0.5, 5.5, steps=1000),
        _span(3, "detector.threshold_sweep", 0, 6.0, 9.0),
        _span(4, "kernels.run_lengths", 3, 6.0, 8.0, increments=400, alarms=7),
    ]
    m = spans.pass_metrics(tree)
    assert m["cli.sweep.self_s"] == pytest.approx(1.0)
    assert m["markov.self_s"] == pytest.approx(1.0)
    assert m["kernels.self_s"] == pytest.approx(7.0)
    assert m["detector.threshold_sweep.self_s"] == pytest.approx(1.0)
    assert m["kernels.chain_steps.steps_per_s"] == pytest.approx(200.0)
    assert m["kernels.run_lengths.increments_per_s"] == pytest.approx(200.0)
    assert m["detector.alarms"] == 7
    assert m["scorenet.self_s"] == 0.0 and m["scorenet.train.pairs_per_s"] == 0.0


def test_instrumented_traces_nested_calls_and_restores_bindings():
    original = markov.simulate_path
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        detector.statistic_trace(np.array([1.0, -2.0, 3.0]))
    assert markov.simulate_path is original
    names = [s.name for s in tracer.spans]
    assert names == ["detector.statistic_trace", "kernels.cusum_trace"]
    assert tracer.spans[1].parent == tracer.spans[0].id
    assert _kernels.cusum_trace.__name__ == "cusum_trace"


def test_computed_work_of_forward_and_tangent_passes():
    arch = scorenet.MlpArchitecture(4, (3,), 2)
    params = scorenet.init_params(arch, 0)
    flops, nbytes = spans.forward_work(params, 5)
    assert flops == 2 * 5 * (4 * 3 + 3 * 2)
    assert nbytes == 8 * ((5 * 4 + 12 + 3 + 5 * 3) + (5 * 3 + 6 + 2 + 5 * 2))
    flops, nbytes = spans.tangent_work(params, 5)
    assert flops == 2 * 5 * 2 * 3 * 2
    assert nbytes == 8 * (10 * 3 + 6 + 10 * 2)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    names = list(spans.pass_metrics([])) + list(run.EXTRA_LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(names)


# ---------------------------------------------------------------------------
# output checks fail on corrupted outputs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One set-up and one checked pass of every workload."""
    cwd = os.getcwd()
    done = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload, _ = run.set_up(cls, tmp_path_factory.mktemp(name), 5)
            workload.prepare_checks()
            runner = run.Runner(workload, workloads.run_cli)
            runner.run_pass()
            if name == "train_scorenet":
                workload.peak_rss_mb = runner.run_pass_in_processes()
            assert runner.failed == 0, runner.problems
            done[name] = workload
    finally:
        os.chdir(cwd)
    return done


def _edit_csv(path: Path, row: int, column: str, value) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row][column] = value
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


@pytest.fixture
def restore(passes):
    """Put back every file a test corrupts."""
    saved = {}

    def keep(path: Path) -> Path:
        saved.setdefault(path, path.read_bytes())
        return path

    yield keep
    for path, data in saved.items():
        path.write_bytes(data)


def _check(workload, index: int) -> list[str]:
    return workload.calls()[index].check()


def test_sweep_checks_pass_on_the_pass_outputs(passes):
    w = passes["sweep_closed_form"]
    assert _check(w, 0) == [] and _check(w, 1) == []


@pytest.mark.parametrize("corrupt", [
    lambda out: _edit_csv(out / "false_alarm" / "sweep.csv", 0, "count", "1"),
    lambda out: _edit_csv(out / "false_alarm" / "sweep.csv", 1, "mean_run_length", "123.5"),
    lambda out: _edit_csv(out / "false_alarm" / "sweep_untruncated.csv", 2, "count", "0"),
    lambda out: _edit_csv(out / "false_alarm" / "bounds.csv", 3, "bound", "1e300"),
    lambda out: _edit_csv(out / "false_alarm" / "bounds.csv", 0, "bound", "1.0"),
    lambda out: _edit_csv(out / "false_alarm" / "bounds.csv", 4, "bound", "nan"),
])
def test_false_alarm_check_fails_on_corrupted_output(passes, restore, corrupt):
    w = passes["sweep_closed_form"]
    for name in ("sweep.csv", "sweep_untruncated.csv", "bounds.csv"):
        restore(w.work / "out" / "false_alarm" / name)
    corrupt(w.work / "out")
    assert _check(w, 0)


def test_delay_check_fails_on_corrupted_output(passes, restore):
    w = passes["sweep_closed_form"]
    _edit_csv(restore(w.work / "out" / "delay" / "sweep.csv"), 3, "count", "5")
    assert _check(w, 1)


def test_sweep_check_reports_reference_problems(passes):
    w = passes["sweep_closed_form"]
    ref = dict(w.reference["delay"], problems=["reference broken"])
    assert workloads.check_sweep(w.work / "out" / "delay", ref) == ["reference broken"]


def _off_chain_steps(original):
    return lambda x0, noise, alpha, shift, sigma: original(x0, noise, alpha, shift, sigma) * 1.001


@pytest.mark.parametrize("module, name, breaking", [
    (_kernels, "chain_steps", _off_chain_steps),
    (detector, "score_increments", lambda original: lambda *args: original(*args) + 1e-3),
])
def test_sweep_reference_fails_when_the_package_steps_or_scores_wrongly(
        passes, monkeypatch, module, name, breaking):
    w = passes["sweep_closed_form"]
    monkeypatch.setattr(module, name, breaking(getattr(module, name)))
    assert w._reference("delay")["problems"]


def test_sweep_check_fails_on_a_wrongly_simulated_stream(passes, restore, monkeypatch):
    w = passes["sweep_closed_form"]
    out = w.work / "out" / "delay"
    for path in out.iterdir():
        restore(path)
    monkeypatch.chdir(w.work)
    monkeypatch.setattr(_kernels, "chain_steps", _off_chain_steps(_kernels.chain_steps))
    assert workloads.run_cli(w.calls()[1].argv) == 0
    monkeypatch.undo()
    problems = _check(w, 1)
    assert problems and not w.reference["delay"]["problems"]


def _save_untrained(path: Path) -> None:
    arch = scorenet.MlpArchitecture(20, (128, 128, 128), 10)
    scorenet.save_model(scorenet.init_params(arch, 0), path)


@pytest.mark.parametrize("corrupt", [
    lambda out: _edit_csv(out / "loss_curve.csv", 1, "loss", "5.0"),
    lambda out: _edit_csv(out / "loss_curve.csv", 0, "loss", "nan"),
    lambda out: (out / "model.bin").write_bytes((out / "model.bin").read_bytes()[:-8]),
    lambda out: _save_untrained(out / "model.bin"),
])
def test_train_check_fails_on_corrupted_output(passes, restore, corrupt):
    w = passes["train_scorenet"]
    out = w.work / "out" / "train"
    assert _check(w, 0) == []
    assert w.score_rel_error < workloads.TRAIN_REL_ERROR_TOL
    restore(out / "loss_curve.csv")
    restore(out / "model.bin")
    corrupt(out)
    assert _check(w, 0)


def _edit_json(path: Path, key: str, value) -> None:
    data = json.loads(path.read_text())
    data[key] = value
    path.write_text(json.dumps(data))


def _edit_states(path: Path) -> None:
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[7] = repr(float(cells[7]) + 1e-6)
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _drop_last_line(path: Path) -> None:
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


@pytest.mark.parametrize("index, target, corrupt", [
    (0, "pure/scenario.json", lambda p: _edit_json(p, "n_frames", 799)),
    (1, "spliced/scenario.json", lambda p: _edit_json(p, "change_index", 599)),
    (0, "pure/states.csv", _edit_states),
    (1, "spliced/pairs.csv", _drop_last_line),
    (2, "detect/alarms.json", lambda p: _edit_json(p, "alarm_times", [])),
    (2, "detect/alarms.json", lambda p: _edit_json(p, "alarm_times", [workloads.MOCAP_SPLICE])),
    (2, "detect/trace.csv", lambda p: _edit_csv(p, 0, "score_diff", "0.5")),
    (2, "detect/trace.csv", lambda p: _edit_csv(p, 10, "cusum_stat", "1.0")),
    (2, "detect/trace.csv", _drop_last_line),
])
def test_mocap_checks_fail_on_corrupted_output(passes, restore, index, target, corrupt):
    w = passes["detect_mocap"]
    assert [_check(w, i) for i in range(3)] == [[], [], []]
    corrupt(restore(w.work / "out" / target))
    assert _check(w, index)


class _OffByOne(scorenet.MlpScoreField):
    def divergence(self, y, x):
        return super().divergence(y, x) + 1.0


def test_detect_check_fails_on_inexact_divergence(passes):
    w = passes["detect_mocap"]
    spliced = np.concatenate([w.walk[: workloads.MOCAP_SPLICE], w.jump])
    broken = dict(w.fields, pre=_OffByOne(w.fields["pre"].params))
    problems = workloads.check_detect(w.work / "out" / "detect", spliced, broken, workloads.MOCAP_SPLICE)
    assert any("divergence" in p for p in problems)


def test_pass_in_fresh_processes_reports_their_peak_memory(passes):
    # a numpy import alone takes tens of MB; the d=10 training stays well under 1 GB
    assert 20 < passes["train_scorenet"].peak_rss_mb < 1000
    assert _check(passes["train_scorenet"], 0) == []


def test_runner_counts_nonzero_exit_and_unreadable_output():
    calls = [workloads.Call(["train"], lambda: []), workloads.Call(["x"], lambda: open("missing"))]

    class Fake:
        def calls(self):
            return calls

    runner = run.Runner(Fake(), lambda argv: 2 if argv == ["train"] else 0)
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (2, 2)
    assert "exit code 2" in runner.problems[0] and "unreadable" in runner.problems[1]
