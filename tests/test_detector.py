"""Stopping rules, the run-length harness, and their brute-force oracles."""

import gc
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scusum import _kernels, detector, fields, markov

from scusum.detector import (
    DetectorConfig,
    DetectorState,
    TruncationSpec,
    detector_update,
    score_increments,
    statistic_trace,
    stream_increments,
    threshold_sweep,
    truncate,
    write_sweep_csv,
    write_trace_csv,
)
from scusum.exceptions import NumericsError
from scusum.fields import MonteCarloEstimate
from scusum.markov import (GaussianKernelSpec, TrajectoryConfig, closed_form_score, path_blocks,
                           simulate_path)
from scusum.scorenet import MlpArchitecture, as_score_field, init_params

PRE = GaussianKernelSpec(dim=10, alpha=0.3, sigma=0.3, shift=0.2)
POST = GaussianKernelSpec(dim=10, alpha=0.6, sigma=0.5, shift=0.9)


def brute_force_trace(increments, spec: TruncationSpec):
    phi = [truncate(spec, s) for s in increments]
    return [max(sum(phi[k : n + 1]) for k in range(n + 1)) for n in range(len(phi))]


class TestTruncate:
    def test_clips_above(self):
        assert truncate(TruncationSpec(600), 700.0) == 600.0

    def test_clips_below(self):
        assert truncate(TruncationSpec(600), -700.0) == -600.0

    def test_interior_identity(self):
        assert truncate(TruncationSpec(600), 3.0) == 3.0

    def test_none_is_identity(self):
        assert truncate(TruncationSpec(), 1e12) == 1e12

    def test_level_must_be_positive(self):
        with pytest.raises(ValueError):
            TruncationSpec(0.0)


class TestDetectorUpdate:
    def test_three_step_trace(self):
        config = DetectorConfig(threshold=100.0)
        state = DetectorState()
        seen = []
        for s in (1.0, -2.0, 3.0):
            state = detector_update(state, s, config)
            seen.append(state.statistic)
        assert seen == [1.0, -1.0, 3.0]
        assert seen[-1] == pytest.approx(max(1 - 2 + 3, -2 + 3, 3))
        assert state.time == 3 and not state.alarmed

    def test_all_negative_never_alarms(self):
        config = DetectorConfig(threshold=0.5)
        state = DetectorState()
        for _ in range(100):
            state = detector_update(state, -1.0, config)
        assert not state.alarmed

    def test_constant_increment_alarm_time(self):
        c, b = 0.7, 10.0
        config = DetectorConfig(threshold=b)
        state = DetectorState()
        while not state.alarmed:
            state = detector_update(state, c, config)
        assert state.time == math.ceil(b / c)

    def test_truncation_bounds_applied_increment(self):
        config = DetectorConfig(threshold=1e9, truncation=TruncationSpec(2.0))
        state = DetectorState()
        rng = np.random.default_rng(0)
        prev = 0.0
        for s in rng.uniform(-50, 50, size=200):
            state = detector_update(state, float(s), config)
            applied = state.statistic - max(0.0, prev)
            assert -2.0 - 1e-12 <= applied <= 2.0 + 1e-12
            prev = state.statistic

    def test_rejects_updates_after_alarm(self):
        config = DetectorConfig(threshold=1.0)
        state = detector_update(DetectorState(), 2.0, config)
        assert state.alarmed
        with pytest.raises(ValueError, match="reset"):
            detector_update(state, 1.0, config)

    def test_non_finite_increment(self):
        with pytest.raises(NumericsError):
            detector_update(DetectorState(), float("nan"), DetectorConfig(threshold=1.0))


class TestRecursionEquivalence:
    @pytest.mark.parametrize("level", [None, 0.5, 5.0])
    def test_matches_brute_force(self, level):
        rng = np.random.default_rng(11)
        spec = TruncationSpec(level)
        for _ in range(50):
            s = rng.uniform(-10, 10, size=int(rng.integers(1, 200)))
            assert np.max(np.abs(statistic_trace(s, spec) - brute_force_trace(s, spec))) <= 1e-9

    def test_one_step_reference_agrees_with_trace(self):
        rng = np.random.default_rng(12)
        s = rng.uniform(-5, 5, size=300)
        config = DetectorConfig(threshold=1e12, truncation=TruncationSpec(1.5))
        state = DetectorState()
        seq = []
        for inc in s:
            state = detector_update(state, float(inc), config)
            seq.append(state.statistic)
        assert np.allclose(seq, statistic_trace(s, config.truncation), atol=1e-9)


def scan(increments, b, truncation=TruncationSpec()):
    """The single-threshold row of ``threshold_sweep``, as ``detect`` runs it."""
    (row,) = threshold_sweep(increments, [b], truncation)
    return row


def first_alarm(increments, b):
    """Smallest n (1-based) with W_n >= b, or None if never reached."""
    intervals = scan(increments, b).intervals
    return int(intervals[0]) if intervals.size else None


def one_step_intervals(increments, config):
    """(intervals, residual) of a ``detector_update`` loop that resets at each alarm."""
    state, intervals, start = DetectorState(), [], 0
    for i, inc in enumerate(increments):
        state = detector_update(state, float(inc), config)
        if state.alarmed:
            intervals.append(i - start + 1)
            start, state = i + 1, DetectorState()
    return intervals, len(increments) - start


class TestFirstAlarm:
    def test_empty_stream(self):
        assert first_alarm([], 1.0) is None

    def test_immediate_alarm(self):
        assert first_alarm([2.5], 1.5) == 1

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(13)
        s = rng.uniform(-1, 1.2, size=5000)
        stops = []
        for b in (1.0, 3.0, 9.0, 27.0):
            stop = first_alarm(s, b)
            stops.append(math.inf if stop is None else stop)
        assert stops == sorted(stops)


class TestRunLengths:
    def test_all_negative_no_alarms(self):
        report = scan(-np.ones(1000), 5.0)
        assert report.count == 0 and report.intervals.tolist() == []
        assert math.isnan(report.mean)
        assert report.residual == 1000

    def test_unit_increments_deterministic_intervals(self):
        report = scan(np.ones(100), 10.0)
        assert report.intervals.tolist() == [10] * 10
        assert report.mean == 10.0 and report.residual == 0

    def test_constant_increment_delays(self):
        c, b = 0.9, 7.0
        report = scan(np.full(500, c), b)
        assert set(report.intervals.tolist()) == {math.ceil(b / c)}

    def test_intervals_partition_stream(self):
        rng = np.random.default_rng(14)
        s = rng.uniform(-2, 3, size=20_000)
        report = scan(s, 25.0, TruncationSpec(2.5))
        assert report.intervals.dtype == np.int64
        assert report.intervals.sum() + report.residual == len(s)
        assert report.count == len(report.intervals)

    def test_mean_interval_nondecreasing_in_threshold(self):
        rng = np.random.default_rng(15)
        s = rng.uniform(-1.5, 1.6, size=50_000)
        means = []
        for b in (2.0, 5.0, 10.0, 20.0):
            means.append(scan(s, b).mean)
        assert all(m2 >= m1 for m1, m2 in zip(means, means[1:]))

    def test_mean_delay_nondecreasing_in_threshold(self):
        rng = np.random.default_rng(17)
        s = rng.uniform(-1.0, 2.5, size=30_000)  # positive drift, post-change style
        means = []
        for b in (5.0, 15.0, 45.0, 135.0):
            report = scan(s, b)
            assert report.count > 0
            means.append(report.mean)
        assert all(m2 >= m1 for m1, m2 in zip(means, means[1:]))


class TestThresholdSweep:
    def test_single_threshold_matches_one_step_loop(self):
        rng = np.random.default_rng(16)
        s = rng.uniform(-1, 1.5, size=10_000)
        row = scan(s, 4.0)
        intervals, residual = one_step_intervals(s, DetectorConfig(threshold=4.0))
        assert (row.threshold, row.intervals.tolist(), row.residual) == (4.0, intervals, residual)
        assert row.mean == float(np.mean(intervals))
        assert row.count == len(intervals)

    def test_rows_match_single_threshold_scans(self):
        rng = np.random.default_rng(18)
        s = rng.uniform(-1, 1.2, size=20_000)
        trunc = TruncationSpec(0.8)
        thresholds = [2.0, 5.0, 9.0, 20.0, 1e6]
        report = threshold_sweep(s, thresholds, trunc)
        assert len(report) == len(thresholds)
        for row, b in zip(report, thresholds):
            direct = scan(s, b, trunc)
            assert (row.threshold, row.count, row.residual) == (b, direct.count, direct.residual)
            assert np.array_equal(row.intervals, direct.intervals)
            assert row.mean == direct.mean or direct.count == 0
        assert report[-1].count == 0 and math.isnan(report[-1].mean)
        assert report.peak_statistic == pytest.approx(statistic_trace(s, trunc).max(), rel=1e-12)

    def test_reports_the_clipped_stream(self):
        rng = np.random.default_rng(19)
        s = rng.uniform(-3, 2, size=5_000)
        report = threshold_sweep(s, [5.0], TruncationSpec(1.5))
        assert report.clipped_fraction == np.mean(np.abs(s) > 1.5) > 0
        assert report.drift == MonteCarloEstimate.from_values(np.clip(s, -1.5, 1.5))
        plain = threshold_sweep(s, [5.0])
        assert plain.clipped_fraction == 0.0
        assert plain.drift == MonteCarloEstimate.from_values(s)

    def test_counts_and_drift_of_a_stream_of_many_pieces(self):
        # the finite check and the clipped count go through scratch arrays of
        # _kernels._PIECE elements, and the drift squares its deviations in
        # the clipped copy: none makes an (n,) array
        rng = np.random.default_rng(20)
        s = rng.standard_normal(3 * _kernels._PIECE + 5) * 40.0 - 10.0
        report = threshold_sweep(s, [50.0], TruncationSpec(50.0))
        phi = np.clip(s, -50.0, 50.0)
        assert report.clipped_fraction == np.count_nonzero(phi != s) / s.size > 0
        assert report.drift.mean == float(np.mean(phi))
        assert report.drift.std_error == float(np.std(phi, ddof=1) / np.sqrt(s.size))
        s[-1] = math.inf
        with pytest.raises(NumericsError, match="non-finite"):
            threshold_sweep(s, [50.0])

    def test_frees_its_clipped_copy_on_return(self):
        # nothing keeps the clipped copy alive until the garbage collector
        # runs: a 3,000,000-step sweep with an untruncated comparison would
        # hold two copies, 23 MB more at its peak
        s = np.random.default_rng(21).standard_normal(100_000)
        gc.disable()
        tracemalloc.start()
        try:
            report = threshold_sweep(s, [5.0], TruncationSpec(1.0))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert report.drift.count == 100_000
        assert held < 100_000  # the copy is 800,000 bytes

    def test_empty_stream(self):
        report = threshold_sweep([], [1.0, 2.0], TruncationSpec(1.0))
        assert [(r.count, r.residual, r.intervals.tolist()) for r in report] == [(0, 0, [])] * 2
        assert report.peak_statistic == -math.inf
        assert math.isnan(report.clipped_fraction) and math.isnan(report.drift.mean)
        assert report.drift.count == 0

    def test_rejects_non_positive_threshold_and_non_finite_increments(self):
        with pytest.raises(ValueError, match=r"thresholds\[0\] = 0.0: thresholds must be positive"):
            threshold_sweep(np.ones(5), [0.0, 1.0])
        with pytest.raises(NumericsError):
            threshold_sweep(np.array([1.0, np.nan]), [1.0])

    def test_requires_increasing_thresholds(self):
        with pytest.raises(ValueError, match=r"thresholds\[2\] = 2.0: .*increasing"):
            threshold_sweep(np.ones(10), [1.0, 2.0, 2.0])
        with pytest.raises(ValueError, match="increasing"):
            threshold_sweep(np.ones(10), [2.0, 1.0])

    def test_callable_stream_provider(self):
        # one pass serves every threshold, so the stream is an increment array;
        # a provider is rejected without being called
        calls = []

        def provider():
            calls.append(1)
            return np.ones(50)

        with pytest.raises(TypeError):
            threshold_sweep(provider, [5.0, 10.0])
        assert calls == []
        rows = threshold_sweep(provider(), [5.0, 10.0])
        assert [r.count for r in rows] == [10, 5]


@pytest.fixture(scope="module")
def closed_form_fields():
    return closed_form_score(PRE), closed_form_score(POST)


@pytest.fixture(scope="module")
def pre_increments(closed_form_fields):
    fp, fq = closed_form_fields
    states = simulate_path(TrajectoryConfig(pre=PRE, length=20_000, seed=71))
    return score_increments(fp, fq, states)


@pytest.fixture(scope="module")
def post_increments(closed_form_fields):
    fp, fq = closed_form_fields
    states = simulate_path(TrajectoryConfig(pre=POST, length=10_000, seed=72))
    return score_increments(fp, fq, states)


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(0, 300),
                st.sampled_from([16_383, 16_384, 16_385, 32_780, 40_000, 70_001, 99_999])),
    loc=st.floats(-1e3, 1e3),
    scale=st.floats(1e-6, 1e6),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_drift_bitwise_numpys_mean_and_std(n, loc, scale, seed):
    # the sweep squares the deviations in its clipped copy, with np.std's
    # own operations, so the estimate keeps the bits of np.mean and np.std
    values = loc + scale * np.random.default_rng(seed).standard_normal(n)
    estimate = detector._spent_drift(values.copy())
    assert estimate.count == n
    if n:
        assert estimate.mean.hex() == float(np.mean(values)).hex()
    if n > 1:
        assert estimate.std_error.hex() == float(np.std(values, ddof=1) / np.sqrt(n)).hex()


class TestSyntheticStreams:
    def test_truncation_preserves_negative_drift(self, pre_increments):
        # empirical restatement: clipping at M=600 keeps the pre-change mean negative
        phi = np.clip(pre_increments, -600, 600)
        assert phi.mean() < 0
        assert phi.mean() + 3 * phi.std(ddof=1) / math.sqrt(len(phi)) < 0

    def test_truncated_delay_not_shorter(self, post_increments):
        # positive spikes get clipped, so the truncated statistic climbs no faster
        b = 2000.0
        plain = scan(post_increments, b)
        clipped = scan(post_increments, b, TruncationSpec(150.0))
        assert clipped.count > 0 and plain.count > 0
        assert clipped.mean >= plain.mean

    def test_score_increment_count(self, closed_form_fields, pre_increments):
        assert len(pre_increments) == 20_000 - 1


def test_score_increments_memory_does_not_grow_with_the_stream(closed_form_fields):
    # the score stage works in row blocks: one (n,) output per field and about
    # 1 MiB per (rows, d) temporary, where whole-stream temporaries took 32 MB
    fp, fq = closed_form_fields
    states = simulate_path(TrajectoryConfig(pre=PRE, length=200_001, seed=73))
    tracemalloc.start()
    try:
        increments = score_increments(fp, fq, states)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert increments.shape == (200_000,) and increments.nbytes == 1_600_000
    assert peak < 8_000_000


def _cut(states, cuts):
    """``states`` as consecutive blocks ending at the sorted positions ``cuts``."""
    edges = [0, *sorted(set(cuts)), len(states)]
    return [states[a:b] for a, b in zip(edges, edges[1:])]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 400),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
    rows=st.sampled_from([1, 2, 3, 7, 64, 1000]),
    network=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_streamed_increments_bitwise_equal_to_one_whole_trajectory_call(n, cuts, rows, network, seed):
    # the pairs reach the fields in the row blocks of the whole-trajectory
    # call, so network fields, whose GEMMs treat row counts differently, agree
    # bit for bit as well
    d = 3
    if network:
        arch = MlpArchitecture(2 * d, (8,), d)
        fp, fq = as_score_field(init_params(arch, 1)), as_score_field(init_params(arch, 2))
    else:
        fp = closed_form_score(GaussianKernelSpec(dim=d, alpha=0.3, sigma=0.3, shift=0.2))
        fq = closed_form_score(GaussianKernelSpec(dim=d, alpha=0.6, sigma=0.5, shift=0.9))
    states = np.random.default_rng(seed).standard_normal((n, d))
    blocks = _cut(states, [int(c * n) for c in cuts])
    with mock.patch.object(fields, "_BLOCK_BYTES", 8 * d * rows):
        whole = score_increments(fp, fq, states)
        streamed = stream_increments(fp, fq, iter(blocks), n)
    assert np.array_equal(streamed.view(np.int64), whole.view(np.int64))


def test_stream_increments_rejects_a_wrong_state_count(closed_form_fields):
    fp, fq = closed_form_fields
    states = np.zeros((10, 10))
    with pytest.raises(ValueError, match="hold 10 states, expected 11"):
        stream_increments(fp, fq, [states[:4], states[4:]], 11)
    with pytest.raises(ValueError, match="more than 9 states"):
        stream_increments(fp, fq, [states[:4], states[4:]], 9)
    with pytest.raises(ValueError, match="n >= 2"):
        stream_increments(fp, fq, [states[:1]], 1)


def _streamed_peak(fields_pq, length):
    """tracemalloc peak of simulating and scoring a ``length``-state stream one block at a time."""
    config = TrajectoryConfig(pre=PRE, length=length, seed=74)
    tracemalloc.start()
    try:
        increments = stream_increments(*fields_pq, path_blocks(config), length)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert increments.shape == (length - 1,)
    return peak


def test_streamed_simulate_and_score_peak_grows_only_by_the_increments(closed_form_fields):
    # one simulated block, its states stepped over its noise, sets the peak
    # at any length, and only the (n - 1,) increments grow, 8 bytes per step.
    # Besides them the peak holds the score of one row block: the states of
    # a row block that waits for the next simulated block, the crossing row
    # block built from them, and the kernel mean, its tanh term and the score
    # of a row block, 1 MiB each whatever the length. Holding the whole
    # stream's noise and states grew the peak by 157 bytes per step; a
    # block's noise and states held as two arrays took 17.5 MB above the
    # increments at either length
    extra_steps = 200_000
    block = markov._block_rows(10) * 10 * 8
    row_block = (fields._block_rows(10) + 1) * 10 * 8
    short = _streamed_peak(closed_form_fields, 200_000)
    long = _streamed_peak(closed_form_fields, 400_000)
    assert long - short < 8 * extra_steps + row_block + 100_000
    assert long < block + 8 * 400_000 + 5 * row_block


class TestCsvOutputs:
    def test_trace_csv(self, tmp_path):
        s = np.array([1.0, -2.0, 3.0])
        w = statistic_trace(s)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, s, w, first_time=2)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,score_diff,cusum_stat"
        assert lines[1].split(",")[0] == "2"
        assert float(lines[3].split(",")[2]) == 3.0

    def test_sweep_csv(self, tmp_path):
        rows = threshold_sweep(np.ones(30), [3.0, 6.0])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "threshold,mean_run_length,count"
        assert len(lines) == 3
