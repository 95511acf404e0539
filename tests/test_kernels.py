"""The hot kernels against brute force and one-step reference loops."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scusum import _kernels
from scusum.detector import DetectorConfig, DetectorState, TruncationSpec, detector_update

L = _kernels.BLOCK


def brute_force_trace(increments, m):
    phi = np.clip(increments, -m, m)
    n = len(phi)
    return np.array([max(phi[k : i + 1].sum() for k in range(i + 1)) for i in range(n)])


def one_step_chain(x0, noise, alpha, shift, sigma):
    """The transition map applied one state at a time."""
    out = np.empty_like(noise)
    x = np.array(x0, dtype=np.float64)
    for t in range(noise.shape[0]):
        x = x - alpha * x + shift * np.tanh(x) + sigma * noise[t]
        out[t] = x
    return out


def one_step_scan(increments, config):
    """Detect-and-reset via ``detector_update``: (intervals, residual, statistics)."""
    state = DetectorState()
    intervals, stats, start = [], [], 0
    for i, inc in enumerate(increments):
        state = detector_update(state, float(inc), config)
        stats.append(state.statistic)
        if state.alarmed:
            intervals.append(i - start + 1)
            start = i + 1
            state = DetectorState()
    return intervals, len(increments) - start, np.array(stats)


def _config(b, m):
    return DetectorConfig(threshold=b, truncation=TruncationSpec(None if m == np.inf else m))


def sweep(increments, thresholds, m):
    """``sweep_run_lengths`` over ``increments`` clipped to [-m, m]."""
    return _kernels.sweep_run_lengths(np.clip(np.asarray(increments, dtype=np.float64), -m, m),
                                      thresholds)


def reset_scan(increments, b, m):
    """(intervals, residual) of the detect-and-reset scan at one threshold ``b``."""
    runs, _ = sweep(increments, [b], m)
    return runs[0]


def assert_bitwise(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("m", [np.inf, 0.5, 5.0])
def test_trace_matches_brute_force(m):
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 200))
        s = rng.uniform(-10, 10, size=n)
        expected = brute_force_trace(s, m)
        assert np.max(np.abs(_kernels.cusum_trace(s, m) - expected)) <= 1e-9


def test_trace_with_carry_matches_sequential():
    rng = np.random.default_rng(4)
    s = rng.uniform(-5, 5, size=500)
    full = _kernels.cusum_trace(s, np.inf)
    # split anywhere; prepending max(0, W) at the cut as a virtual increment
    # reproduces the tail, because W_0' = carry + max(0, 0) = carry
    for cut in (1, 137, 250, 499):
        carry = max(0.0, full[cut - 1])
        tail = _kernels.cusum_trace(np.concatenate(([carry], s[cut:])), np.inf)[1:]
        assert np.allclose(tail, full[cut:], atol=1e-9)


class TestReferenceParity:
    def test_chain_steps(self):
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(10)
        noise = rng.standard_normal((20000, 10))
        assert_bitwise(
            _kernels.chain_steps(x0, noise, 0.3, 0.2, 0.3), one_step_chain(x0, noise, 0.3, 0.2, 0.3)
        )

    def test_cusum_trace(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(-10, 10, size=5000)
        for m in (np.inf, 2.5):
            _, _, stats = one_step_scan(s, _config(math.inf, m))
            assert np.allclose(_kernels.cusum_trace(s, m), stats, rtol=0, atol=1e-9)

    def test_single_threshold_scan(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            s = rng.uniform(-3, 5, size=int(rng.integers(10, 20000)))
            b = float(rng.uniform(0.5, 50))
            m = float(rng.choice([np.inf, 1.0, 4.0]))
            intervals, residual = reset_scan(s, b, m)
            ref_intervals, ref_residual, _ = one_step_scan(s, _config(b, m))
            assert intervals.tolist() == ref_intervals
            assert residual == ref_residual

    def test_first_alarm(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(-2, 2, size=10000)
        for b in (0.5, 10.0, 1e9):
            config = _config(b, np.inf)
            ref_intervals, _, _ = one_step_scan(s, config)
            intervals, _ = reset_scan(s, b, np.inf)
            assert intervals[:1].tolist() == ref_intervals[:1]


def literal_reset_scan(s, b, m):
    """(intervals, residual) of the detect-and-reset recursion as a literal loop."""
    intervals = []
    w = 0.0
    start = 0
    for i, inc in enumerate(s):
        phi = min(max(inc, -m), m)
        w = phi + max(0.0, w)
        if w >= b:
            intervals.append(i - start + 1)
            start = i + 1
            w = 0.0
    return intervals, len(s) - start


def test_single_threshold_scan_against_reference():
    # detect-and-reset scan equals a literal one-step reference loop
    rng = np.random.default_rng(6)
    s = rng.uniform(-3, 4, size=2000)
    b, m = 7.0, 2.5
    intervals, residual = reset_scan(s, b, m)
    ref_intervals, ref_residual = literal_reset_scan(s, b, m)
    assert list(intervals) == ref_intervals
    assert residual == ref_residual


def test_chain_steps_zero_noise_fixed_point():
    # with alpha=1, shift=0 the mean map sends everything to 0
    x0 = np.array([3.0, -2.0])
    noise = np.zeros((4, 2))
    out = _kernels.chain_steps(x0, noise, 1.0, 0.0, 1.0)
    assert np.allclose(out, 0.0)


def test_chain_steps_leaves_inputs_untouched():
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal(3)
    noise = rng.standard_normal((3 * L + 5, 3))
    x0_copy, noise_copy = x0.copy(), noise.copy()
    _kernels.chain_steps(x0, noise, 0.3, 0.2, 0.3)
    assert_bitwise(x0, x0_copy)
    assert_bitwise(noise, noise_copy)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    length=st.sampled_from([0, 1, L - 1, L, 2 * L - 1, 2 * L, 2 * L + 1, 5 * L + 17]),
    dim=st.integers(1, 6),
    alpha=st.floats(0.01, 1.99),
    shift=st.floats(-4.0, 4.0),
    sigma=st.floats(0.01, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(length=5 * L + 17, dim=3, alpha=0.05, shift=3.0, sigma=1.0, seed=0)  # bistable
@example(length=5 * L + 17, dim=2, alpha=0.01, shift=0.0, sigma=1.0, seed=1)  # slow merging
def test_chain_steps_bitwise_equal_to_one_step_loop(length, dim, alpha, shift, sigma, seed):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(dim) * 3.0
    noise = rng.standard_normal((length, dim))
    assert_bitwise(
        _kernels.chain_steps(x0, noise, alpha, shift, sigma),
        one_step_chain(x0, noise, alpha, shift, sigma),
    )


@settings(max_examples=200, deadline=None)
@given(
    stream=st.lists(st.one_of(st.floats(-10.0, 10.0), st.floats(-1e6, 1e6)), max_size=300),
    b=st.floats(1e-3, 1e4),
    m=st.one_of(st.just(np.inf), st.floats(1e-3, 1e4)),
)
def test_single_threshold_scan_equals_detector_update_loop(stream, b, m):
    intervals, residual = reset_scan(stream, b, m)
    ref_intervals, ref_residual, _ = one_step_scan(stream, _config(b, m))
    assert intervals.tolist() == ref_intervals
    assert residual == ref_residual


# ---------------------------------------------------------------------------
# one pass for a threshold grid
# ---------------------------------------------------------------------------

def assert_sweep_equals_one_step_scans(stream, thresholds, m):
    runs, peak = sweep(stream, thresholds, m)
    assert len(runs) == len(thresholds)
    for b, (intervals, residual) in zip(thresholds, runs):
        ref_intervals, ref_residual, _ = one_step_scan(stream, _config(b, m))
        assert intervals.dtype == np.int64
        assert intervals.tolist() == ref_intervals
        assert residual == ref_residual
    _, _, stats = one_step_scan(stream, _config(math.inf, m))
    assert peak == (stats.max() if len(stream) else -math.inf)
    return runs


_increments = st.one_of(
    st.floats(-10.0, 10.0), st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1.0, -1.0])
)


@settings(max_examples=200, deadline=None)
@given(
    stream=st.lists(_increments, max_size=300),
    thresholds=st.lists(st.floats(1e-3, 1e4), min_size=1, max_size=6, unique=True).map(sorted),
    m=st.one_of(st.just(np.inf), st.floats(1e-3, 1e4)),
)
def test_sweep_run_lengths_equal_detector_update_loops(stream, thresholds, m):
    assert_sweep_equals_one_step_scans(stream, thresholds, m)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), stream=st.lists(st.integers(-6, 6), min_size=1, max_size=200),
       m=st.sampled_from([np.inf, 2.0, 4.0]))
def test_sweep_run_lengths_at_attained_values(data, stream, m):
    # thresholds equal to values the no-reset statistic takes exercise w >= b at ties
    _, _, stats = one_step_scan(stream, _config(math.inf, m))
    attained = sorted({float(w) for w in stats if w > 0})
    if not attained:
        attained = [1.0]
    thresholds = sorted(data.draw(st.lists(st.sampled_from(attained), min_size=1, max_size=6,
                                           unique=True)))
    assert_sweep_equals_one_step_scans([float(v) for v in stream], thresholds, m)


class TestSweepRunLengths:
    def test_stream_that_never_regenerates(self):
        # a post-change stream: W stays positive from the first step, one excursion
        rng = np.random.default_rng(8)
        stream = rng.uniform(-1.0, 3.0, size=5000)
        stream[0] = 2.0
        _, _, stats = one_step_scan(stream, _config(math.inf, np.inf))
        assert np.all(stats > 0)
        runs = assert_sweep_equals_one_step_scans(stream, [5.0, 50.0, 400.0, 3000.0], np.inf)
        assert all(intervals.size for intervals, _ in runs)

    def test_integer_increments_tie_at_threshold(self):
        stream = [1.0, 2.0, -1.0, 3.0, -7.0, 2.0, 2.0, 1.0, 0.0, 5.0]
        runs = assert_sweep_equals_one_step_scans(stream, [3.0, 5.0, 10.0], np.inf)
        # W = 1, 3 (alarm at b=3), ...: the tie w == b alarms
        assert runs[0][0].tolist()[0] == 2

    def test_signed_zeros_and_clip_boundaries(self):
        m = 2.0
        stream = [0.0, -0.0, 2.0, -2.0, -0.0, 2.0, 0.0, 5.0, -5.0, -0.0, 2.0, 2.0, -2.0, 0.0]
        assert_sweep_equals_one_step_scans(stream, [2.0, 4.0, 6.0], m)
        assert_sweep_equals_one_step_scans([-0.0] * 5 + [0.0] * 5, [1e-3, 1.0], m)

    def test_empty_stream(self):
        runs, peak = _kernels.sweep_run_lengths(np.array([]), [1.0, 2.0])
        assert [(intervals.tolist(), residual) for intervals, residual in runs] == [([], 0), ([], 0)]
        assert peak == -math.inf

    def test_thresholds_above_every_peak(self):
        rng = np.random.default_rng(9)
        stream = rng.uniform(-2.0, 1.0, size=3000)
        runs = assert_sweep_equals_one_step_scans(stream, [1e6, 2e6], 1.5)
        assert [(intervals.size, residual) for intervals, residual in runs] == [(0, 3000)] * 2

    def test_matches_literal_scans_on_long_streams(self):
        rng = np.random.default_rng(10)
        for m in (np.inf, 2.5):
            s = rng.uniform(-3, 2.8, size=50_000)
            thresholds = [0.5, 4.0, 12.0, 30.0]
            runs, _ = sweep(s, thresholds, m)
            for b, (intervals, residual) in zip(thresholds, runs):
                ref_intervals, ref_residual = literal_reset_scan(s, b, m)
                assert intervals.tolist() == ref_intervals
                assert residual == ref_residual
                assert reset_scan(s, b, m)[0].tolist() == ref_intervals
