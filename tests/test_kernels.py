"""The hot kernels against brute force and one-step reference loops."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scusum import _kernels, detector, markov
from scusum.detector import DetectorConfig, DetectorState, TruncationSpec, detector_update

L = _kernels.BLOCK
W = _kernels.WARMUP


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


def test_trace_stays_within_the_margin_on_a_long_stream():
    # 10^6 closed-form increments of the benchmark's pre-change law, clip 50:
    # the identity's error is about 8.3e-9 here, above 1e-9, and grows with
    # the stream; the bound that holds is _margin, 0.0125 here, growing as n^2
    pre = markov.GaussianKernelSpec(dim=10, alpha=0.3, sigma=0.3, shift=0.2)
    post = markov.GaussianKernelSpec(dim=10, alpha=0.6, sigma=0.5, shift=0.9)
    n = 10**6 + 1
    s = detector.stream_increments(
        markov.closed_form_score(pre), markov.closed_form_score(post),
        markov.path_blocks(markov.TrajectoryConfig(pre=pre, length=n, seed=11)), n)
    trace = detector.statistic_trace(s, TruncationSpec(50.0))
    phi = np.clip(s, -50.0, 50.0)
    recursion, w = np.empty_like(phi), 0.0
    for i, p in enumerate(phi.tolist()):
        w = p + max(0.0, w)
        recursion[i] = w
    assert np.max(np.abs(trace - recursion)) <= _kernels._margin(phi)


class TestReferenceParity:
    def test_chain_steps(self):
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(10)
        noise = rng.standard_normal((20000, 10))
        expected = one_step_chain(x0, noise, 0.3, 0.2, 0.3)
        assert_bitwise(_kernels.chain_steps(x0, noise, 0.3, 0.2, 0.3), expected)

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


@pytest.mark.parametrize("n, tail", [(51_000, 18), (96_552, 64), (W + 2 * L, 0), (3 * L - 1, 1),
                                     (5 * L, 0)])
def test_chain_steps_lanes_cover_all_but_fewer_than_lane_count_steps(monkeypatch, n, tail):
    # R = (n - W) // L lanes of (n - W) // R stored steps after lane 0's W
    # warm-up rows: a merging kernel leaves n - W - R * ((n - W) // R) < R
    # steps to the one-state loop
    stepped = []
    original = _kernels._step_rows

    def counting(x, rows, *args):
        stepped.append(rows.shape[0])
        original(x, rows, *args)

    monkeypatch.setattr(_kernels, "_step_rows", counting)
    noise = np.random.default_rng(12).standard_normal((n, 2))
    out = _kernels.chain_steps(np.zeros(2), noise.copy(), 0.3, 0.2, 0.3)
    assert stepped == [tail] and tail < (n - W) // L
    monkeypatch.undo()
    assert_bitwise(out, one_step_chain(np.zeros(2), noise, 0.3, 0.2, 0.3))


def test_step_may_write_over_its_noise_row():
    # the in-place stepper passes out=z: z must be read before out is written
    rng = np.random.default_rng(13)
    x, z = rng.standard_normal((2, 4)) * 3.0
    a, b, out = np.empty(4), np.empty(4), np.empty(4)
    _kernels._step(x, z, 0.3, 0.2, 0.7, a, b, out)
    _kernels._step(x, z, 0.3, 0.2, 0.7, a, b, z)
    assert_bitwise(z, out)


def test_chain_steps_zero_noise_fixed_point():
    # with alpha=1, shift=0 the mean map sends everything to 0
    x0 = np.array([3.0, -2.0])
    noise = np.zeros((4, 2))
    out = _kernels.chain_steps(x0, noise, 1.0, 0.0, 1.0)
    assert np.allclose(out, 0.0)


@pytest.mark.parametrize("alpha, shift, sigma, merges", [(0.3, 0.2, 0.3, True),
                                                         (0.05, 3.0, 1.0, False)])  # bistable
def test_chain_steps_writes_its_states_over_the_noise(alpha, shift, sigma, merges):
    # the states are stepped over the noise rows they consumed, and a lane
    # whose warm-up did not merge with the lane before cuts the result short
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal(3)
    noise = rng.standard_normal((5 * L + 17, 3))
    x0_copy = x0.copy()
    expected = one_step_chain(x0, noise, alpha, shift, sigma)
    out = _kernels.chain_steps(x0, noise, alpha, shift, sigma)
    assert_bitwise(x0, x0_copy)
    assert np.shares_memory(out, noise)
    assert (len(out) == len(noise)) == merges and len(out) >= W + L
    assert_bitwise(out, expected[: len(out)])
    assert_bitwise(noise[: len(out)], expected[: len(out)])


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

CHAIN_LENGTHS = st.sampled_from([0, 1, L - 1, L, 2 * L - 1, 2 * L, 2 * L + 1, W + 2 * L - 1,
                                 W + 2 * L, 3 * L - 1, 5 * L + 17, 7 * L + 1000])


@settings(max_examples=30, deadline=None)
@given(
    length=CHAIN_LENGTHS,
    dim=st.integers(1, 6),
    alpha=st.floats(0.01, 1.99),
    shift=st.floats(-4.0, 4.0),
    sigma=st.floats(0.01, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(length=5 * L + 17, dim=3, alpha=0.05, shift=3.0, sigma=1.0, seed=0)  # bistable
@example(length=5 * L + 17, dim=2, alpha=0.01, shift=0.0, sigma=1.0, seed=1)  # slow merging
def test_chain_steps_bitwise_equal_to_one_step_loop(length, dim, alpha, shift, sigma, seed):
    # the rows it returns, at least lane 0's, are the loop's leading states
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(dim) * 3.0
    noise = rng.standard_normal((length, dim))
    expected = one_step_chain(x0, noise, alpha, shift, sigma)
    out = _kernels.chain_steps(x0, noise, alpha, shift, sigma)
    assert len(out) >= min(length, W + L)
    assert_bitwise(out, expected[: len(out)])


@settings(max_examples=30, deadline=None)
@given(
    length=CHAIN_LENGTHS,
    dim=st.integers(1, 6),
    alpha=st.floats(0.01, 1.99),
    shift=st.floats(-4.0, 4.0),
    sigma=st.floats(0.01, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(length=5 * L + 17, dim=3, alpha=0.05, shift=3.0, sigma=1.0, seed=0)  # bistable
@example(length=5 * L + 17, dim=2, alpha=0.01, shift=0.0, sigma=1.0, seed=1)  # slow merging
def test_any_kernels_path_bitwise_equal_to_one_step_loop(length, dim, alpha, shift, sigma, seed):
    # where a lane does not merge, path_blocks draws the rest of the noise
    # again and steps it one state at a time
    spec = markov.GaussianKernelSpec(dim=dim, alpha=alpha, sigma=sigma, shift=shift)
    config = markov.TrajectoryConfig(pre=spec, length=length, seed=seed, burn_in=0)
    noise = np.random.default_rng(seed).standard_normal((length, dim))
    assert_bitwise(markov.simulate_path(config),
                   one_step_chain(np.zeros(dim), noise, alpha, shift, sigma))


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


# ---------------------------------------------------------------------------
# the rounding margin: decisions where W-hat and the recursion's W differ
# ---------------------------------------------------------------------------

def scalar_fold(phi):
    """The no-reset recursion as the scan performs it: w = phi when w <= 0, else w + phi."""
    w, out = 0.0, []
    for p in phi:
        w = w + p if w > 0.0 else p
        out.append(w)
    return out


def first_maximum(values):
    """The first maximum in stream order (-inf for none): -0.0 and 0.0 keep the first."""
    top = -math.inf
    for v in values:
        if v > top:
            top = v
    return top


def same_bits(a, b):
    return np.float64(a).view(np.int64) == np.float64(b).view(np.int64)


def assert_sweep_equals_scalar_rule(stream, thresholds, m):
    phi = np.clip(np.asarray(stream, dtype=np.float64), -m, m)
    runs, peak = _kernels.sweep_run_lengths(phi, thresholds)
    for b, (intervals, residual) in zip(thresholds, runs):
        ref_intervals, ref_residual, _ = one_step_scan(stream, _config(b, m))
        assert intervals.tolist() == ref_intervals
        assert residual == ref_residual
    assert same_bits(peak, first_maximum(scalar_fold(phi.tolist())))


# +-1e6 beside tenths: the running sums lose the tenths' low bits, so W-hat lands
# within rounding of 0 where the recursion's W is a small positive or negative number
_MIXED = st.sampled_from([1e6, -1e6, 0.1, 0.2, -0.3, 0.3, -0.1, -0.2, 0.7, -0.7, 1e-9, -1e-9, 0.0, -0.0])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), stream=st.lists(_MIXED, min_size=1, max_size=300),
       m=st.sampled_from([np.inf, 0.5, 1e6]))
def test_sweep_at_rounding_boundaries(data, stream, m):
    # thresholds at the recursion's own positive values and one ulp either side put the
    # alarm test within rounding of W-hat's region tops
    fold = scalar_fold(np.clip(stream, -m, m).tolist())
    near = sorted({v for w in fold if w > 0 for v in (w, np.nextafter(w, math.inf), np.nextafter(w, 0.0))
                   if v > 0})
    thresholds = sorted(data.draw(st.lists(st.sampled_from(near or [1.0]), min_size=1, max_size=6,
                                           unique=True)))
    assert_sweep_equals_scalar_rule(stream, thresholds, m)


@pytest.mark.parametrize("stream", [
    [-0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0] * 3 + [-1.0, -0.0], [-1.0, -0.0, -2.0, 0.0, -0.0],
    [-2.0, -1.0, -1.0, -3.0], [0.1, 0.2, -0.30000000000000004, -0.0, 0.0],
    # a long region ties with an earlier one
    [-0.0, -1.0] + [0.0] * 100, [0.0, -1.0] + [-0.0] * 100,
    # W-hat ranks the regions the other way round: 0.30000000004656613 after -1e6 against
    # 0.30000000000000004, where the recursion reads 0.3 and 0.30000000000000004
    [0.1, 0.2, -1.0, -1e6, 0.3, -1.0],
])
def test_peak_keeps_the_first_maximum_and_its_zero_sign(stream):
    assert_sweep_equals_scalar_rule(stream, [1.0], np.inf)


_HUGE = st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308, 5e307, -5e307, 1.0, -1.0, 0.0])


@settings(max_examples=100, deadline=None)
@given(stream=st.lists(_HUGE, min_size=1, max_size=200),
       thresholds=st.lists(st.sampled_from([1.0, 1e300, 1.7e308, math.inf]), min_size=1, max_size=4,
                           unique=True).map(sorted))
def test_sweep_where_the_sums_overflow(stream, thresholds):
    # finite increments whose running sums overflow: the margin is not finite, so the
    # recursion runs everywhere, and numpy must warn about nothing on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_sweep_equals_scalar_rule(stream, thresholds, np.inf)


@pytest.mark.parametrize("n", [1, 100, 100_000])
def test_sweep_on_overflowing_streams_of_any_length(n):
    stream = np.resize([1e308, 1e308, -1.7e308, 2.0, -1.0], n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs, peak = _kernels.sweep_run_lengths(stream, [1.0, 1e308])
    for b, (intervals, residual) in zip([1.0, 1e308], runs):
        ref_intervals, ref_residual = literal_reset_scan(stream, b, np.inf)
        assert intervals.tolist() == ref_intervals and residual == ref_residual
    assert same_bits(peak, first_maximum(scalar_fold(stream.tolist())))


def test_trace_pieces_are_bitwise_the_one_call_identity():
    rng = np.random.default_rng(13)
    s = rng.choice([-1.0, 1.0, 0.0, -0.0, 0.1, -0.1, 3e5, -3e5], size=3 * _kernels._PIECE + 77)
    S = np.cumsum(s)
    expected = S - np.minimum.accumulate(np.concatenate(([0.0], S[:-1])))
    assert_bitwise(_kernels.cusum_trace(s), expected)


def test_scalar_loops_see_a_small_part_of_a_pre_change_stream(monkeypatch):
    # the benchmark's false-alarm kernels, truncation and thresholds on a seeded stream:
    # the scalar recursion must run only in the regions the margin cannot skip, not over
    # the stream (a silent fallback to a full scan would show here)
    pre = markov.GaussianKernelSpec(dim=10, alpha=0.3, sigma=0.3, shift=0.2)
    post = markov.GaussianKernelSpec(dim=10, alpha=0.6, sigma=0.5, shift=0.9)
    states = markov.simulate_path(markov.TrajectoryConfig(pre=pre, length=20_001, seed=14))
    phi = np.clip(detector.score_increments(markov.closed_form_score(pre),
                                            markov.closed_form_score(post), states), -50.0, 50.0)
    thresholds = [30.0, 60.0, 90.0, 120.0, 150.0]
    scalar_steps = []
    reset_scan, fold_top = _kernels._reset_scan, _kernels._fold_top

    def counting_reset_scan(values, b, spans):
        spans = list(spans)
        scalar_steps.append(sum(stop - start for start, stop in spans))
        return reset_scan(values, b, spans)

    def counting_fold_top(values, start, stop):
        scalar_steps.append(stop - start)
        return fold_top(values, start, stop)

    monkeypatch.setattr(_kernels, "_reset_scan", counting_reset_scan)
    monkeypatch.setattr(_kernels, "_fold_top", counting_fold_top)
    runs, _ = _kernels.sweep_run_lengths(phi, thresholds)
    assert runs[0][0].size > 0  # the smallest threshold alarms: there are regions to scan
    assert sum(scalar_steps) < 0.15 * phi.size
    monkeypatch.undo()
    for b, (intervals, residual) in zip(thresholds, runs):
        assert (intervals.tolist(), residual) == literal_reset_scan(phi, b, np.inf)
