"""Synthetic chain: mean map, stepping, paths, oracle score, exact LLR."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scusum import _kernels, markov
from scusum.fields import PairBatch, check_divergence_consistency
from scusum.markov import (
    GaussianKernelSpec,
    TrajectoryConfig,
    closed_form_score,
    log_likelihood_ratios,
    path_blocks,
    simulate_path,
    stationary_pairs,
    transition_mean,
    write_trajectory_csv,
)

PRE = GaussianKernelSpec(dim=10, alpha=0.3, sigma=0.3, shift=0.2)
POST = GaussianKernelSpec(dim=10, alpha=0.6, sigma=0.5, shift=0.9)


class TestTransitionMean:
    def test_zero_is_fixed_point(self):
        spec = GaussianKernelSpec(dim=4, alpha=0.4, sigma=1.0, shift=0.7)
        assert np.allclose(transition_mean(spec, np.zeros(4)), 0.0)

    def test_scalar_example(self):
        spec = GaussianKernelSpec(dim=1, alpha=0.3, sigma=1.0, shift=0.2)
        value = transition_mean(spec, np.array([1.0]))[0]
        assert value == pytest.approx(0.7 + 0.2 * math.tanh(1.0))
        assert value == pytest.approx(0.852319, abs=1e-6)

    @pytest.mark.parametrize("shape", [(7,), (50, 7)])
    def test_bitwise_the_expression(self, shape):
        # computed in place, with the expression's IEEE operations in its order
        spec = GaussianKernelSpec(dim=7, alpha=0.3, sigma=1.0, shift=-0.9)
        x = np.random.default_rng(16).standard_normal(shape)
        x.flat[:4] = [0.0, -0.0, 1e-310, -1e300]
        expected = x - spec.alpha * x + spec.shift * np.tanh(x)
        assert np.array_equal(transition_mean(spec, x).view(np.int64), expected.view(np.int64))

    def test_full_reversion(self):
        spec = GaussianKernelSpec(dim=3, alpha=1.0, sigma=1.0, shift=0.0)
        assert np.allclose(transition_mean(spec, np.array([5.0, -2.0, 0.1])), 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            transition_mean(PRE, np.zeros(3))


def one_step(spec, x, rng):
    """One transition of the chain from ``x``, through the program's own stepping kernel."""
    noise = rng.standard_normal((1, spec.dim))
    return _kernels.chain_steps(x, noise, spec.alpha, spec.shift, spec.sigma)[0]


class TestStep:
    def test_matches_documented_draw(self):
        spec = GaussianKernelSpec(dim=1, alpha=0.3, sigma=0.3, shift=0.2)
        x = np.array([1.0])
        out = one_step(spec, x, np.random.default_rng(77))
        z = np.random.default_rng(77).standard_normal(1)
        assert np.array_equal(out, transition_mean(spec, x) + 0.3 * z)

    def test_tiny_noise_approaches_mean(self):
        spec = GaussianKernelSpec(dim=2, alpha=0.5, sigma=1e-9, shift=0.1)
        x = np.array([0.4, -0.7])
        assert np.allclose(one_step(spec, x, np.random.default_rng(0)), transition_mean(spec, x),
                           atol=1e-7)

    def test_noise_covariance(self):
        # the residuals X_{n+1} - mu(X_n) of a simulated path are the sigma * Z_n draws
        spec = GaussianKernelSpec(dim=5, alpha=0.3, sigma=0.4, shift=0.2)
        states = simulate_path(TrajectoryConfig(pre=spec, length=100_001, seed=5))
        draws = states[1:] - transition_mean(spec, states[:-1])
        assert np.allclose(np.var(draws, axis=0), spec.sigma**2, rtol=0.03)


class TestSimulatePath:
    def test_reproducible_bitwise(self):
        config = TrajectoryConfig(pre=PRE, post=POST, change_point=50, length=200, seed=42)
        assert np.array_equal(simulate_path(config), simulate_path(config))

    def test_zero_length(self):
        config = TrajectoryConfig(pre=PRE, length=0, seed=1, burn_in=10)
        assert simulate_path(config).shape == (0, 10)

    def test_change_at_one_is_all_post(self):
        config = TrajectoryConfig(pre=PRE, post=POST, change_point=1, length=50, seed=9, burn_in=0)
        states = simulate_path(config)
        noise = np.random.default_rng(9).standard_normal((50, 10))
        direct = _kernels.chain_steps(np.zeros(10), noise, POST.alpha, POST.shift, POST.sigma)
        assert np.array_equal(states, direct)

    def test_infinite_change_matches_pre_only(self):
        with_post = TrajectoryConfig(pre=PRE, post=POST, change_point=math.inf, length=100, seed=3)
        without = TrajectoryConfig(pre=PRE, length=100, seed=3)
        assert np.array_equal(simulate_path(with_post), simulate_path(without))

    def test_prefix_before_change_matches_no_change_path(self):
        nu = 120
        changed = TrajectoryConfig(pre=PRE, post=POST, change_point=nu, length=300, seed=8)
        unchanged = TrajectoryConfig(pre=PRE, length=300, seed=8)
        a, b = simulate_path(changed), simulate_path(unchanged)
        # states X_1..X_{nu-1} are pre-change in both
        assert np.array_equal(a[: nu - 1], b[: nu - 1])
        assert not np.array_equal(a[nu - 1], b[nu - 1])

    def test_drift_sign_splits_at_change_point(self):
        nu = 120
        config = TrajectoryConfig(pre=PRE, post=POST, change_point=nu, length=720, seed=13)
        states = simulate_path(config)
        field_p, field_q = closed_form_score(PRE), closed_form_score(POST)
        from scusum.detector import score_increments

        s = score_increments(field_p, field_q, states)
        # increment i covers the transition into state i+2 (1-based times)
        times = np.arange(2, len(states) + 1)
        assert np.mean(s[times < nu]) < 0
        assert np.mean(s[times >= nu]) > 0

    def test_iterates_stay_bounded(self):
        near_boundary = GaussianKernelSpec(dim=3, alpha=1.9, sigma=1.0, shift=1.0)
        for spec in (PRE, POST, near_boundary):
            config = TrajectoryConfig(pre=spec, length=100_000, seed=21)
            states = simulate_path(config)
            assert np.max(np.abs(states)) < 100.0

    def test_ergodicity_proxy_halves_agree(self):
        # bounded statistic (mean of tanh over coordinates) on disjoint halves
        config = TrajectoryConfig(pre=PRE, length=200_000, seed=33)
        stat = np.tanh(simulate_path(config)).mean(axis=1)
        half = len(stat) // 2
        block = 200

        def batch_se(values):
            means = values[: len(values) // block * block].reshape(-1, block).mean(axis=1)
            return means.mean(), means.std(ddof=1) / np.sqrt(len(means))

        m1, se1 = batch_se(stat[:half])
        m2, se2 = batch_se(stat[half:])
        assert abs(m1 - m2) <= 3 * math.hypot(se1, se2)

    def test_validation(self):
        with pytest.raises(ValueError, match="post-change"):
            TrajectoryConfig(pre=PRE, change_point=5, length=10)
        with pytest.raises(ValueError, match="<= length"):
            TrajectoryConfig(pre=PRE, post=POST, change_point=11, length=10)
        with pytest.raises(ValueError, match="dimension"):
            TrajectoryConfig(pre=PRE, post=GaussianKernelSpec(dim=2, alpha=0.5, sigma=1.0))
        with pytest.raises(ValueError, match="alpha"):
            GaussianKernelSpec(dim=2, alpha=2.5, sigma=1.0)

    @pytest.mark.parametrize("bad", [
        {"sigma": math.nan}, {"sigma": math.inf}, {"sigma": -1.0},
        {"shift": math.nan}, {"shift": math.inf}, {"shift": -math.inf},
        {"alpha": math.nan}, {"alpha": math.inf},
    ])
    def test_spec_rejects_non_finite_parameters(self, bad):
        params = {"dim": 2, "alpha": 0.5, "sigma": 1.0, "shift": 0.1, **bad}
        with pytest.raises(ValueError):
            GaussianKernelSpec(**params)

    @settings(max_examples=10, deadline=None)
    @given(
        alpha=st.floats(0.01, 1.99),
        shift=st.floats(-4.0, 4.0),
        sigma=st.floats(0.01, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_prefix_before_change_is_the_unchanged_path(self, alpha, shift, sigma, seed):
        pre = GaussianKernelSpec(dim=3, alpha=alpha, sigma=sigma, shift=shift)
        post = GaussianKernelSpec(dim=3, alpha=alpha, sigma=2 * sigma, shift=shift)
        plain = simulate_path(TrajectoryConfig(pre=pre, length=6000, seed=seed, burn_in=100))
        changed = simulate_path(
            TrajectoryConfig(pre=pre, post=post, change_point=3001, length=6000, seed=seed, burn_in=100)
        )
        assert np.array_equal(changed[:3000].view(np.int64), plain[:3000].view(np.int64))
        assert not np.array_equal(changed[3000:], plain[3000:])


def one_step_path(config):
    """States X_1..X_length stepped one state at a time from the documented noise draw."""
    d = config.pre.dim
    noise = np.random.default_rng(config.seed).standard_normal((config.burn_in + config.length, d))
    x, states = np.zeros(d), []
    for t, z in enumerate(noise):
        n = t - config.burn_in + 1  # 1-based index of the state this step emits
        spec = config.post if n >= config.change_point else config.pre
        x = x - spec.alpha * x + spec.shift * np.tanh(x) + spec.sigma * z
        if n >= 1:
            states.append(x)
    return np.array(states).reshape(config.length, d)


@pytest.mark.parametrize("change_point", [math.inf, 1, 1500])
@pytest.mark.parametrize("burn_in", [0, 1, 1023, 1024, 1025])
def test_simulate_path_bitwise_equal_to_one_step_loop(burn_in, change_point):
    # burn-in and pre-change steps share one lockstep call, so the burn-in
    # lengths around the block size move where the blocks fall
    pre = GaussianKernelSpec(dim=3, alpha=0.3, sigma=0.3, shift=0.2)
    post = GaussianKernelSpec(dim=3, alpha=0.6, sigma=0.5, shift=0.9)
    config = TrajectoryConfig(pre=pre, post=post, change_point=change_point, length=3000,
                              seed=burn_in, burn_in=burn_in)
    states = simulate_path(config)
    assert states.shape == (3000, 3)
    assert np.array_equal(states.view(np.int64), one_step_path(config).view(np.int64))


def whole_stream_path(config):
    """States X_1..X_length from one ``chain_steps`` call per kernel over the whole noise draw."""
    d = config.pre.dim
    noise = np.random.default_rng(config.seed).standard_normal((config.burn_in + config.length, d))
    split = config.burn_in + min(config.change_point - 1, config.length)
    pre, post = config.pre, config.post
    states = _kernels.chain_steps(np.zeros(d), noise[:split], pre.alpha, pre.shift, pre.sigma)
    if split < noise.shape[0]:
        x = states[-1] if split else np.zeros(d)
        tail = _kernels.chain_steps(x, noise[split:], post.alpha, post.shift, post.sigma)
        states = np.concatenate([states, tail])
    return states[config.burn_in :]


@settings(max_examples=40, deadline=None)
@given(
    length=st.integers(1, 3000),
    burn_in=st.sampled_from([0, 1, 5, 1023, 1024, 1025, 2500]),
    change_at=st.one_of(st.none(), st.floats(0.0, 1.0)),
    rows=st.sampled_from([1, 2, 1023, 1024, 1025, 10_000]),
    seed=st.integers(0, 2**32 - 1),
)
def test_path_blocks_bitwise_equal_to_one_whole_stream_call(length, burn_in, change_at, rows, seed):
    # block rows are forced past the byte budget, down to one row and past the
    # whole stream; the blocks must still carry the exact state across every cut
    pre = GaussianKernelSpec(dim=3, alpha=0.3, sigma=0.3, shift=0.2)
    post = GaussianKernelSpec(dim=3, alpha=0.6, sigma=0.5, shift=0.9)
    change_point = math.inf if change_at is None else 1 + int(change_at * (length - 1))
    config = TrajectoryConfig(pre=pre, post=post, change_point=change_point, length=length,
                              seed=seed, burn_in=burn_in)
    with mock.patch.object(markov, "_block_rows", lambda d: rows):
        blocks = list(path_blocks(config))
        path = simulate_path(config)
    assert all(0 < len(block) <= rows for block in blocks)
    expected = whole_stream_path(config)
    streamed = np.concatenate(blocks)
    assert streamed.shape == path.shape == (length, 3)
    assert np.array_equal(streamed.view(np.int64), expected.view(np.int64))
    assert np.array_equal(path.view(np.int64), expected.view(np.int64))


def test_block_rows_are_whole_lockstep_blocks_within_the_budget():
    rows = markov._block_rows(10)
    assert rows == 104_448 and rows % _kernels.BLOCK == 0
    assert rows * 10 * 8 <= markov._BLOCK_BYTES < (rows + _kernels.BLOCK) * 10 * 8
    # a budget below one lockstep block of rows (d > 1024 at 8 MiB) is not rounded down
    assert markov._block_rows(markov._BLOCK_BYTES // (8 * 1000)) == 1000


def test_path_blocks_of_an_empty_path_draw_nothing():
    config = TrajectoryConfig(pre=PRE, length=0, burn_in=5)
    assert list(path_blocks(config)) == []
    assert simulate_path(config).shape == (0, 10)


def test_change_point_path_is_written_over_the_spent_noise():
    # noise is 16 MB and the larger segment's states 8 MB; concatenating the
    # two segments into a third array took 48.9 MB
    config = TrajectoryConfig(pre=PRE, post=POST, change_point=100_001, length=200_000, seed=5)
    tracemalloc.start()
    try:
        states = simulate_path(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert states.shape == (200_000, 10)
    assert peak < 28_000_000


class TestClosedFormScore:
    def test_zero_score_at_mean(self):
        field = closed_form_score(PRE)
        x = np.linspace(-1, 1, 10)
        assert np.allclose(field.score(transition_mean(PRE, x), x), 0.0)

    def test_constant_divergence(self):
        spec = GaussianKernelSpec(dim=10, alpha=0.3, sigma=0.3, shift=0.2)
        field = closed_form_score(spec)
        assert field.divergence(np.zeros(10), np.ones(10)) == pytest.approx(-111.111111, rel=1e-6)

    def test_score_is_gradient_of_log_density(self):
        # central differences of the analytic log-density, fully independent path
        spec = GaussianKernelSpec(dim=4, alpha=0.3, sigma=0.3, shift=0.2)
        field = closed_form_score(spec)

        def log_density(y, x):
            resid = y - transition_mean(spec, x)
            return -0.5 * float(resid @ resid) / spec.sigma**2 - spec.dim / 2 * math.log(
                2 * math.pi * spec.sigma**2
            )

        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(10):
            y, x = rng.standard_normal(4), rng.standard_normal(4)
            grad = np.array(
                [
                    (log_density(y + h * e, x) - log_density(y - h * e, x)) / (2 * h)
                    for e in np.eye(4)
                ]
            )
            assert np.max(np.abs(grad - field.score(y, x))) <= 1e-8 * max(
                1.0, np.max(np.abs(grad))
            )

    def test_divergence_finite_difference(self):
        field = closed_form_score(PRE)
        rng = np.random.default_rng(3)
        probes = [(rng.standard_normal(10), rng.standard_normal(10)) for _ in range(5)]
        assert check_divergence_consistency(field, probes) <= 1e-5

    def test_stationary_score_power(self):
        # E||score||^2 = d / sigma^2 for transitions generated by the kernel itself
        field = closed_form_score(PRE)
        pairs = stationary_pairs(PRE, 50_000, seed=44)
        power = np.mean(
            np.einsum("ij,ij->i", *(lambda s: (s, s))(field.score_batch(pairs.x_next, pairs.x_prev)))
        )
        assert power == pytest.approx(PRE.dim / PRE.sigma**2, rel=0.03)


class TestLogLikelihoodRatio:
    def test_identical_kernels_zero(self):
        pair = PairBatch(np.zeros(10), np.ones(10))
        assert log_likelihood_ratios(PRE, PRE, pair)[0] == pytest.approx(0.0)

    def test_symmetric_point(self):
        pre = GaussianKernelSpec(dim=1, alpha=1.0, sigma=1.0, shift=0.0)  # mean 0
        # mean map fixed at 2: alpha=1 kills x, tanh(large x_prev) ~ 1 won't do;
        # use the shifted-mean field via a custom pair instead: evaluate at the
        # midpoint of means 0 and 2 using explicit kernels of equal sigma
        post = GaussianKernelSpec(dim=1, alpha=1.0, sigma=1.0, shift=2.0 / math.tanh(5.0))
        pair = PairBatch(np.array([5.0]), np.array([1.0]))
        # mu_pre = 0, mu_post = shift*tanh(5) = 2; y = 1 is equidistant
        assert log_likelihood_ratios(pre, post, pair)[0] == pytest.approx(0.0, abs=1e-12)

    def test_signs_under_each_law(self):
        pre_pairs = stationary_pairs(PRE, 100_000, seed=7)
        post_pairs = stationary_pairs(POST, 100_000, seed=8)
        llr_pre = log_likelihood_ratios(PRE, POST, pre_pairs)
        llr_post = log_likelihood_ratios(PRE, POST, post_pairs)
        for values, sign in ((llr_pre, -1), (llr_post, +1)):
            mean = values.mean()
            se = values.std(ddof=1) / math.sqrt(len(values))
            assert sign * mean > 3 * se


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        states = np.random.default_rng(0).standard_normal((5, 3))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, states, post_from=3)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x0,x1,x2,regime"
        assert len(lines) == 6
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["pre"] * 3 + ["post"] * 2
        body = np.array([[float(v) for v in line.split(",")[:3]] for line in lines[1:]])
        assert np.array_equal(body, states)

    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_trajectory_csv(path, np.empty((0, 4)))
        assert path.read_text().strip() == "x0,x1,x2,x3"


def test_stationary_pairs_shape():
    pairs = stationary_pairs(PRE, 100, seed=1, burn_in=50)
    assert len(pairs) == 100 and pairs.dim == 10
    assert isinstance(pairs, PairBatch)
