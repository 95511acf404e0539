"""Score fields, Hyvarinen scores, Fisher divergence, and drift estimators."""

import importlib
import inspect
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scusum
from scusum import fields, markov, scorenet
from scusum.exceptions import NumericsError
from scusum.fields import (
    GaussianScoreField,
    MonteCarloEstimate,
    PairBatch,
    ScoreField,
    TransitionPair,
    check_divergence_consistency,
    estimate_drift,
    estimate_fisher_divergence,
    hyvarinen_score,
    hyvarinen_scores,
    score_difference,
    score_differences,
    stream_score_differences,
)


def standard_normal_field(dim=1):
    return GaussianScoreField(lambda x: np.zeros_like(x), sigma=1.0, dim=dim)


def shifted_normal_field(theta, dim=1):
    return GaussianScoreField(lambda x: np.zeros_like(x) + theta, sigma=1.0, dim=dim)


class TestHyvarinenScore:
    def test_unit_gaussian_at_two(self):
        pair = TransitionPair(np.zeros(1), np.array([2.0]))
        assert hyvarinen_score(standard_normal_field(), pair) == pytest.approx(1.0)

    def test_unit_gaussian_at_mean(self):
        pair = TransitionPair(np.zeros(1), np.zeros(1))
        assert hyvarinen_score(standard_normal_field(), pair) == pytest.approx(-1.0)

    def test_isotropic_at_transition_mean(self):
        # score vanishes at the mean, leaving the constant divergence -d/sigma^2
        d, sigma = 10, 0.3
        field = GaussianScoreField(lambda x: 0.5 * x, sigma=sigma, dim=d)
        x = np.linspace(-1, 1, d)
        pair = TransitionPair(x, 0.5 * x)
        assert hyvarinen_score(field, pair) == pytest.approx(-d / sigma**2)
        assert hyvarinen_score(field, pair) == pytest.approx(-111.1111111, rel=1e-6)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        field = GaussianScoreField(np.tanh, sigma=0.7, dim=3)
        X = rng.standard_normal((50, 3))
        Y = rng.standard_normal((50, 3))
        batch = hyvarinen_scores(field, PairBatch(X, Y))
        singles = [hyvarinen_score(field, TransitionPair(x, y)) for x, y in zip(X, Y)]
        assert np.allclose(batch, singles)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, 1e-200, 1e200, 1.4e-154])
    def test_sigma_without_a_normal_float_square_rejected(self, sigma):
        # the score divides by sigma**2: 0 for the small ones, an OverflowError for 1e200
        with pytest.raises(ValueError, match="normal float square"):
            GaussianScoreField(np.tanh, sigma=sigma, dim=2)
        GaussianScoreField(np.tanh, sigma=1.5e-154, dim=2)  # its square is normal

    def test_dimension_mismatch_rejected(self):
        field = standard_normal_field(dim=2)
        with pytest.raises(ValueError, match="dimension"):
            hyvarinen_score(field, TransitionPair(np.zeros(3), np.ones(3)))

    def test_non_finite_score_named(self):
        class BrokenScore(ScoreField):
            dim = 1

            def score_batch(self, Y, X):
                return np.full(Y.shape, np.inf)

            def score_and_divergence_batch(self, Y, X):
                return self.score_batch(Y, X), np.zeros(len(Y))

        with pytest.raises(NumericsError, match="score"):
            hyvarinen_score(BrokenScore(), TransitionPair(np.zeros(1), np.zeros(1)))

    def test_non_finite_divergence_named(self):
        class BrokenDiv(ScoreField):
            dim = 1

            def score_batch(self, Y, X):
                return np.zeros(Y.shape)

            def score_and_divergence_batch(self, Y, X):
                return self.score_batch(Y, X), np.full(len(Y), np.nan)

        with pytest.raises(NumericsError, match="divergence"):
            hyvarinen_score(BrokenDiv(), TransitionPair(np.zeros(1), np.zeros(1)))

    def test_finite_score_whose_square_overflows_raises(self):
        # 0.5 * ||s||^2 = 1e320 at y = 1e160 in two dimensions: the scores were
        # [inf inf inf], and a drift estimate over them read nan with no error
        field = standard_normal_field(dim=2)
        pairs = PairBatch(np.zeros((3, 2)), np.full((3, 2), 1e160))
        with pytest.raises(NumericsError, match="^Hyvarinen score overflows from finite terms$"):
            hyvarinen_scores(field, pairs)
        with pytest.raises(NumericsError, match="overflows"):
            hyvarinen_score(field, TransitionPair(np.zeros(2), np.full(2, 1e160)))
        with pytest.raises(NumericsError, match="overflows"):
            estimate_drift(field, field, pairs)
        assert hyvarinen_score(field, TransitionPair(np.zeros(2), np.full(2, 1e150))) == pytest.approx(1e300)

    @pytest.mark.parametrize("mean_fn", [np.tanh, lambda x: x, lambda x: x[:, ::-1][:, ::-1],
                                         lambda x: np.asfortranarray(np.tanh(x))])
    def test_gaussian_score_batch_is_the_closed_form_bitwise_and_keeps_its_inputs(self, mean_fn):
        # the quotient (y - m) / -sigma^2 has the bits of -(y - m) / sigma^2, zero signs included
        rng = np.random.default_rng(15)
        X = rng.standard_normal((40, 3))
        Y = mean_fn(X).copy()  # zero scores
        Y[::2] = rng.standard_normal((20, 3))
        X0, Y0 = X.copy(), Y.copy()
        s = GaussianScoreField(mean_fn, sigma=0.7, dim=3).score_batch(Y, X)
        expected = -(Y0 - mean_fn(X0)) / 0.7**2
        assert np.array_equal(s.view(np.int64), expected.view(np.int64))
        assert np.signbit(s[1::2]).all()
        assert np.array_equal(X, X0) and np.array_equal(Y, Y0)


# ---------------------------------------------------------------------------
# row blocks: every block size gives the one-block result
# ---------------------------------------------------------------------------

def block_budgets(n, d):
    """``_BLOCK_BYTES`` values giving 1, 2, n - 1, n and n + 1 rows per block."""
    return [rows * 8 * d for rows in sorted({1, 2, max(1, n - 1), n, n + 1})]


def blocked(budget, fn, *args):
    with mock.patch.object(fields, "_BLOCK_BYTES", budget):
        return fn(*args)


def closed_form_fields(d, seed=None):
    pre = markov.GaussianKernelSpec(dim=d, alpha=0.3, sigma=0.3, shift=0.2)
    post = markov.GaussianKernelSpec(dim=d, alpha=0.6, sigma=0.5, shift=0.9)
    return markov.closed_form_score(pre), markov.closed_form_score(post)


def network_fields(d, seed):
    arch = scorenet.MlpArchitecture(input_dim=2 * d, hidden_widths=(8, 8), output_dim=d)
    return (scorenet.as_score_field(scorenet.init_params(arch, seed)),
            scorenet.as_score_field(scorenet.init_params(arch, seed + 1)))


def random_pairs(n, d, seed):
    rng = np.random.default_rng(seed)
    return PairBatch(rng.standard_normal((n, d)), rng.standard_normal((n, d)))


def score_stage(field_p, field_q, pairs):
    """Every blocked entry point: scores, score differences, Fisher mean and SE."""
    est = estimate_fisher_divergence(field_p, field_q, pairs)
    return (hyvarinen_scores(field_p, pairs), score_differences(field_p, field_q, pairs),
            np.array([est.mean, est.std_error]))


def assert_bitwise(a, b):
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_close(a, b):
    # network fields move their tangent chunk boundaries with the block; a
    # score difference near zero keeps the absolute error of its two terms,
    # so the scale is the array's largest value
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.max(np.abs(b)))


class TestRowBlocks:
    @pytest.mark.parametrize("make_fields, agree", [
        (closed_form_fields, assert_bitwise), (network_fields, assert_close),
    ], ids=["closed_form", "network"])
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 40), d=st.integers(1, 5), seed=st.integers(0, 2**31))
    def test_every_block_size_gives_the_one_block_result(self, make_fields, agree, n, d, seed):
        fp, fq = make_fields(d, seed)
        pairs = random_pairs(n, d, seed)
        one = score_stage(fp, fq, pairs)
        assert_bitwise(one[1], one[0] - hyvarinen_scores(fq, pairs))
        for budget in block_budgets(n, d):
            for got, want in zip(blocked(budget, score_stage, fp, fq, pairs), one):
                agree(got, want)

    def test_default_block_rows(self):
        assert fields._BLOCK_BYTES // (8 * 10) == 3_276
        assert fields._BLOCK_BYTES // (8 * 62) == 528

    def test_mocap_dimension_network_increments_are_bitwise_those_of_one_whole_stream_block(self):
        # 528 rows are 33 whole 16-row tangent chunks of a 128-wide network at
        # d=62, so the default blocks cut the stream where one block's chunks do
        d, n = 62, 3 * fields._block_rows(62) + 40
        arch = scorenet.MlpArchitecture(input_dim=2 * d, hidden_widths=(128, 128), output_dim=d)
        fp, fq = (scorenet.as_score_field(scorenet.init_params(arch, seed)) for seed in (3, 4))
        states = np.random.default_rng(62).standard_normal((n, d))
        pairs = PairBatch.from_states(states)
        whole = blocked(8 * d * n, score_differences, fp, fq, pairs)
        assert fields._block_rows(d) % scorenet._stack_rows(arch) == 0
        assert_bitwise(score_differences(fp, fq, pairs), whole)
        assert_bitwise(stream_score_differences(fp, fq, [states[:700], states[700:]], n), whole)

    def test_network_field_scores_each_block_through_the_public_batch_api(self):
        # one fused call per block: no second primal pass through forward_batch
        fp, _ = network_fields(3, 0)
        pairs = random_pairs(10, 3, 0)
        fused = scorenet.score_and_divergence_batch
        with mock.patch.object(scorenet, "forward_batch", wraps=scorenet.forward_batch) as fwd, \
                mock.patch.object(scorenet, "score_and_divergence_batch", wraps=fused) as both:
            blocked(4 * 8 * 3, hyvarinen_scores, fp, pairs)
        assert [len(c.args[1]) for c in both.call_args_list] == [4, 4, 2]
        assert fwd.call_args_list == []

    @pytest.mark.parametrize("term, message", [
        ("score", "non-finite score term in Hyvarinen score"),
        ("divergence", "non-finite divergence term in Hyvarinen score"),
        ("square", "Hyvarinen score overflows from finite terms"),
    ])
    @pytest.mark.parametrize("rows", [1, 2, 6, 7, 8])
    def test_non_finite_term_in_last_block_raises(self, term, message, rows):
        n, d = 7, 2
        base, _ = closed_form_fields(d)

        class LastRowBroken(ScoreField):
            dim = d

            def score(self, y, x):
                raise AssertionError("batch path only")

            def divergence(self, y, x):
                raise AssertionError("batch path only")

            def score_batch(self, Y, X):
                s = base.score_batch(Y, X)
                if term == "score" and np.any(Y[:, 0] == 99.0):
                    s[Y[:, 0] == 99.0] = np.nan
                if term == "square":
                    s[Y[:, 0] == 99.0] = 1e160  # finite, but 0.5 * ||s||^2 is not
                return s

            def score_and_divergence_batch(self, Y, X):
                div = base.score_and_divergence_batch(Y, X)[1]
                if term == "divergence":
                    div[Y[:, 0] == 99.0] = np.inf
                return self.score_batch(Y, X), div

        pairs = random_pairs(n, d, 3)
        pairs.x_next[-1, 0] = 99.0
        with pytest.raises(NumericsError, match=f"^{message}$"):
            blocked(rows * 8 * d, hyvarinen_scores, LastRowBroken(), pairs)


class TestScoreDifference:
    def test_identical_fields_vanish(self):
        field = standard_normal_field()
        pair = TransitionPair(np.zeros(1), np.array([1.7]))
        assert score_difference(field, field, pair) == 0.0

    def test_two_unit_gaussians_closed_form(self):
        # N(0,1) vs N(2,1): s(y) = theta*y - theta^2/2 with theta = 2
        p, q = standard_normal_field(), shifted_normal_field(2.0)
        at = lambda y: score_difference(p, q, TransitionPair(np.zeros(1), np.array([y])))
        assert at(1.0) == pytest.approx(0.0, abs=1e-12)
        assert at(3.0) == pytest.approx(4.0)

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        p = GaussianScoreField(np.tanh, sigma=0.5, dim=4)
        q = GaussianScoreField(lambda x: 0.3 * x, sigma=1.5, dim=4)
        for _ in range(25):
            pair = TransitionPair(rng.standard_normal(4), rng.standard_normal(4))
            assert score_difference(p, q, pair) == pytest.approx(
                -score_difference(q, p, pair), abs=1e-12
            )


class TestFisherDivergence:
    def test_identical_fields_zero(self):
        field = standard_normal_field()
        rng = np.random.default_rng(2)
        batch = PairBatch(np.zeros((100, 1)), rng.standard_normal((100, 1)))
        assert estimate_fisher_divergence(field, field, batch).mean == 0.0

    def test_unit_gaussian_shift(self):
        # location shift theta=2 with unit variances: D_F = theta^2/2 = 2
        rng = np.random.default_rng(3)
        batch = PairBatch(np.zeros((100_000, 1)), rng.standard_normal((100_000, 1)))
        est = estimate_fisher_divergence(standard_normal_field(), shifted_normal_field(2.0), batch)
        assert est.mean == pytest.approx(2.0, abs=0.05)

    def test_isotropic_scale_mismatch(self):
        # same mean, sigmas 0.3 vs 0.5, samples from p:
        # D_F = (d/2) * (1/sp^2 - 1/sq^2)^2 * sp^2
        d, sp, sq = 10, 0.3, 0.5
        rng = np.random.default_rng(4)
        n = 200_000
        X = rng.standard_normal((n, d))
        Y = 0.2 * np.tanh(X) + sp * rng.standard_normal((n, d))
        mean_fn = lambda x: 0.2 * np.tanh(x)
        p = GaussianScoreField(mean_fn, sigma=sp, dim=d)
        q = GaussianScoreField(mean_fn, sigma=sq, dim=d)
        expected = (d / 2) * (1 / sp**2 - 1 / sq**2) ** 2 * sp**2
        est = estimate_fisher_divergence(p, q, PairBatch(X, Y))
        assert est.mean == pytest.approx(expected, rel=0.02)

    def test_constant_mean_shift_is_exact(self):
        # unit variances, means differing by theta: the score difference is
        # -theta in every coordinate, so each term is 0.5 * d * theta^2
        d, theta = 7, 0.75
        rng = np.random.default_rng(6)
        batch = PairBatch(rng.standard_normal((5000, d)), rng.standard_normal((5000, d)))
        est = estimate_fisher_divergence(
            GaussianScoreField(lambda x: x, sigma=1.0, dim=d),
            GaussianScoreField(lambda x: x + theta, sigma=1.0, dim=d),
            batch,
        )
        assert abs(est.mean - 0.5 * d * theta**2) <= 1e-12 * (0.5 * d * theta**2)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        p = GaussianScoreField(np.tanh, sigma=0.5, dim=2)
        q = GaussianScoreField(np.cos, sigma=2.0, dim=2)
        batch = PairBatch(rng.standard_normal((500, 2)), rng.standard_normal((500, 2)))
        assert estimate_fisher_divergence(p, q, batch).mean >= 0.0

    def test_array_tuple_rejected(self):
        with pytest.raises(TypeError, match="expected a PairBatch, got tuple"):
            estimate_fisher_divergence(standard_normal_field(), standard_normal_field(),
                                       (np.zeros((2, 1)), np.zeros((2, 1))))

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_fisher_divergence(standard_normal_field(), standard_normal_field(),
                                       PairBatch(np.empty((0, 1)), np.empty((0, 1))))


class TestDrift:
    def test_unit_gaussian_shift(self):
        rng = np.random.default_rng(6)
        batch = PairBatch(np.zeros((100_000, 1)), rng.standard_normal((100_000, 1)))
        est = estimate_drift(standard_normal_field(), shifted_normal_field(2.0), batch)
        assert est.mean == pytest.approx(-2.0, abs=0.05)

    def test_identical_fields_zero(self):
        field = standard_normal_field()
        batch = PairBatch(np.zeros((10, 1)), np.ones((10, 1)))
        assert estimate_drift(field, field, batch).mean == 0.0

    def test_drift_identity_vs_fisher(self):
        # |drift + D_F| within 3 standard errors for 1-D Gaussian pairs
        rng = np.random.default_rng(7)
        for theta, sigma in [(1.0, 1.0), (0.5, 0.7), (2.0, 1.3)]:
            n = 50_000
            Y = sigma * rng.standard_normal((n, 1))
            batch = PairBatch(np.zeros((n, 1)), Y)
            p = GaussianScoreField(lambda x: np.zeros_like(x), sigma=sigma, dim=1)
            q = GaussianScoreField(lambda x: np.zeros_like(x) + theta, sigma=sigma, dim=1)
            drift = estimate_drift(p, q, batch)
            fisher = estimate_fisher_divergence(p, q, batch)
            tol = 3 * np.hypot(drift.std_error, fisher.std_error)
            assert abs(drift.mean + fisher.mean) <= max(tol, 1e-9)


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(0, 300),
                st.sampled_from([16_383, 16_384, 16_385, 32_780, 40_000, 70_001, 99_999])),
    loc=st.floats(-1e3, 1e3),
    scale=st.floats(1e-6, 1e6),
    seed=st.integers(0, 2**32 - 1),
)
def test_monte_carlo_estimate_bitwise_numpys_mean_and_std(n, loc, scale, seed):
    # from_spent squares the deviations in the array it is given, with
    # np.std's own operations, so the estimate keeps the bits of np.mean and
    # np.std; from_values does the same on its own copy
    values = loc + scale * np.random.default_rng(seed).standard_normal(n)
    spent = values.copy()
    estimate = MonteCarloEstimate.from_spent(spent)
    assert repr(MonteCarloEstimate.from_values(values)) == repr(estimate)
    assert estimate.count == n
    if n:
        assert estimate.mean.hex() == float(np.mean(values)).hex()
    else:
        assert math.isnan(estimate.mean)
    if n > 1:
        assert estimate.std_error.hex() == float(np.std(values, ddof=1) / np.sqrt(n)).hex()
        assert_bitwise(spent, (values - np.mean(values)) ** 2)
    else:
        assert estimate.std_error == 0.0


# ---------------------------------------------------------------------------
# a trajectory scored as it arrives in blocks
# ---------------------------------------------------------------------------

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
def test_streamed_score_differences_bitwise_equal_to_one_whole_trajectory_call(n, cuts, rows, network,
                                                                               seed):
    # the pairs reach the fields in the row blocks of the whole-trajectory
    # call, so network fields, whose GEMMs treat row counts differently, agree
    # bit for bit as well
    d = 3
    fp, fq = network_fields(d, 1) if network else closed_form_fields(d)
    states = np.random.default_rng(seed).standard_normal((n, d))
    blocks = _cut(states, [int(c * n) for c in cuts])
    with mock.patch.object(fields, "_BLOCK_BYTES", 8 * d * rows):
        whole = score_differences(fp, fq, PairBatch.from_states(states))
        streamed = stream_score_differences(fp, fq, iter(blocks), n)
    assert_bitwise(streamed, whole)


def test_stream_score_differences_rejects_a_wrong_state_count():
    fp, fq = closed_form_fields(10)
    states = np.zeros((10, 10))
    with pytest.raises(ValueError, match="hold 10 states, expected 11"):
        stream_score_differences(fp, fq, [states[:4], states[4:]], 11)
    with pytest.raises(ValueError, match="more than 9 states"):
        stream_score_differences(fp, fq, [states[:4], states[4:]], 9)
    with pytest.raises(ValueError, match="n >= 2"):
        stream_score_differences(fp, fq, [states[:1]], 1)


def _streamed_peak(fields_pq, length):
    """tracemalloc peak of simulating and scoring a ``length``-state stream one block at a time."""
    pre = markov.GaussianKernelSpec(dim=10, alpha=0.3, sigma=0.3, shift=0.2)
    config = markov.TrajectoryConfig(pre=pre, length=length, seed=74)
    tracemalloc.start()
    try:
        increments = stream_score_differences(*fields_pq, markov.path_blocks(config), length)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert increments.shape == (length - 1,)
    return peak


def test_streamed_simulate_and_score_peak_grows_only_by_the_increments():
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
    short = _streamed_peak(closed_form_fields(10), 200_000)
    long = _streamed_peak(closed_form_fields(10), 400_000)
    assert long - short < 8 * extra_steps + row_block + 100_000
    assert long < block + 8 * 400_000 + 5 * row_block


def scalar_divergence_consistency(field, probes, h=1e-4):
    """Reference for check_divergence_consistency: 2d + 1 one-pair calls per probe."""
    worst = 0.0
    for y, x in probes:
        fd = 0.0
        for i in range(field.dim):
            e = np.zeros(field.dim)
            e[i] = h
            fd += (field.score(y + e, x)[i] - field.score(y - e, x)[i]) / (2 * h)
        exact = field.divergence(y, x)
        worst = max(worst, abs(fd - exact) / max(1.0, abs(exact)))
    return worst


class TestOnePairMethods:
    """The base-class ``score`` and ``divergence`` are row 0 of a batch of one."""

    def test_a_field_implements_two_batch_methods(self):
        assert ScoreField.__abstractmethods__ == {"score_batch", "score_and_divergence_batch"}

    @staticmethod
    def fields(d):
        params = scorenet.init_params(
            scorenet.MlpArchitecture(input_dim=2 * d, hidden_widths=(6, 5), output_dim=d), 4)
        return [scorenet.as_score_field(params), GaussianScoreField(np.tanh, sigma=0.4, dim=d),
                markov.closed_form_score(markov.GaussianKernelSpec(d, 0.3, 0.3, 0.2))]

    def test_bitwise_row_zero_of_the_batch(self):
        rng = np.random.default_rng(21)
        d = 3
        for field in self.fields(d):
            for _ in range(5):
                y, x = rng.standard_normal(d), rng.standard_normal(d)
                Y, X = y[None, :], x[None, :]
                assert np.array_equal(field.score(y, x), field.score_batch(Y, X)[0])
                div = field.divergence(y, x)
                assert type(div) is float and div == field.score_and_divergence_batch(Y, X)[1][0]

    @pytest.mark.parametrize("method", ["score", "divergence"])
    @pytest.mark.parametrize("y, x, message", [
        (np.zeros(2), np.zeros(3), "dimension 2, expected 3"),
        (np.zeros(3), np.zeros(4), "dimension 4, expected 3"),
        (np.zeros((1, 3)), np.zeros(3), "1-D"),
        (np.array([0.0, np.nan, 0.0]), np.zeros(3), "non-finite"),
        (np.zeros(3), np.array([np.inf, 0.0, 0.0]), "non-finite"),
    ])
    def test_bad_states_rejected(self, method, y, x, message):
        for field in self.fields(3):
            with pytest.raises(ValueError, match=message):
                getattr(field, method)(y, x)


def test_package_exports_exactly_the_names_it_imports():
    imported = {name for name, obj in vars(scusum).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert len(set(scusum.__all__)) == len(scusum.__all__)
    assert set(scusum.__all__) == imported
    assert not any(inspect.ismodule(getattr(scusum, name, None)) for name in scusum.__all__)


@pytest.mark.parametrize("name", ["cli", "markov", "_kernels", "fields", "scorenet", "detector",
                                  "bounds", "mocap"])
def test_every_exported_name_is_defined_in_its_module(name):
    # the benchmark's tracer looks up every __all__ entry, so a stale one breaks it
    module = importlib.import_module(f"scusum.{name}")
    for entry in getattr(module, "__all__", ()):
        obj = getattr(module, entry, None)
        assert getattr(obj, "__module__", None) == module.__name__, f"{name}.{entry}"


class TestDivergenceConsistency:
    def test_scalar_divergence_override_is_caught(self):
        # a field whose one-pair divergence is off by one fails the check,
        # though its batch methods are exact
        class OffByOne(scorenet.MlpScoreField):
            def divergence(self, y, x):
                return super().divergence(y, x) + 1.0

        d = 3
        params = scorenet.init_params(
            scorenet.MlpArchitecture(input_dim=2 * d, hidden_widths=(8,), output_dim=d), 5)
        rng = np.random.default_rng(13)
        probes = [(rng.standard_normal(d), rng.standard_normal(d)) for _ in range(4)]
        assert check_divergence_consistency(scorenet.MlpScoreField(params), probes) <= 1e-5
        assert check_divergence_consistency(OffByOne(params), probes) > 0.1

    def test_batched_check_matches_scalar_reference(self):
        rng = np.random.default_rng(12)
        d = 4
        params = scorenet.init_params(
            scorenet.MlpArchitecture(input_dim=2 * d, hidden_widths=(16, 8), output_dim=d), 3)
        for field in [scorenet.as_score_field(params),
                      GaussianScoreField(np.tanh, sigma=0.4, dim=d)]:
            probes = [(rng.standard_normal(d), rng.standard_normal(d)) for _ in range(10)]
            batched = check_divergence_consistency(field, probes)
            assert batched == pytest.approx(scalar_divergence_consistency(field, probes),
                                            rel=0, abs=1e-9)

    def test_gaussian_fields(self):
        rng = np.random.default_rng(8)
        for field in [
            GaussianScoreField(np.tanh, sigma=0.4, dim=3),
            GaussianScoreField(lambda x: x - 0.3 * x + 0.2 * np.tanh(x), sigma=0.3, dim=5),
        ]:
            probes = [
                (rng.standard_normal(field.dim), rng.standard_normal(field.dim))
                for _ in range(10)
            ]
            assert check_divergence_consistency(field, probes) <= 1e-5


class TestPairBatch:
    def test_from_states(self):
        states = np.arange(12.0).reshape(4, 3)
        batch = PairBatch.from_states(states)
        assert len(batch) == 3
        assert np.array_equal(batch.x_prev, states[:-1])
        assert np.array_equal(batch.x_next, states[1:])

    def test_pair_validates_dimensions(self):
        with pytest.raises(ValueError):
            TransitionPair(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            TransitionPair(np.array([np.nan]), np.zeros(1))
