"""Score network: forward/divergence exactness, gradients, training, I/O."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scusum import scorenet
from scusum.exceptions import TrainingError
from scusum.fields import (
    PairBatch, TransitionPair, check_divergence_consistency, hyvarinen_score, hyvarinen_scores,
)
from scusum.markov import GaussianKernelSpec, closed_form_score, stationary_pairs
from scusum.scorenet import (
    MlpArchitecture,
    MlpParameters,
    TrainConfig,
    as_score_field,
    evaluate_accuracy,
    forward_batch,
    init_params,
    load_model,
    loss_gradient,
    save_model,
    silu,
    surrogate_loss,
    train,
)


def forward(params, y, x):
    """psi(y, x) at one pair: row 0 of a batch of one."""
    return forward_batch(params, y[None, :], x[None, :])[0]


def divergence(params, y, x):
    """The exact divergence at one pair: row 0 of a batch of one."""
    return scorenet.divergence_batch(params, y[None, :], x[None, :])[0]


def tiny_arch(d=2, widths=(4,)):
    return MlpArchitecture(input_dim=2 * d, hidden_widths=widths, output_dim=d)


def random_batch(rng, d, n):
    return PairBatch(rng.standard_normal((n, d)), rng.standard_normal((n, d)))


def standardization(rng, d):
    """A random per-dimension (mean, scale)."""
    return rng.standard_normal(d), rng.uniform(0.3, 3.0, size=d)


def folded(params, rng):
    """The same weights with a random per-dimension standardization folded in."""
    return scorenet._fold_standardization(params, *standardization(rng, params.arch.output_dim))


def finite_diff_loss_grad(params, batch, h=1e-5):
    grads_w, grads_b = [], []
    for k in range(len(params.weights)):
        for grads, tensor in ((grads_w, params.weights[k]), (grads_b, params.biases[k])):
            g = np.zeros_like(tensor)
            it = np.nditer(tensor, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = tensor[idx]
                tensor[idx] = orig + h
                up = surrogate_loss(params, batch)
                tensor[idx] = orig - h
                down = surrogate_loss(params, batch)
                tensor[idx] = orig
                g[idx] = (up - down) / (2 * h)
            grads.append(g)
    return grads_w, grads_b


class TestInit:
    def test_deterministic(self):
        arch = tiny_arch(3, (8, 8))
        a, b = init_params(arch, 7), init_params(arch, 7)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_zero_biases(self):
        params = init_params(tiny_arch(2, (5,)), 0)
        assert all(np.all(b == 0.0) for b in params.biases)

    def test_weight_variance_matches_scheme(self):
        # U(-1/sqrt(fan_in), 1/sqrt(fan_in)) has variance 1/(3*fan_in)
        arch = MlpArchitecture(input_dim=256, hidden_widths=(512,), output_dim=128)
        params = init_params(arch, 3)
        for w in params.weights:
            fan_in = w.shape[0]
            assert np.var(w) == pytest.approx(1.0 / (3 * fan_in), rel=0.10)


class TestForward:
    def test_zero_weights_zero_output(self):
        arch = tiny_arch(2, (4, 4))
        params = MlpParameters(
            arch,
            [np.zeros((fin, fout)) for fin, fout in arch.layer_sizes],
            [np.zeros(fout) for _, fout in arch.layer_sizes],
        )
        out = forward(params, np.array([1.0, -2.0]), np.array([0.5, 3.0]))
        assert np.all(out == 0.0)

    def test_single_linear_layer_matches_matrix_arithmetic(self):
        arch = MlpArchitecture(input_dim=2, hidden_widths=(), output_dim=1)
        w = np.array([[2.0], [-3.0]])
        b = np.array([0.25])
        params = MlpParameters(arch, [w], [b])
        y, x = np.array([1.5]), np.array([-0.5])
        expected = np.concatenate([y, x]) @ w + b
        assert np.allclose(forward(params, y, x), expected)

    def test_silu_values(self):
        assert silu(np.array([0.0]))[0] == 0.0
        assert silu(np.array([1.0]))[0] == pytest.approx(0.731058, abs=1e-6)

    def test_silu_saturates_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = silu(np.array([-800.0, 800.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[1] == 800.0

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        params = init_params(tiny_arch(3, (6, 5)), 1)
        batch = random_batch(rng, 3, 20)
        stacked = forward_batch(params, batch.x_next, batch.x_prev)
        singles = [forward(params, y, x) for y, x in zip(batch.x_next, batch.x_prev)]
        assert np.allclose(stacked, singles)


    @pytest.mark.parametrize("call", [forward_batch, scorenet.divergence_batch])
    def test_row_count_mismatch_rejected(self, call):
        # chunks slice Y and X alike, so unequal rows would be dropped silently
        rng = np.random.default_rng(1)
        params = init_params(tiny_arch(3, (6,)), 2)
        with pytest.raises(ValueError, match="rows"):
            call(params, rng.standard_normal((5, 3)), rng.standard_normal((4, 3)))

    @pytest.mark.parametrize("call, shape", [(forward_batch, (0, 3)), (scorenet.divergence_batch, (0,))])
    def test_zero_rows_give_an_empty_result(self, call, shape):
        params = init_params(tiny_arch(3, (6,)), 2)
        assert call(params, np.empty((0, 3)), np.empty((0, 3))).shape == shape

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.sampled_from([1, 3, 10]),
        widths=st.lists(st.integers(1, 9), max_size=3).map(tuple),
        n=st.integers(2, 40),
        rows=st.sampled_from(["1", "2", "n-1", "n", "n+1"]),
        standardize=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_chunks_agree_with_one_chunk(self, d, widths, n, rows, standardize, seed):
        # forward_batch takes _STACK_BYTES // (8 * max(2d, widths)) rows at a time
        rng = np.random.default_rng(seed)
        params = init_params(tiny_arch(d, widths), seed)
        if standardize:
            params = folded(params, rng)
        batch = random_batch(rng, d, n)
        row_bytes = 8 * max((2 * d, *widths))
        with mock.patch.object(scorenet, "_STACK_BYTES", n * row_bytes):
            ref = forward_batch(params, batch.x_next, batch.x_prev)
        rows = {"1": 1, "2": 2, "n-1": n - 1, "n": n, "n+1": n + 1}[rows]
        with mock.patch.object(scorenet, "_STACK_BYTES", rows * row_bytes):
            out = forward_batch(params, batch.x_next, batch.x_prev)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestDivergence:
    def test_zero_weights(self):
        arch = tiny_arch(2, (4,))
        params = MlpParameters(
            arch,
            [np.zeros((fin, fout)) for fin, fout in arch.layer_sizes],
            [np.zeros(fout) for _, fout in arch.layer_sizes],
        )
        assert divergence(params, np.ones(2), np.ones(2)) == 0.0

    def test_linear_layer_equals_trace(self):
        d = 3
        arch = MlpArchitecture(input_dim=2 * d, hidden_widths=(), output_dim=d)
        rng = np.random.default_rng(5)
        w = rng.standard_normal((2 * d, d))
        params = MlpParameters(arch, [w], [np.zeros(d)])
        expected = np.trace(w[:d, :d])
        for _ in range(3):
            y, x = rng.standard_normal(d), rng.standard_normal(d)
            assert divergence(params, y, x) == pytest.approx(expected)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        params = init_params(tiny_arch(3, (5,)), 2)
        field = as_score_field(params)
        probes = [(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(10)]
        assert check_divergence_consistency(field, probes) <= 1e-6

    @pytest.mark.parametrize("widths", [(5,), (6, 5, 4)])
    def test_folded_standardization_matches_finite_differences(self, widths):
        rng = np.random.default_rng(8)
        mean, scale = standardization(rng, 3)
        params = scorenet._fold_standardization(init_params(tiny_arch(3, widths), 4), mean, scale)
        probes = [(mean + scale * rng.standard_normal(3), mean + scale * rng.standard_normal(3))
                  for _ in range(10)]
        assert check_divergence_consistency(as_score_field(params), probes) <= 1e-6

    def test_three_hidden_layers_match_finite_differences(self):
        rng = np.random.default_rng(9)
        params = init_params(tiny_arch(4, (7, 6, 5)), 5)
        probes = [(rng.standard_normal(4), rng.standard_normal(4)) for _ in range(10)]
        assert check_divergence_consistency(as_score_field(params), probes) <= 1e-6


class TestSurrogateLoss:
    def test_zero_network_zero_loss(self):
        arch = tiny_arch(2, (3,))
        params = MlpParameters(
            arch,
            [np.zeros((fin, fout)) for fin, fout in arch.layer_sizes],
            [np.zeros(fout) for _, fout in arch.layer_sizes],
        )
        batch = random_batch(np.random.default_rng(1), 2, 10)
        assert surrogate_loss(params, batch) == 0.0

    def test_is_the_mean_hyvarinen_score_of_the_network(self):
        rng = np.random.default_rng(2)
        params = init_params(tiny_arch(3, (6, 5)), 3)
        batch = random_batch(rng, 3, 50)
        assert surrogate_loss(params, batch) == np.mean(hyvarinen_scores(as_score_field(params), batch))

    def test_oracle_field_attains_negative_half_score_power(self):
        # at the true score the objective, the mean Hyvarinen score, equals
        # -0.5 * E||grad log p||^2
        spec = GaussianKernelSpec(dim=10, alpha=0.3, sigma=0.3, shift=0.2)
        pairs = stationary_pairs(spec, 20_000, seed=9)
        terms = hyvarinen_scores(closed_form_score(spec), pairs)
        target = -spec.dim / (2 * spec.sigma**2)
        # standard error of the empirical mean of the per-pair objective
        se = terms.std(ddof=1) / math.sqrt(len(terms))
        assert abs(terms.mean() - target) <= 3 * se

    def test_empty_batch_rejected(self):
        params = init_params(tiny_arch(), 0)
        with pytest.raises(ValueError, match="empty"):
            surrogate_loss(params, PairBatch(np.empty((0, 2)), np.empty((0, 2))))


class TestLossGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            d = int(rng.integers(1, 4))
            widths = tuple(rng.integers(2, 9, size=int(rng.integers(1, 3))))
            params = init_params(tiny_arch(d, widths), int(rng.integers(1000)))
            batch = random_batch(rng, d, int(rng.integers(1, 9)))
            grads = loss_gradient(params, batch)
            fd_w, fd_b = finite_diff_loss_grad(params, batch)
            for g, f in zip(grads.weights + grads.biases, fd_w + fd_b):
                assert np.max(np.abs(g - f) / np.maximum(np.abs(f), 1e-6)) <= 1e-4

    @pytest.mark.parametrize("widths", [(), (5,), (6, 5, 4)])
    def test_folded_standardization_matches_finite_differences(self, widths):
        rng = np.random.default_rng(17)
        mean, scale = standardization(rng, 3)
        params = scorenet._fold_standardization(init_params(tiny_arch(3, widths), 6), mean, scale)
        raw = random_batch(rng, 3, 6)
        batch = PairBatch(raw.x_prev * scale + mean, raw.x_next * scale + mean)
        grads = loss_gradient(params, batch)
        fd_w, fd_b = finite_diff_loss_grad(params, batch)
        for g, f in zip(grads.weights + grads.biases, fd_w + fd_b):
            assert np.max(np.abs(g - f) / np.maximum(np.abs(f), 1e-6)) <= 1e-4

    def test_three_hidden_layers_match_finite_differences(self):
        rng = np.random.default_rng(18)
        params = init_params(tiny_arch(3, (6, 5, 4)), 7)
        batch = random_batch(rng, 3, 7)
        grads = loss_gradient(params, batch)
        fd_w, fd_b = finite_diff_loss_grad(params, batch)
        for g, f in zip(grads.weights + grads.biases, fd_w + fd_b):
            assert np.max(np.abs(g - f) / np.maximum(np.abs(f), 1e-6)) <= 1e-4

    def test_result_does_not_alias_buffers_of_later_calls(self):
        rng = np.random.default_rng(19)
        params = init_params(tiny_arch(3, (6, 5, 4)), 8)
        first = loss_gradient(params, random_batch(rng, 3, 9))
        kept = [a.copy() for a in first.weights + first.biases]
        loss_gradient(params, random_batch(rng, 3, 9))
        assert all(np.array_equal(a, b) for a, b in zip(first.weights + first.biases, kept))

    @pytest.mark.parametrize("n", [1, 64, 65, 200])
    def test_chunks_agree_with_one_pass(self, monkeypatch, n):
        # equal chunks of at most 64 pairs (65 = 33 + 32, 200 = 4 x 50)
        # against one tangent pass over all pairs
        rng = np.random.default_rng(23)
        params = folded(init_params(tiny_arch(3, (6, 5, 4)), 9), rng)
        batch = random_batch(rng, 3, n)
        stacks = scorenet._TangentStacks(params.arch, n)
        one_loss, one = scorenet._loss_and_grads(params, batch.x_next, batch.x_prev, stacks)
        monkeypatch.setattr(scorenet, "_STACK_BYTES", 64 * 3 * 6 * 8)  # 64 rows of d=3, width 6
        loss = surrogate_loss(params, batch)
        grads = loss_gradient(params, batch)
        assert loss == pytest.approx(one_loss, rel=1e-12, abs=0)
        for g, ref in zip(grads.weights + grads.biases, one.weights + one.biases):
            assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_zero_network_gradient_comes_from_divergence_term(self):
        # with psi == 0 the squared term contributes nothing; finite
        # differences of the full loss still match, isolating the
        # divergence-term gradient
        arch = tiny_arch(2, (3,))
        params = MlpParameters(
            arch,
            [np.zeros((fin, fout)) for fin, fout in arch.layer_sizes],
            [np.zeros(fout) for _, fout in arch.layer_sizes],
        )
        batch = random_batch(np.random.default_rng(3), 2, 4)
        grads = loss_gradient(params, batch)
        fd_w, fd_b = finite_diff_loss_grad(params, batch)
        for g, f in zip(grads.weights + grads.biases, fd_w + fd_b):
            assert np.allclose(g, f, atol=1e-7)
        # the output-layer weight gradient is zero only in its psi^2 part;
        # the bias of the output layer has no divergence contribution at all
        assert np.allclose(grads.biases[-1], 0.0)


class TestChunking:
    """divergence_batch, surrogate_loss and loss_gradient take their pairs in
    chunks sized from ``_STACK_BYTES``; the chunk rows move only last bits."""

    @staticmethod
    def _chunked(params, batch, rows):
        # rows per chunk set through the byte budget, d * max width * 8 B a
        # row; None keeps the module's budget
        arch = params.arch
        row_bytes = arch.output_dim * max(arch.hidden_widths, default=1) * 8
        budget = scorenet._STACK_BYTES if rows is None else rows * row_bytes
        with mock.patch.object(scorenet, "_STACK_BYTES", budget):
            return (scorenet.divergence_batch(params, batch.x_next, batch.x_prev),
                    surrogate_loss(params, batch), loss_gradient(params, batch))

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.sampled_from([1, 3, 10]),
        widths=st.lists(st.integers(1, 9), max_size=3).map(tuple),
        n=st.integers(1, 40),
        rows=st.sampled_from(["1", "7", "budget", "n", "n+1"]),
        standardize=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_results_agree_with_one_chunk(self, d, widths, n, rows, standardize, seed):
        rng = np.random.default_rng(seed)
        params = init_params(tiny_arch(d, widths), seed)
        if standardize:
            params = folded(params, rng)
        batch = random_batch(rng, d, n)
        ref_div, ref_loss, ref = self._chunked(params, batch, n)
        rows = {"1": 1, "7": 7, "budget": None, "n": n, "n+1": n + 1}[rows]
        div, loss, grads = self._chunked(params, batch, rows)
        assert np.max(np.abs(div - ref_div)) <= 1e-12 * np.max(np.abs(ref_div))
        # the loss is a mean of terms of either sign: relative to their size
        terms = hyvarinen_scores(as_score_field(params), batch)
        assert abs(loss - ref_loss) <= 1e-12 * np.mean(np.abs(terms))
        for g, r in zip(grads.weights + grads.biases, ref.weights + ref.biases):
            assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))

    @pytest.mark.parametrize("widths, counts", [
        # divergence_batch holds two stacks, and so does each of its three
        # calls from surrogate_loss, one per 2114-row block of
        # fields.hyvarinen_scores; loss_gradient one per hidden layer, L of
        # them for L >= 2 hidden layers
        ((128, 8), (2, 2, 2, 2, 2)),
        ((128, 128, 128), (2, 2, 2, 2, 3)),
    ])
    def test_stacks_stay_within_the_byte_budget_at_the_mocap_dimension(
            self, monkeypatch, widths, counts):
        stacks = []

        class Recorded(scorenet._TangentStacks):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                stacks.append(self)

        monkeypatch.setattr(scorenet, "_TangentStacks", Recorded)
        rng = np.random.default_rng(29)
        params = init_params(tiny_arch(62, widths), 10)
        batch = random_batch(rng, 62, 5000)
        scorenet.divergence_batch(params, batch.x_next, batch.x_prev)
        surrogate_loss(params, batch)
        loss_gradient(params, batch)
        assert len(stacks) == 5
        for made, count in zip(stacks, counts):
            assert made.rows == 16  # 1 MiB // (62 * 128 * 8 B)
            assert len(made.buffers) == count
            assert all(buf.nbytes <= scorenet._STACK_BYTES for buf in made.buffers)


def _traced_peak(call, *args):
    tracemalloc.start()
    try:
        result = call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestPassMemory:
    """A pass over many pairs holds its output and budget-sized chunks only;
    whole-input (n, width) activations took 154 MB (forward_batch) and 42 MB
    (hyvarinen_scores) here."""

    @pytest.fixture(scope="class")
    def net_and_pairs(self):
        params = init_params(tiny_arch(10, (128, 128, 128)), 11)
        return params, random_batch(np.random.default_rng(31), 10, 50_000)

    def test_forward_batch(self, net_and_pairs):
        params, batch = net_and_pairs
        out, peak = _traced_peak(forward_batch, params, batch.x_next, batch.x_prev)
        assert out.shape == (50_000, 10)
        assert peak < 10_000_000

    def test_hyvarinen_scores(self, net_and_pairs):
        params, batch = net_and_pairs
        out, peak = _traced_peak(hyvarinen_scores, as_score_field(params), batch)
        assert out.shape == (50_000,)
        assert peak < 10_000_000


class TestTrain:
    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(11)
        pairs = random_batch(rng, 2, 64)
        config = TrainConfig(learning_rate=0.0, batch_size=16, epochs=4, seed=5, shuffle=False)
        params, history = train(tiny_arch(2, (4,)), pairs, config)
        fresh = init_params(tiny_arch(2, (4,)), np.random.SeedSequence(5).spawn(2)[0])
        assert all(np.array_equal(a, b) for a, b in zip(params.weights, fresh.weights))
        assert len(set(history)) == 1

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(12)
        pairs = random_batch(rng, 2, 256)
        config = TrainConfig(batch_size=32, epochs=3, seed=99)
        _, h1 = train(tiny_arch(2, (8,)), pairs, config)
        _, h2 = train(tiny_arch(2, (8,)), pairs, config)
        assert h1 == h2

    def test_loss_decreases_on_synthetic_task(self):
        spec = GaussianKernelSpec(dim=2, alpha=0.3, sigma=0.5, shift=0.2)
        pairs = stationary_pairs(spec, 4000, seed=21)
        config = TrainConfig(batch_size=64, epochs=6, seed=2)
        _, history = train(tiny_arch(2, (16, 16)), pairs, config)
        assert history[-1] < history[0]

    def test_doubling_epochs_does_not_hurt_final_loss(self):
        spec = GaussianKernelSpec(dim=2, alpha=0.3, sigma=0.5, shift=0.2)
        pairs = stationary_pairs(spec, 4000, seed=21)
        arch = tiny_arch(2, (16, 16))
        params6, h6 = train(arch, pairs, TrainConfig(batch_size=64, epochs=6, seed=2))
        _, h12 = train(arch, pairs, TrainConfig(batch_size=64, epochs=12, seed=2))
        # tolerance: 3 std of the batch-level loss at the shorter run's end
        batch_losses = [
            surrogate_loss(params6, PairBatch(pairs.x_prev[i : i + 64], pairs.x_next[i : i + 64]))
            for i in range(0, 4000, 64)
        ]
        assert h12[-1] <= h6[-1] + 3 * np.std(batch_losses)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergent_loss_reports_epoch(self):
        pairs = PairBatch(np.full((64, 2), 1e200), np.full((64, 2), 1e200))
        config = TrainConfig(batch_size=32, epochs=2, seed=0)
        with pytest.raises(TrainingError) as err:
            train(tiny_arch(2, (4,)), pairs, config)
        assert err.value.epoch == 0

    @pytest.mark.parametrize("standardize, expected", [
        (False, [0.010682288442058424, -0.01298465345403361,
                 -0.040545401044425305, -0.08180528943600701]),
        (True, [0.011932792592210667, -0.010460868628225874,
                -0.03451153993402093, -0.07080106323817971]),
    ])
    def test_reproduces_recorded_losses(self, standardize, expected):
        # 300 pairs in batches of 128: the last minibatch of each epoch has
        # 44 pairs and reuses the leading part of the tangent buffers.
        # Reference losses recorded from the straightforward implementation
        # (one sigmoid evaluation per use, fresh (B, d, h) stacks per step).
        spec = GaussianKernelSpec(dim=3, alpha=0.3, sigma=0.5, shift=0.2)
        pairs = stationary_pairs(spec, 300, seed=77)
        config = TrainConfig(learning_rate=1e-2, batch_size=128, epochs=4, seed=13)
        _, history = train(tiny_arch(3, (8, 8, 8)), pairs, config, standardize=standardize)
        assert history == pytest.approx(expected, rel=1e-9, abs=0)

    @pytest.mark.parametrize("widths", [(), (5,), (5, 3), (5, 3, 7), (5, 3, 7, 4)])
    def test_step_gradient_matches_finite_differences(self, widths):
        # one SGD step at learning rate 1 over one minibatch of 13 pairs moves
        # the parameters by minus the gradient train computed, in chunks of
        # 5 + 5 + 3 pairs (stacks of at most 5 rows); the finite differences
        # take the loss in one chunk
        d, n, seed = 3, 13, 21
        arch = tiny_arch(d, widths)
        pairs = random_batch(np.random.default_rng(seed), d, n)
        config = TrainConfig(learning_rate=1.0, batch_size=n, epochs=1, seed=seed,
                             optimizer="sgd", shuffle=False)
        with mock.patch.object(scorenet, "_STACK_BYTES", 5 * d * max(widths, default=1) * 8):
            trained, _ = train(arch, pairs, config)
        start = init_params(arch, np.random.SeedSequence(seed).spawn(2)[0])
        fd_w, fd_b = finite_diff_loss_grad(start, pairs)
        steps = [a - b for a, b in zip(start.weights + start.biases,
                                       trained.weights + trained.biases)]
        for g, f in zip(steps, fd_w + fd_b):
            assert np.max(np.abs(g - f) / np.maximum(np.abs(f), 1e-6)) <= 1e-4

    def test_step_memory_does_not_grow_with_batch_size(self):
        # the tangent stacks of a step are sized by _STACK_BYTES, not by
        # batch_size; only the minibatch's (B, d) inputs grow with it. Stacks
        # sized by the batch grew this by 6 x 384 x 62 x 128 x 8 B = 146 MB.
        d = 62
        pairs = random_batch(np.random.default_rng(37), d, 1024)
        arch = tiny_arch(d, (128, 128, 128))
        peaks = {}
        for batch_size in (128, 512):
            config = TrainConfig(batch_size=batch_size, epochs=1, seed=3)
            _, peaks[batch_size] = _traced_peak(train, arch, pairs, config)
        extra_rows = 512 - 128
        assert peaks[512] - peaks[128] <= extra_rows * 2 * d * 8 + 64 * 1024

    def test_on_epoch_reports_each_epoch(self):
        pairs = random_batch(np.random.default_rng(13), 2, 96)
        seen = []
        _, history = train(tiny_arch(2, (4,)), pairs, TrainConfig(batch_size=32, epochs=3, seed=1),
                           on_epoch=lambda *args: seen.append(args))
        assert [e for e, _, _ in seen] == [0, 1, 2]
        assert [loss for _, loss, _ in seen] == history
        assert all(seconds > 0 for _, _, seconds in seen)

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", -1e-3),
        ("beta1", 1.0), ("beta1", -0.1), ("beta1", math.nan), ("beta2", 1.5),
        ("eps", 0.0), ("eps", -1.0), ("eps", math.inf), ("eps", math.nan),
    ])
    def test_config_rejects_meaningless_optimiser_settings(self, key, value):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: value})

    def test_dataset_smaller_than_batch_rejected(self):
        pairs = random_batch(np.random.default_rng(1), 2, 8)
        with pytest.raises(ValueError, match="batch_size"):
            train(tiny_arch(2, (4,)), pairs, TrainConfig(batch_size=16))


class TestEvaluateAccuracy:
    def test_network_equal_to_the_oracle(self):
        # without shift the oracle -(y - (1 - alpha) x) / sigma^2 is linear,
        # so a network without hidden layers is the oracle up to rounding
        d = 3
        spec = GaussianKernelSpec(dim=d, alpha=0.4, sigma=0.5)
        w = np.concatenate([-np.eye(d), (1 - spec.alpha) * np.eye(d)]) / spec.sigma**2
        params = MlpParameters(tiny_arch(d, ()), [w], [np.zeros(d)])
        report = evaluate_accuracy(params, closed_form_score(spec), stationary_pairs(spec, 500, seed=3))
        assert report.rel_error <= 1e-28

    def test_rel_error_definition(self):
        spec = GaussianKernelSpec(dim=3, alpha=0.4, sigma=0.5, shift=0.1)
        oracle = closed_form_score(spec)
        params = init_params(tiny_arch(3, (4,)), 0)
        pairs = stationary_pairs(spec, 300, seed=4)
        report = evaluate_accuracy(params, oracle, pairs)
        assert report.rel_error == pytest.approx(report.mse / report.var_scale)

    def test_zero_var_scale_rejected(self):
        from scusum.fields import GaussianScoreField

        zero_field = GaussianScoreField(lambda x: x, sigma=1.0, dim=2)
        pairs = PairBatch(np.ones((5, 2)), np.ones((5, 2)))  # score == 0 at y == x
        params = init_params(tiny_arch(2, (3,)), 0)
        with pytest.raises(ValueError, match="var_scale"):
            evaluate_accuracy(params, zero_field, pairs)


class TestScoreFieldAdapter:
    def test_delegation_is_exact(self):
        params = init_params(tiny_arch(2, (5,)), 8)
        field = as_score_field(params)
        rng = np.random.default_rng(0)
        y, x = rng.standard_normal(2), rng.standard_normal(2)
        assert np.array_equal(field.score(y, x), forward(params, y, x))
        assert field.divergence(y, x) == divergence(params, y, x)

    def test_hyvarinen_score_definition(self):
        params = init_params(tiny_arch(2, (5,)), 9)
        field = as_score_field(params)
        rng = np.random.default_rng(1)
        pair = TransitionPair(rng.standard_normal(2), rng.standard_normal(2))
        psi = forward(params, pair.x_next, pair.x_prev)
        expected = 0.5 * float(psi @ psi) + divergence(params, pair.x_next, pair.x_prev)
        assert hyvarinen_score(field, pair) == pytest.approx(expected)

    def test_trained_model_correlates_with_oracle(self):
        spec = GaussianKernelSpec(dim=1, alpha=0.3, sigma=0.5, shift=0.2)
        pairs = stationary_pairs(spec, 6000, seed=31)
        config = TrainConfig(batch_size=64, epochs=10, seed=3)
        params, _ = train(
            MlpArchitecture(input_dim=2, hidden_widths=(16, 16), output_dim=1), pairs, config
        )
        field = as_score_field(params)
        oracle = closed_form_score(spec)
        eval_pairs = stationary_pairs(spec, 5000, seed=32)
        from scusum.fields import hyvarinen_scores

        a = hyvarinen_scores(field, eval_pairs)
        b = hyvarinen_scores(oracle, eval_pairs)
        r = np.corrcoef(a, b)[0, 1]
        assert r >= 0.95


class TestSerialization:
    def test_round_trip(self, tmp_path):
        params = init_params(tiny_arch(3, (7, 5)), 17)
        path = tmp_path / "model.bin"
        save_model(params, path)
        loaded = load_model(path)
        assert loaded.arch == params.arch
        assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, params.weights))
        assert all(np.array_equal(a, b) for a, b in zip(loaded.biases, params.biases))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not a model")
        with pytest.raises(ValueError, match="not a score-network"):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        params = init_params(tiny_arch(2, (4,)), 2)
        path = tmp_path / "model.bin"
        save_model(params, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError):
            load_model(path)


class TestStandardizedTraining:
    def test_standardized_model_recovers_raw_space_score(self):
        # shift/scale the coordinates wildly; the raw-space adapter must still
        # approximate the oracle of the raw process
        rng = np.random.default_rng(41)
        spec = GaussianKernelSpec(dim=2, alpha=0.4, sigma=0.4, shift=0.3)
        pairs = stationary_pairs(spec, 6000, seed=42)
        offset = np.array([50.0, -20.0])
        scale = np.array([5.0, 0.2])
        raw = PairBatch(pairs.x_prev * scale + offset, pairs.x_next * scale + offset)
        config = TrainConfig(batch_size=64, epochs=12, seed=4)
        params, _ = train(tiny_arch(2, (32, 32)), raw, config, standardize=True)
        # oracle for the transformed process: y = mu(x) in raw coords
        from scusum.fields import GaussianScoreField
        from scusum.markov import transition_mean

        def raw_mean(x):
            return transition_mean(spec, (x - offset) / scale) * scale + offset

        # conditional stds differ per dimension; compare against the exact
        # per-dimension score instead of a single-sigma field
        eval_raw = PairBatch(raw.x_prev[:2000], raw.x_next[:2000])
        psi = forward_batch(params, eval_raw.x_next, eval_raw.x_prev)
        truth = -(eval_raw.x_next - raw_mean(eval_raw.x_prev)) / (spec.sigma * scale) ** 2
        rel = np.mean(np.sum((psi - truth) ** 2, axis=1)) / np.mean(np.sum(truth**2, axis=1))
        assert rel <= 0.15

    @pytest.mark.parametrize("widths", [(), (8,), (8, 8, 8)])
    def test_is_the_zscored_fit_with_standardization_folded_in(self, widths):
        spec = GaussianKernelSpec(dim=3, alpha=0.3, sigma=0.5, shift=0.2)
        pairs = stationary_pairs(spec, 300, seed=77)
        raw = PairBatch(pairs.x_prev * 0.2 + 50.0, pairs.x_next * 0.2 + 50.0)
        config = TrainConfig(learning_rate=1e-2, batch_size=128, epochs=2, seed=13)
        params, history = train(tiny_arch(3, widths), raw, config, standardize=True)
        mean, scale = scorenet._compute_standardization(raw)
        zscored = PairBatch((raw.x_prev - mean) / scale, (raw.x_next - mean) / scale)
        fit, fit_history = train(tiny_arch(3, widths), zscored, config)
        assert history == fit_history
        folded_fit = scorenet._fold_standardization(fit, mean, scale)
        assert all(np.array_equal(a, b) for a, b in zip(params.weights + params.biases,
                                                        folded_fit.weights + folded_fit.biases))

    @pytest.mark.parametrize("widths", [(), (8,), (8, 8, 8)])
    def test_folded_network_matches_zscore_then_rescale(self, widths):
        # the folded first-layer bias carries m / s = 250 times the weights,
        # yet the raw-coordinate outputs stay within rounding of the
        # standardized evaluation
        d = 3
        rng = np.random.default_rng(43)
        params = init_params(tiny_arch(d, widths), 14)
        mean, scale = 50.0, 0.2
        batch = random_batch(rng, d, 200)
        Y, X = batch.x_next * scale + mean, batch.x_prev * scale + mean
        folded_params = scorenet._fold_standardization(params, np.full(d, mean), np.full(d, scale))
        Yz, Xz = (Y - mean) / scale, (X - mean) / scale
        for out, ref in (
            (forward_batch(folded_params, Y, X), forward_batch(params, Yz, Xz) / scale),
            (scorenet.divergence_batch(folded_params, Y, X),
             scorenet.divergence_batch(params, Yz, Xz) / scale**2),
        ):
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
