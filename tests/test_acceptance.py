"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one [PASS]/[FAIL]
line per criterion. The synthetic kernels follow the simulator's documented
convention ``X' = mu(X) + sigma * Z`` with ``Z ~ N(0, I)``, i.e. conditional
noise variance sigma^2, so the oracle score power is
E||grad log p||^2 = d / sigma^2 (111.1 pre-change, 40.0 post-change).
Criterion 1b pins the measured score power to that value, and checks the
external reference targets 223.0/80.2 against kernels built under the
convention they come from, noise variance sigma^2 / 2. Every criterion must
pass.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from scusum import bounds, detector, markov, mocap, scorenet
from scusum.exceptions import AmcParseError, AmcStructureError
from scusum.fields import (
    GaussianScoreField,
    PairBatch,
    estimate_drift,
    estimate_fisher_divergence,
    hyvarinen_scores,
)

FIXTURES = Path(__file__).parent / "fixtures"

PRE = markov.GaussianKernelSpec(dim=10, alpha=0.3, sigma=0.3, shift=0.2)
POST = markov.GaussianKernelSpec(dim=10, alpha=0.6, sigma=0.5, shift=0.9)
ARCH = scorenet.MlpArchitecture(input_dim=20, hidden_widths=(128, 128, 128), output_dim=10)
TRUNCATION_LEVEL = 600.0


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared expensive artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def pre_train_pairs():
    return markov.stationary_pairs(PRE, 50_000, seed=101)


@pytest.fixture(scope="session")
def post_train_pairs():
    return markov.stationary_pairs(POST, 50_000, seed=202)


@pytest.fixture(scope="session")
def pre_model(pre_train_pairs):
    params, _ = scorenet.train(
        ARCH, pre_train_pairs, scorenet.TrainConfig(learning_rate=1e-3, batch_size=128, epochs=8, seed=0)
    )
    return params


@pytest.fixture(scope="session")
def post_model(post_train_pairs):
    params, _ = scorenet.train(
        ARCH, post_train_pairs, scorenet.TrainConfig(learning_rate=1e-3, batch_size=128, epochs=30, seed=1)
    )
    return params


@pytest.fixture(scope="session")
def pre_report(pre_model):
    eval_pairs = markov.stationary_pairs(PRE, 20_000, seed=303)
    return scorenet.evaluate_accuracy(pre_model, markov.closed_form_score(PRE), eval_pairs)


@pytest.fixture(scope="session")
def post_report(post_model):
    eval_pairs = markov.stationary_pairs(POST, 20_000, seed=404)
    return scorenet.evaluate_accuracy(post_model, markov.closed_form_score(POST), eval_pairs)


@pytest.fixture(scope="session")
def closed_form_fields():
    return markov.closed_form_score(PRE), markov.closed_form_score(POST)


@pytest.fixture(scope="session")
def pre_increments(closed_form_fields):
    """10^5-step pre-change score-difference stream (closed-form fields)."""
    fp, fq = closed_form_fields
    states = markov.simulate_path(markov.TrajectoryConfig(pre=PRE, length=100_001, seed=505))
    return detector.score_increments(fp, fq, states)


@pytest.fixture(scope="session")
def post_increments(closed_form_fields):
    """10^4-step post-change stream (change active from the first sample)."""
    fp, fq = closed_form_fields
    states = markov.simulate_path(markov.TrajectoryConfig(pre=POST, length=10_001, seed=606))
    return detector.score_increments(fp, fq, states)


# ---------------------------------------------------------------------------
# criterion 1: score-learning accuracy on the synthetic kernels
# ---------------------------------------------------------------------------

def test_criterion_1a_score_learning_rel_error(pre_report, post_report):
    ok = pre_report.rel_error <= 0.10 and post_report.rel_error <= 0.10
    report(
        "criterion 1a (rel_error <= 0.10 on both kernels)",
        ok,
        f"pre rel_error={pre_report.rel_error:.4f}, post rel_error={post_report.rel_error:.4f}",
    )


def test_criterion_1b_score_power_reference_targets(pre_report, post_report):
    # Score power E||grad log p||^2 under the documented noise variance
    # sigma^2 is d / sigma^2. The external reference targets 223.0 / 80.2
    # come from a noise variance of sigma^2 / 2 (noise std sigma / sqrt(2)),
    # so they are checked against the oracle scores of those kernels, on
    # pairs drawn with the same seeds.
    lines = []
    ok = True
    for name, spec, measured, seed, reference in (
        ("pre", PRE, pre_report.var_scale, 303, 223.0),
        ("post", POST, post_report.var_scale, 404, 80.2),
    ):
        analytic = spec.dim / spec.sigma**2
        half = dataclasses.replace(spec, sigma=spec.sigma / math.sqrt(2))
        oracle = markov.closed_form_score(half)
        half_pairs = markov.stationary_pairs(half, 20_000, seed=seed)
        scores = oracle.score_batch(half_pairs.x_next, half_pairs.x_prev)
        half_var_scale = float(np.mean(np.einsum("ij,ij->i", scores, scores)))
        ok = ok and abs(measured - analytic) <= 0.15 * analytic
        ok = ok and abs(half_var_scale - reference) <= 0.15 * reference
        lines.append(
            f"{name} var_scale={measured:.1f} (analytic d/sigma^2={analytic:.1f}); "
            f"noise variance sigma^2/2: var_scale={half_var_scale:.1f} "
            f"(analytic {2 * analytic:.1f}, reference target {reference})"
        )
    report(
        "criterion 1b (var_scale within 15% of d/sigma^2, and of the 223.0/80.2 "
        "references under noise variance sigma^2/2)",
        ok,
        "; ".join(lines),
    )


# ---------------------------------------------------------------------------
# criterion 2: surrogate objective at the exact score
# ---------------------------------------------------------------------------

def test_criterion_2_surrogate_identity_at_oracle():
    pairs = markov.stationary_pairs(PRE, 100_000, seed=707)
    oracle = markov.closed_form_score(PRE)
    terms = hyvarinen_scores(oracle, pairs)
    value = float(terms.mean())
    se = float(terms.std(ddof=1) / math.sqrt(len(terms)))
    target = -PRE.dim / (2 * PRE.sigma**2)
    ok = abs(value - target) <= 2 * se
    report(
        "criterion 2 (surrogate at exact score = -d/(2 sigma^2))",
        ok,
        f"value={value:.4f}, target={target:.4f}, 2se={2 * se:.4f}",
    )


# ---------------------------------------------------------------------------
# criterion 3: exact gradients and divergences on random tiny networks
# ---------------------------------------------------------------------------

def test_criterion_3_gradient_exactness():
    rng = np.random.default_rng(808)
    worst_grad, worst_div = 0.0, 0.0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        widths = tuple(int(w) for w in rng.integers(1, 9, size=int(rng.integers(1, 3))))
        arch = scorenet.MlpArchitecture(input_dim=2 * d, hidden_widths=widths, output_dim=d)
        params = scorenet.init_params(arch, int(rng.integers(1 << 31)))
        n = int(rng.integers(1, 9))
        batch = PairBatch(rng.standard_normal((n, d)), rng.standard_normal((n, d)))

        grads = scorenet.loss_gradient(params, batch)
        h = 1e-5
        for k in range(len(params.weights)):
            for tensor, grad in ((params.weights[k], grads.weights[k]),
                                 (params.biases[k], grads.biases[k])):
                it = np.nditer(tensor, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = tensor[idx]
                    tensor[idx] = orig + h
                    up = scorenet.surrogate_loss(params, batch)
                    tensor[idx] = orig - h
                    down = scorenet.surrogate_loss(params, batch)
                    tensor[idx] = orig
                    fd = (up - down) / (2 * h)
                    rel = abs(grad[idx] - fd) / max(abs(fd), 1e-6)
                    worst_grad = max(worst_grad, rel)

        field = scorenet.as_score_field(params)
        y, x = rng.standard_normal(d), rng.standard_normal(d)
        fd_div = 0.0
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1e-5
            fd_div += (field.score(y + e, x)[i] - field.score(y - e, x)[i]) / 2e-5
        exact = field.divergence(y, x)
        worst_div = max(worst_div, abs(exact - fd_div) / max(abs(fd_div), 1e-6))

    ok = worst_grad <= 1e-4 and worst_div <= 1e-5
    report(
        "criterion 3 (gradients/divergence match finite differences)",
        ok,
        f"worst gradient rel err={worst_grad:.2e} (<=1e-4), worst divergence rel err={worst_div:.2e} (<=1e-5)",
    )


# ---------------------------------------------------------------------------
# criterion 4: CUSUM recursion equals the brute-force running maximum
# ---------------------------------------------------------------------------

def test_criterion_4_cusum_recursion_equivalence():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        s = rng.uniform(-10, 10, size=n)
        for level in (None, 0.5, 5.0):
            spec = detector.TruncationSpec(level)
            phi = np.clip(s, -spec.clip, spec.clip)
            # suffix sums per endpoint, computed fresh: max over the start k
            brute = np.array([np.max(np.cumsum(phi[: i + 1][::-1])) for i in range(n)])
            recursion = detector.statistic_trace(s, spec)
            worst = max(worst, float(np.max(np.abs(recursion - brute))))
    ok = worst <= 1e-9
    report(
        "criterion 4 (recursion equals brute-force max over 1000 random streams)",
        ok,
        f"worst abs deviation={worst:.2e} (<=1e-9)",
    )


# ---------------------------------------------------------------------------
# criterion 5: drift signs, closed-form and learned
# ---------------------------------------------------------------------------

def test_criterion_5_drift_signs(closed_form_fields, pre_train_pairs, post_train_pairs,
                                 pre_model, post_model):
    details = []
    ok = True
    fp, fq = closed_form_fields
    learned_p = scorenet.as_score_field(pre_model)
    learned_q = scorenet.as_score_field(post_model)
    for label, (p, q) in (("closed-form", (fp, fq)), ("learned", (learned_p, learned_q))):
        pre_est = estimate_drift(p, q, pre_train_pairs)
        post_est = estimate_drift(p, q, post_train_pairs)
        ok_pre = pre_est.mean < 0 and abs(pre_est.mean) > 3 * pre_est.std_error
        ok_post = post_est.mean > 0 and abs(post_est.mean) > 3 * post_est.std_error
        ok = ok and ok_pre and ok_post
        details.append(
            f"{label}: pre {pre_est.mean:.2f}±{pre_est.std_error:.3f}, "
            f"post {post_est.mean:.2f}±{post_est.std_error:.3f}"
        )
    report("criterion 5 (negative pre-change / positive post-change drift)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 6: Fisher-divergence oracle for the 1-D Gaussian shift
# ---------------------------------------------------------------------------

def test_criterion_6_fisher_divergence_oracle():
    rng = np.random.default_rng(111)
    batch = PairBatch(np.zeros((100_000, 1)), rng.standard_normal((100_000, 1)))
    p = GaussianScoreField(lambda x: np.zeros_like(x), sigma=1.0, dim=1)
    q = GaussianScoreField(lambda x: np.zeros_like(x) + 2.0, sigma=1.0, dim=1)
    fisher = estimate_fisher_divergence(p, q, batch)
    drift = estimate_drift(p, q, batch)
    ok = abs(fisher.mean - 2.0) <= 0.05 and abs(drift.mean + 2.0) <= 0.05
    report(
        "criterion 6 (N(0,1) vs N(2,1): D_F = 2.0, drift = -2.0, +-0.05)",
        ok,
        f"fisher={fisher.mean:.4f}, drift={drift.mean:.4f}",
    )


# ---------------------------------------------------------------------------
# criterion 7: end-to-end synthetic detection with learned scores
# ---------------------------------------------------------------------------

def test_criterion_7_end_to_end_detection(pre_model, post_model):
    learned_p = scorenet.as_score_field(pre_model)
    learned_q = scorenet.as_score_field(post_model)
    trunc = detector.TruncationSpec(TRUNCATION_LEVEL)

    # calibrate the threshold for zero false alarms over 10^4 pre-change steps
    calib_states = markov.simulate_path(markov.TrajectoryConfig(pre=PRE, length=10_001, seed=717))
    calib = detector.score_increments(learned_p, learned_q, calib_states)
    b = 1.25 * float(np.max(detector.statistic_trace(calib, trunc)))
    assert detector.threshold_sweep(calib, [b], trunc)[0].count == 0  # calibration sanity

    nu = 120
    states = markov.simulate_path(
        markov.TrajectoryConfig(pre=PRE, post=POST, change_point=nu, length=1000, seed=727)
    )
    increments = detector.score_increments(learned_p, learned_q, states)
    intervals = detector.threshold_sweep(increments, [b], trunc)[0].intervals
    # the first interval is the first alarm's step; increment i covers state i+1
    alarm_time = int(intervals[0]) + 1 if intervals.size else None
    ok = alarm_time is not None and alarm_time >= nu and (alarm_time - nu) < 200
    report(
        "criterion 7 (no alarm before the change, delay < 200 after it)",
        ok,
        f"calibrated b={b:.1f}, alarm at n={alarm_time}, delay={None if alarm_time is None else alarm_time - nu}",
    )


# ---------------------------------------------------------------------------
# criterion 8: bound calculators against closed-form values
# ---------------------------------------------------------------------------

def test_criterion_8_bound_calculators():
    value = bounds.false_alarm_lower_bound(delta=1.0, mu=2.0, b=4.0)
    n0, _ = bounds.delay_upper_bound(b=100.0, mu=10.0, post_drift=5.0)
    ok = abs(value - 6.96649) <= 1e-4 and n0 == 22
    report(
        "criterion 8 (false-alarm bound 6.96649+-1e-4; n0 = 22)",
        ok,
        f"bound={value:.6f}, n0={n0}",
    )


# ---------------------------------------------------------------------------
# criterion 9: bound validity on desk-scale streams
# ---------------------------------------------------------------------------

def test_criterion_9_bound_validity(pre_increments, post_increments):
    mu = bounds.heuristic_mu(TRUNCATION_LEVEL)  # 2.05 * 600 = 1230
    thresholds = [1500.0, 2000.0, 2500.0, 3000.0, 4000.0]
    trunc = detector.TruncationSpec(TRUNCATION_LEVEL)

    phi_pre = np.clip(pre_increments, -TRUNCATION_LEVEL, TRUNCATION_LEVEL)
    delta = -float(phi_pre.mean())
    assert delta > 0

    ok = True
    details = [f"mu={mu:.0f}, empirical delta={delta:.1f}"]
    for fa in detector.threshold_sweep(pre_increments, thresholds, trunc):
        b = fa.threshold
        # with no alarm over the whole stream, its length is a lower bound
        # on the mean time between false alarms
        empirical = fa.mean if fa.count > 0 else float(len(pre_increments))
        bound = bounds.false_alarm_lower_bound(delta, mu, b)
        ok = ok and empirical >= bound
        details.append(f"b={b:.0f}: E[T]>={empirical:.3g} vs bound {bound:.3g}")

    phi_post = np.clip(post_increments, -TRUNCATION_LEVEL, TRUNCATION_LEVEL)
    post_drift = float(phi_post.mean())
    assert post_drift > 0
    for delays in detector.threshold_sweep(post_increments, thresholds[-2:], trunc):
        b = delays.threshold
        _, delay_bound = bounds.delay_upper_bound(b, mu, post_drift)
        ok = ok and delays.count > 0 and delays.mean <= delay_bound
        details.append(f"b={b:.0f}: delay {delays.mean:.1f} vs bound {delay_bound:.1f}")

    report("criterion 9 (empirical run lengths respect both bounds)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 10: truncation never speeds up detection or false alarms
# ---------------------------------------------------------------------------

def test_criterion_10_truncation_comparison(pre_increments, post_increments):
    ok = True
    details = []
    for m in (TRUNCATION_LEVEL, 150.0):
        trunc = detector.TruncationSpec(m)
        fa_thresholds = (30.0, 60.0)  # chosen so the pre-change stream actually alarms
        for plain, clipped in zip(detector.threshold_sweep(pre_increments, fa_thresholds),
                                  detector.threshold_sweep(pre_increments, fa_thresholds, trunc)):
            b = plain.threshold
            plain_mean = plain.mean if plain.count else float(len(pre_increments))
            clipped_mean = clipped.mean if clipped.count else float(len(pre_increments))
            ok = ok and clipped_mean >= plain_mean
            details.append(f"M={m:.0f} FA b={b:.0f}: {clipped_mean:.1f}>={plain_mean:.1f}")
        delay_thresholds = (1000.0, 2000.0)
        for plain, clipped in zip(detector.threshold_sweep(post_increments, delay_thresholds),
                                  detector.threshold_sweep(post_increments, delay_thresholds, trunc)):
            b = plain.threshold
            ok = ok and plain.count > 0 and clipped.count > 0 and clipped.mean >= plain.mean
            details.append(f"M={m:.0f} delay b={b:.0f}: {clipped.mean:.1f}>={plain.mean:.1f}")
    report("criterion 10 (truncated run lengths >= untruncated)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 11: AMC ingestion fixtures, error classes, round trip
# ---------------------------------------------------------------------------

def test_criterion_11_amc_parsing():
    clip = mocap.parse_amc((FIXTURES / "walk_two_frames.amc").read_text())
    ok = clip.dimension == 9 and clip.frame_indices == (1, 2)

    errors = {}
    for name, expected in (
        ("bad_frame_gap.amc", AmcStructureError),
        ("bad_bone_mismatch.amc", AmcStructureError),
        ("bad_value.amc", AmcParseError),
    ):
        try:
            mocap.parse_amc((FIXTURES / name).read_text())
            errors[name] = None
        except (AmcParseError, AmcStructureError) as err:
            errors[name] = type(err)
        ok = ok and errors[name] is expected
    distinct = (
        errors["bad_value.amc"] is AmcParseError
        and errors["bad_frame_gap.amc"] is AmcStructureError
    )
    ok = ok and distinct

    ten = mocap.parse_amc((FIXTURES / "walk_ten_frames.amc").read_text())
    again = mocap.parse_amc(mocap.serialize_amc(ten))
    ok = ok and np.array_equal(again.values, ten.values) and again.bone_order == ten.bone_order

    report(
        "criterion 11 (AMC fixtures parse, error classes distinct, round trip lossless)",
        ok,
        f"dimension={clip.dimension}, errors={{gap: {errors['bad_frame_gap.amc'].__name__}, "
        f"mismatch: {errors['bad_bone_mismatch.amc'].__name__}, value: {errors['bad_value.amc'].__name__}}}",
    )
