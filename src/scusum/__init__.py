"""Score-based CUSUM change detection for Markov processes.

Learn conditional scores grad_y log p(y|x) from transition pairs, run a
CUSUM on Hyvarinen score differences (with optional increment truncation),
measure run lengths, and compare against closed-form concentration bounds.
Includes a synthetic Gaussian-kernel chain with its exact score as oracle
and a CMU AMC motion-capture ingestion pipeline.
"""

__version__ = "0.1.0"

from .fields import (
    GaussianScoreField,
    MonteCarloEstimate,
    PairBatch,
    ScoreField,
    TransitionPair,
    estimate_drift,
    estimate_fisher_divergence,
    hyvarinen_score,
    hyvarinen_scores,
    score_difference,
    score_differences,
)
from .markov import (
    GaussianKernelSpec,
    TrajectoryConfig,
    closed_form_score,
    simulate_path,
    stationary_pairs,
    transition_mean,
)
from .scorenet import (
    AccuracyReport,
    MlpArchitecture,
    MlpParameters,
    TrainConfig,
    as_score_field,
    evaluate_accuracy,
    init_params,
    load_model,
    save_model,
    surrogate_loss,
    train,
)
from .detector import (
    DetectorConfig,
    DetectorState,
    RunLengthReport,
    TruncationSpec,
    detector_update,
    score_increments,
    statistic_trace,
    threshold_sweep,
    truncate,
)
from .bounds import (
    BoundInputs,
    DoeblinConstants,
    concentration_mu,
    delay_upper_bound,
    false_alarm_lower_bound,
    heuristic_mu,
    hoeffding_tail,
)
from .mocap import AmcClip, ScenarioSpec, build_scenario, clip_to_vectors, parse_amc, serialize_amc

__all__ = [name for name in dir() if not name.startswith("_")]
