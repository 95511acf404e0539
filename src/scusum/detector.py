"""CUSUM stopping rules on score-difference increments, plain and truncated.

The detection statistic follows

    W_n = phi(s_n) + max(0, W_{n-1}),        W_0 = 0,

where s_n is the Hyvarinen score difference of the n-th transition pair and
phi clips to [-M, M] (identity when truncation is off). This recursion equals
the running maximum max_{1<=k<=n} sum_{i=k}^n phi(s_i), so an alarm at
W_n >= b is the classical CUSUM crossing; the O(1)-per-step form is what the
million-step harnesses need. Truncation keeps increments bounded, which both
stabilizes the statistic numerically and is what the concentration-based
run-length guarantees in ``bounds`` assume.

Long scans run through the numpy kernels in ``_kernels``. ``detector_update``
is the one-step reference implementation they are property-tested against:
the detect-and-reset scan behind ``threshold_sweep`` is bitwise equal to it,
and ``statistic_trace`` agrees within ``_kernels._margin``, a bound that
grows as the square of the stream length (8.3e-9 apart at 10**6 steps).

``threshold_sweep`` is the one run-length harness: ``detect`` runs it at its
one threshold and ``sweep`` at a grid, each over one pass of the stream.
Wherever the no-reset statistic W is <= 0, every detect-and-reset statistic,
whatever its threshold, is <= 0 as well (rounding is monotone, and a reset
only lowers the carry), so all of them restart together from the next
increment. Between two such steps a threshold above the peak of W sees
exactly W and no alarm. Each threshold's scan therefore runs only over the
stretches of W that may reach it, found in numpy within a proven rounding
margin. The same pass clips the stream once and reports the clipped
fraction and the drift of the clipped increments, whose mean and standard
error ``fields.MonteCarloEstimate.from_spent`` computes in the clip copy.

The increments themselves come from ``fields``: ``score_increments`` scores
a whole trajectory, and ``sweep`` and ``detect`` score a simulated one block
by block with ``fields.stream_score_differences``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, _textio
from .exceptions import NumericsError
from .fields import MonteCarloEstimate, ScoreField, stream_score_differences

__all__ = [
    "TruncationSpec",
    "DetectorConfig",
    "DetectorState",
    "RunLengthReport",
    "SweepReport",
    "truncate",
    "detector_update",
    "statistic_trace",
    "check_thresholds",
    "threshold_sweep",
    "score_increments",
    "write_trace_csv",
    "write_sweep_csv",
]


@dataclass(frozen=True)
class TruncationSpec:
    """Clip level M for detector increments; ``level=None`` disables clipping."""

    level: float | None = None

    def __post_init__(self):
        if self.level is not None and not self.level > 0:
            raise ValueError(f"truncation must be positive, got {self.level!r}")

    @property
    def clip(self) -> float:
        return math.inf if self.level is None else float(self.level)


@dataclass(frozen=True)
class DetectorConfig:
    threshold: float
    truncation: TruncationSpec = field(default_factory=TruncationSpec)

    def __post_init__(self):
        if not self.threshold > 0:
            raise ValueError(f"threshold must be positive, got {self.threshold!r}")


@dataclass(frozen=True)
class DetectorState:
    """Running statistic W, the number of increments consumed, alarm flag."""

    statistic: float = 0.0
    time: int = 0
    alarmed: bool = False


def truncate(spec: TruncationSpec, s: float) -> float:
    """phi(s): identity inside [-M, M], clamped to +-M outside."""
    m = spec.clip
    if s > m:
        return m
    if s < -m:
        return -m
    return float(s)


def detector_update(state: DetectorState, increment: float, config: DetectorConfig) -> DetectorState:
    """One recursion step; raises if the detector is already alarmed."""
    if state.alarmed:
        raise ValueError("detector has alarmed; reset before further updates")
    if not math.isfinite(increment):
        raise NumericsError("non-finite detector increment")
    phi = truncate(config.truncation, increment)
    w = phi + max(0.0, state.statistic)
    return DetectorState(statistic=w, time=state.time + 1, alarmed=w >= config.threshold)


def _finite(increments) -> np.ndarray:
    increments = np.asarray(increments, dtype=np.float64)
    flat = increments.reshape(-1)
    if _kernels._count_true(np.isfinite, flat) != flat.size:
        raise NumericsError("non-finite detector increment")
    return increments


def statistic_trace(increments, truncation: TruncationSpec = TruncationSpec()) -> np.ndarray:
    """Full W_n series without resets (for traces and threshold calibration)."""
    return _kernels.cusum_trace(_finite(increments), truncation.clip)


@dataclass(frozen=True, eq=False)  # an array field: == would compare elementwise
class RunLengthReport:
    """The detect-and-reset scan at one threshold: its alarm-to-alarm intervals (int64).

    ``residual`` counts the steps after the last alarm, so sum(intervals) +
    residual is the stream length; ``mean`` is NaN when no alarm fired. Over
    a pre-change stream the intervals are false-alarm run lengths, and over a
    post-change stream (the change active from the first sample) detection
    delays.
    """

    threshold: float
    intervals: np.ndarray
    residual: int
    count: int
    mean: float


@dataclass(frozen=True)
class SweepReport(Sequence):
    """The rows of a threshold sweep, one per threshold in increasing order.

    ``peak_statistic`` is the largest no-reset statistic (-inf for an empty
    stream), ``clipped_fraction`` the share of increments the truncation
    clipped and ``drift`` the mean of the clipped increments (both NaN for
    an empty stream).
    """

    rows: tuple[RunLengthReport, ...]
    peak_statistic: float
    clipped_fraction: float
    drift: MonteCarloEstimate

    def __getitem__(self, index):
        return self.rows[index]

    def __len__(self) -> int:
        return len(self.rows)


def check_thresholds(thresholds) -> list[float]:
    """``thresholds`` as floats, each positive and above the one before it.

    An error names the first element that breaks the rule as ``thresholds[i]``.
    """
    thresholds = [float(b) for b in thresholds]
    for i, b in enumerate(thresholds):
        if not b > 0 or (i and not b > thresholds[i - 1]):
            raise ValueError(
                f"thresholds[{i}] = {b!r}: thresholds must be positive and strictly increasing")
    return thresholds


def threshold_sweep(stream, thresholds, truncation: TruncationSpec = TruncationSpec()) -> SweepReport:
    """The detect-and-reset scan at every threshold of a grid, over one increment stream.

    Each alarm records the interval since the previous alarm (or the stream
    start) and resets the statistic to zero. The stream is clipped once, and
    one pass over it serves every threshold.
    """
    thresholds = check_thresholds(thresholds)
    increments = _finite(stream)
    phi = np.clip(increments, -truncation.clip, truncation.clip)
    clipped, n = _kernels._count_true(np.not_equal, phi, increments), increments.size
    runs, peak = _kernels.sweep_run_lengths(phi, thresholds)
    rows = tuple(
        RunLengthReport(threshold=b, intervals=intervals, residual=residual, count=intervals.size,
                        mean=float(intervals.mean()) if intervals.size else math.nan)
        for b, (intervals, residual) in zip(thresholds, runs)
    )
    return SweepReport(rows=rows, peak_statistic=peak, clipped_fraction=clipped / n if n else math.nan,
                       drift=MonteCarloEstimate.from_spent(phi))


def score_increments(field_p: ScoreField, field_q: ScoreField, states) -> np.ndarray:
    """Score-difference increments s_n over consecutive pairs of a trajectory, in one block."""
    states = np.asarray(states, dtype=np.float64)
    return stream_score_differences(field_p, field_q, [states], len(states))


def write_trace_csv(path, increments, trace, first_time: int = 1) -> None:
    """Per-step detector trace: columns n, score_diff, cusum_stat.

    ``first_time`` sets the time label of the first increment (pass 2 when
    the increments come from consecutive pairs of an emitted state stream,
    so that n matches the index of the state receiving the increment).
    """
    increments = np.asarray(increments, dtype=np.float64)
    trace = np.asarray(trace, dtype=np.float64)
    if increments.shape != trace.shape:
        raise ValueError("increments and trace must have equal length")
    with open(path, "w", newline="") as fh:
        _textio.write_rows(fh, ["n,score_diff,cusum_stat"])
        for start, rows in _textio.row_chunks(increments, trace):
            times = range(first_time + start, first_time + start + len(rows))
            _textio.write_rows(fh, [f"{n},{row}" for n, row in zip(times, rows)])


def write_sweep_csv(path, rows: Sequence[RunLengthReport]) -> None:
    """Sweep summary: columns threshold, mean_run_length, count."""
    with open(path, "w", newline="") as fh:
        _textio.write_rows(fh, ["threshold,mean_run_length,count",
                                *(f"{row.threshold!r},{row.mean!r},{row.count}" for row in rows)])
