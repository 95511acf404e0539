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
the detect-and-reset scan behind ``run_detector`` and the run-length
harnesses is bitwise equal to it, and ``statistic_trace`` agrees to 1e-9.

``threshold_sweep`` serves a whole threshold grid from one pass over the
stream. Wherever the no-reset statistic W is <= 0, every detect-and-reset
statistic, whatever its threshold, is <= 0 as well (rounding is monotone,
and a reset only lowers the carry), so all of them restart together from the
next increment. Between two such steps a threshold above the peak of W sees
exactly W and no alarm. Each threshold's scan therefore runs only over the
excursions of W that reach it, and its intervals and residual are bitwise
those of ``measure_false_alarms`` at that threshold.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, _textio
from .exceptions import NumericsError
from .fields import PairBatch, ScoreField, score_differences

__all__ = [
    "TruncationSpec",
    "DetectorConfig",
    "DetectorState",
    "RunLengthReport",
    "SweepRow",
    "SweepReport",
    "truncate",
    "detector_update",
    "run_detector",
    "statistic_trace",
    "measure_false_alarms",
    "measure_delays",
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
            raise ValueError("truncation level must be positive")

    @classmethod
    def none(cls) -> "TruncationSpec":
        return cls(level=None)

    @property
    def clip(self) -> float:
        return math.inf if self.level is None else float(self.level)


@dataclass(frozen=True)
class DetectorConfig:
    threshold: float
    truncation: TruncationSpec = field(default_factory=TruncationSpec.none)

    def __post_init__(self):
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")


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
    if not np.all(np.isfinite(increments)):
        raise NumericsError("non-finite detector increment")
    return increments


def run_detector(increments, config: DetectorConfig) -> int | None:
    """Smallest n (1-based) with W_n >= threshold, or None if never reached."""
    intervals, _ = _kernels.run_lengths(_finite(increments), config.threshold, config.truncation.clip)
    return int(intervals[0]) if intervals.size else None


def statistic_trace(increments, truncation: TruncationSpec = TruncationSpec.none()) -> np.ndarray:
    """Full W_n series without resets (for traces and threshold calibration)."""
    return _kernels.cusum_trace(_finite(increments), truncation.clip)


@dataclass(frozen=True)
class RunLengthReport:
    """Alarm-to-alarm intervals from a detect-and-reset scan.

    ``residual`` counts trailing steps consumed after the last alarm without
    another alarm, so sum(intervals) + residual equals the stream length.
    ``mean`` is NaN when no alarm fired.
    """

    intervals: list[int]
    mean: float
    count: int
    residual: int

    @classmethod
    def from_intervals(cls, intervals, residual: int) -> "RunLengthReport":
        intervals = [int(v) for v in intervals]
        mean = float(np.mean(intervals)) if intervals else float("nan")
        return cls(intervals=intervals, mean=mean, count=len(intervals), residual=residual)


def _scan_run_lengths(increments, config: DetectorConfig) -> RunLengthReport:
    intervals, residual = _kernels.run_lengths(
        _finite(increments), config.threshold, config.truncation.clip
    )
    return RunLengthReport.from_intervals(intervals, residual)


def measure_false_alarms(increments, config: DetectorConfig) -> RunLengthReport:
    """Detect-and-reset over a stream generated wholly under the pre-change law.

    Each alarm records the interval since the previous alarm (or the stream
    start) and resets the statistic to zero; the mean interval estimates the
    mean time between false alarms.
    """
    return _scan_run_lengths(increments, config)


def measure_delays(increments, config: DetectorConfig) -> RunLengthReport:
    """Detect-and-reset over a stream generated wholly under the post-change law.

    With the change active from the first sample, each interval is one
    detection delay; the mean estimates the expected delay at this threshold.
    """
    return _scan_run_lengths(increments, config)


@dataclass(frozen=True)
class SweepRow:
    threshold: float
    mean_run_length: float
    count: int


@dataclass(frozen=True)
class SweepReport(Sequence):
    """The rows of a threshold sweep, one per threshold in increasing order.

    ``peak_statistic`` is the largest value of the no-reset statistic over the
    stream (-inf for an empty stream): a threshold above it raises no alarm.
    """

    rows: tuple[SweepRow, ...]
    peak_statistic: float

    def __getitem__(self, index):
        return self.rows[index]

    def __len__(self) -> int:
        return len(self.rows)


def threshold_sweep(stream, thresholds, truncation: TruncationSpec = TruncationSpec.none()) -> SweepReport:
    """The detect-and-reset harness at every threshold of a grid, over one stream.

    ``stream`` is an increment array; one pass over it serves every
    threshold, and each row equals ``measure_false_alarms`` at its threshold.
    """
    thresholds = [float(b) for b in thresholds]
    if any(b2 <= b1 for b1, b2 in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be strictly increasing")
    for b in thresholds:
        DetectorConfig(threshold=b, truncation=truncation)  # rejects b <= 0
    runs, peak = _kernels.sweep_run_lengths(_finite(stream), thresholds, truncation.clip)
    rows = []
    for b, (intervals, residual) in zip(thresholds, runs):
        report = RunLengthReport.from_intervals(intervals, residual)
        rows.append(SweepRow(threshold=b, mean_run_length=report.mean, count=report.count))
    return SweepReport(rows=tuple(rows), peak_statistic=peak)


def score_increments(field_p: ScoreField, field_q: ScoreField, states) -> np.ndarray:
    """Score-difference increments s_n over consecutive pairs of a trajectory."""
    return score_differences(field_p, field_q, PairBatch.from_states(states))


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
        for start, rows in _textio.row_chunks(np.column_stack((increments, trace))):
            times = range(first_time + start, first_time + start + len(rows))
            _textio.write_rows(fh, [f"{n},{row}" for n, row in zip(times, rows)])


def write_sweep_csv(path, rows: Sequence[SweepRow]) -> None:
    """Sweep summary: columns threshold, mean_run_length, count."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "mean_run_length", "count"])
        for row in rows:
            writer.writerow([repr(row.threshold), repr(row.mean_run_length), row.count])
