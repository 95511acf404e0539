"""Conditional score fields and the information quantities built on them.

A score field models the gradient of a conditional log-density in its first
argument: ``score(y, x) ~ grad_y log p(y|x)`` together with its divergence
``divergence(y, x) ~ sum_i d(score_i)/dy_i``. Fields are batch-first: each
implements ``score_batch`` and ``divergence_batch`` over (n, d) arrays of
rows (y, x), and the one-pair ``score`` and ``divergence`` of the base class
are batches of one. On top of that capability this module provides:

* the conditional Hyvarinen score  S_H(y, x) = 0.5*||score||^2 + divergence,
* the score difference s = S_H(.; p) - S_H(.; q) between two models,
* the conditional Fisher divergence  D_F = 0.5 * E||score_p - score_q||^2,
* empirical drift estimates of s over transition-pair streams.

Conventions: D_F carries the 1/2 factor so that the drift identity
E_p[s] = -D_F(p||q) holds exactly; all math is double precision. Estimators
return a mean together with its Monte-Carlo standard error. Whether a pair
stream is stationary is the caller's concern (see ``markov.simulate_path``
for burn-in handling).

Memory: the batch estimators (``hyvarinen_scores`` and therefore
``score_differences`` and ``estimate_drift``, and
``estimate_fisher_divergence``) read a stream in row blocks of about 1 MiB
per (rows, d) float64 array (``_BLOCK_BYTES``) and write each block into one
preallocated (n,) output. Beyond its input a call holds that output, one
more (n,) array for a score difference, and the few block-sized temporaries
a field builds; a field's own batch methods see one block at a time. A
network field (``scorenet``) bounds its own arrays as well: its passes take
a block in chunks of ``scorenet._STACK_BYTES`` per activation or tangent
stack, so its (rows, width) activations never reach width/d times the
block.

Fields are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .exceptions import NumericsError

__all__ = [
    "TransitionPair",
    "PairBatch",
    "ScoreField",
    "GaussianScoreField",
    "MonteCarloEstimate",
    "hyvarinen_score",
    "hyvarinen_scores",
    "score_difference",
    "score_differences",
    "estimate_fisher_divergence",
    "estimate_drift",
    "check_divergence_consistency",
]


def as_state(x, dim: int | None = None) -> np.ndarray:
    """Validate one observation: 1-D, finite, optionally of dimension ``dim``."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"state must be a 1-D vector, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError("state must have dimension >= 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError("state contains non-finite entries")
    if dim is not None and arr.size != dim:
        raise ValueError(f"state has dimension {arr.size}, expected {dim}")
    return arr


@dataclass(frozen=True)
class TransitionPair:
    """One observed transition (x_prev -> x_next) of the chain."""

    x_prev: np.ndarray
    x_next: np.ndarray

    def __post_init__(self):
        prev = as_state(self.x_prev)
        nxt = as_state(self.x_next, dim=prev.size)
        object.__setattr__(self, "x_prev", prev)
        object.__setattr__(self, "x_next", nxt)

    @property
    def dim(self) -> int:
        return self.x_prev.size


class PairBatch:
    """Column view of many transitions: two (n, d) arrays."""

    def __init__(self, x_prev, x_next):
        x_prev = np.atleast_2d(np.asarray(x_prev, dtype=np.float64))
        x_next = np.atleast_2d(np.asarray(x_next, dtype=np.float64))
        if x_prev.shape != x_next.shape:
            raise ValueError(
                f"pair arrays must share shape, got {x_prev.shape} vs {x_next.shape}"
            )
        self.x_prev = x_prev
        self.x_next = x_next

    def __len__(self) -> int:
        return self.x_prev.shape[0]

    @property
    def dim(self) -> int:
        return self.x_prev.shape[1]

    @classmethod
    def from_states(cls, states) -> "PairBatch":
        """Consecutive pairs (X_{n-1}, X_n) of a trajectory, n = 1..len-1."""
        states = np.asarray(states, dtype=np.float64)
        if states.ndim != 2 or states.shape[0] < 2:
            raise ValueError("need a (n >= 2, d) array of states")
        return cls(states[:-1], states[1:])

    @classmethod
    def coerce(cls, pairs) -> "PairBatch":
        if isinstance(pairs, cls):
            return pairs
        raise TypeError(f"expected a PairBatch, got {type(pairs).__name__}")


class ScoreField(ABC):
    """Model of a conditional score grad_y log p(y|x) and its divergence.

    Implementations define the batch methods and must be read-only after
    construction; ``score`` and ``divergence`` are batches of one.
    """

    dim: int

    @abstractmethod
    def score_batch(self, Y: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Score vector per row (y, x); shape (n, d)."""

    @abstractmethod
    def divergence_batch(self, Y: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Trace of the Jacobian of the score with respect to y, per row; shape (n,)."""

    def score(self, y, x) -> np.ndarray:
        """Score vector at one pair (y, x); shape (d,)."""
        y, x = as_state(y, self.dim), as_state(x, self.dim)
        return self.score_batch(y[None, :], x[None, :])[0]

    def divergence(self, y, x) -> float:
        """Divergence at one pair (y, x)."""
        y, x = as_state(y, self.dim), as_state(x, self.dim)
        return float(self.divergence_batch(y[None, :], x[None, :])[0])


class GaussianScoreField(ScoreField):
    """Exact score of a conditional Gaussian N(mean_fn(x), sigma^2 I).

    score(y, x) = -(y - mean_fn(x)) / sigma^2 and the divergence is the
    constant -d / sigma^2. ``mean_fn`` must map (n, d) -> (n, d)
    (elementwise maps qualify automatically).
    """

    def __init__(self, mean_fn, sigma: float, dim: int):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.mean_fn = mean_fn
        self.sigma = float(sigma)
        self.dim = int(dim)

    def score_batch(self, Y, X):
        s = np.subtract(Y, self.mean_fn(X))
        # -(Y - m) / sigma^2 as (Y - m) / -sigma^2: the same IEEE quotient, zero signs included
        s /= -self.sigma**2
        return s

    def divergence_batch(self, Y, X):
        return np.full(Y.shape[0], -self.dim / self.sigma**2)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean plus its standard error (sample std / sqrt(n))."""

    mean: float
    std_error: float
    count: int

    @classmethod
    def from_values(cls, values) -> "MonteCarloEstimate":
        values = np.asarray(values, dtype=np.float64)
        n = values.size
        se = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        return cls(mean=float(np.mean(values)) if n else math.nan, std_error=se, count=n)

    def __float__(self) -> float:
        return self.mean


def hyvarinen_score(field: ScoreField, pair: TransitionPair) -> float:
    """0.5*||score(x_next, x_prev)||^2 + divergence(x_next, x_prev)."""
    if not isinstance(pair, TransitionPair):
        pair = TransitionPair(*pair)
    if pair.dim != field.dim:
        raise ValueError(f"pair dimension {pair.dim} does not match field dimension {field.dim}")
    s = np.asarray(field.score(pair.x_next, pair.x_prev), dtype=np.float64)
    if s.shape != (field.dim,):
        raise ValueError(f"score returned shape {s.shape}, expected ({field.dim},)")
    if not np.all(np.isfinite(s)):
        raise NumericsError("non-finite score term in Hyvarinen score")
    div = float(field.divergence(pair.x_next, pair.x_prev))
    if not np.isfinite(div):
        raise NumericsError("non-finite divergence term in Hyvarinen score")
    return 0.5 * float(s @ s) + div


# Bytes in one (rows, d) float64 array of the score stage: blocks of
# max(1, _BLOCK_BYTES // (8 d)) rows, 13,107 at d=10 and 2,114 at d=62.
# Per-row arithmetic does not depend on the block, so closed-form fields give
# the same bits for any block size; network fields move their tangent chunk
# boundaries with it and agree to 1e-12 relative (see scorenet._STACK_BYTES).
_BLOCK_BYTES = 1 << 20


def _block_rows(d: int) -> int:
    """Rows per block of the score stage at dimension ``d``: ``_BLOCK_BYTES`` per (rows, d) array."""
    return max(1, _BLOCK_BYTES // (8 * d))


def _row_blocks(batch: PairBatch):
    """Slices covering the rows of ``batch``, ``_block_rows`` at a time."""
    rows = _block_rows(batch.dim)
    return (slice(start, start + rows) for start in range(0, len(batch), rows))


def hyvarinen_scores(field: ScoreField, pairs) -> np.ndarray:
    """Vectorized Hyvarinen scores over a pair stream; shape (n,).

    The field's ``score_batch`` and ``divergence_batch`` are called once per
    row block of ``_BLOCK_BYTES``, so memory does not grow with the stream.
    """
    batch = PairBatch.coerce(pairs)
    if batch.dim != field.dim:
        raise ValueError(f"pair dimension {batch.dim} does not match field dimension {field.dim}")
    out = np.empty(len(batch))
    for block in _row_blocks(batch):
        Y, X = batch.x_next[block], batch.x_prev[block]
        h = out[block]
        s = field.score_batch(Y, X)
        # a non-finite term makes its row of h non-finite, so the terms are
        # checked only when h is (a finite score can still overflow its square)
        np.einsum("ij,ij->i", s, s, out=h)
        if not np.isfinite(h).all() and not np.isfinite(s).all():
            raise NumericsError("non-finite score term in Hyvarinen score")
        div = field.divergence_batch(Y, X)
        h *= 0.5
        h += div
        if not np.isfinite(h).all() and not np.isfinite(div).all():
            raise NumericsError("non-finite divergence term in Hyvarinen score")
    return out


def score_difference(field_p: ScoreField, field_q: ScoreField, pair) -> float:
    """S_H(pair; p) - S_H(pair; q); negative drift under p, positive under q."""
    return hyvarinen_score(field_p, pair) - hyvarinen_score(field_q, pair)


def score_differences(field_p: ScoreField, field_q: ScoreField, pairs) -> np.ndarray:
    """S_H(.; p) - S_H(.; q) over a pair stream; shape (n,)."""
    batch = PairBatch.coerce(pairs)
    out = hyvarinen_scores(field_p, batch)
    out -= hyvarinen_scores(field_q, batch)
    return out


def estimate_fisher_divergence(field_p: ScoreField, field_q: ScoreField, samples) -> MonteCarloEstimate:
    """Monte-Carlo D_F = 0.5 * E||score_p - score_q||^2 over given pairs.

    The estimate targets D_F(p||q | .) averaged over the x_prev law only when
    the caller supplies pairs with x_next ~ p(.|x_prev).
    """
    batch = PairBatch.coerce(samples)
    if len(batch) == 0:
        raise ValueError("empty sample set")
    values = np.empty(len(batch))
    for block in _row_blocks(batch):
        Y, X = batch.x_next[block], batch.x_prev[block]
        diff = field_p.score_batch(Y, X) - field_q.score_batch(Y, X)
        values[block] = 0.5 * np.einsum("ij,ij->i", diff, diff)
    return MonteCarloEstimate.from_values(values)


def estimate_drift(field_p: ScoreField, field_q: ScoreField, pairs) -> MonteCarloEstimate:
    """Empirical mean of the score difference over a pair stream.

    Under stationary pairs from p this estimates -D_F(p||q) (negative); under
    q it estimates +D_F(q||p) (positive).
    """
    batch = PairBatch.coerce(pairs)
    if len(batch) == 0:
        raise ValueError("empty pair stream")
    return MonteCarloEstimate.from_values(score_differences(field_p, field_q, batch))


def check_divergence_consistency(
    field: ScoreField,
    probes: Iterable[tuple[np.ndarray, np.ndarray]],
    h: float = 1e-4,
) -> float:
    """Max relative error of divergence vs a central finite-difference sum.

    For each probe (y, x) compares the field's divergence at (y, x) against
    sum_i [score_i(y + h e_i, x) - score_i(y - h e_i, x)] / (2h), with one
    ``score_batch`` call on the 2d rows y +- h e_i.
    """
    d = field.dim
    steps = h * np.eye(d)
    worst = 0.0
    for y, x in probes:
        y = as_state(y, d)
        x = as_state(x, d)
        s = field.score_batch(np.concatenate([y + steps, y - steps]), np.broadcast_to(x, (2 * d, d)))
        fd = np.sum((np.diagonal(s[:d]) - np.diagonal(s[d:])) / (2 * h))
        exact = field.divergence(y, x)
        denom = max(1.0, abs(exact))
        worst = max(worst, abs(fd - exact) / denom)
    return float(worst)
