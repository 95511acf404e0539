"""Conditional score fields and the information quantities built on them.

A score field models the gradient of a conditional log-density in its first
argument: ``score(y, x) ~ grad_y log p(y|x)`` together with its divergence
``divergence(y, x) ~ sum_i d(score_i)/dy_i``. Fields are batch-first: each
implements ``score_batch`` and ``score_and_divergence_batch`` over (n, d)
arrays of rows (y, x), the second giving both Hyvarinen terms from one pass,
and the one-pair ``score`` and ``divergence`` of the base class are batches
of one. On top of that capability this module provides:

* the conditional Hyvarinen score  S_H(y, x) = 0.5*||score||^2 + divergence,
* the score difference s = S_H(.; p) - S_H(.; q) between two models, over a
  pair stream or over a trajectory that arrives in blocks
  (``stream_score_differences``, which ``sweep`` and ``detect`` score with),
* the conditional Fisher divergence  D_F = 0.5 * E||score_p - score_q||^2,
* empirical drift estimates of s over transition-pair streams.

Conventions: D_F carries the 1/2 factor so that the drift identity
E_p[s] = -D_F(p||q) holds exactly; all math is double precision. Estimators
return a mean together with its Monte-Carlo standard error, a
``MonteCarloEstimate``, whose ``from_spent`` is the package's one mean and
standard-error arithmetic (``np.mean``'s and ``np.std``'s bits). Whether a pair
stream is stationary is the caller's concern (see ``markov.simulate_path``
for burn-in handling).

Memory: the batch estimators (``hyvarinen_scores`` and therefore
``score_differences`` and ``estimate_drift``, and
``estimate_fisher_divergence``) read a stream in cache-sized row blocks of 256 KiB per
(rows, d) float64 array (``_BLOCK_BYTES``) and write each block into one
preallocated (n,) output. Beyond its input a call holds that output and the
few block-sized temporaries it and a field build; a field's own batch
methods see one block at a time. ``stream_score_differences`` scores each
block of a trajectory as it arrives and keeps one state of it. A field's
per-pair results are a function of the field and the pair, whatever else
shares the call (``scorenet._STACK_BYTES`` says why for network fields,
whose passes also take a block in chunks of that many bytes per stack), so
every blocking gives the same bits.

Fields are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import math
import sys
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
    "stream_score_differences",
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
    def score_and_divergence_batch(self, Y: np.ndarray, X: np.ndarray):
        """(``score_batch``, the trace of its Jacobian in y per row; shape (n,)), from one pass."""

    def score(self, y, x) -> np.ndarray:
        """Score vector at one pair (y, x); shape (d,)."""
        y, x = as_state(y, self.dim), as_state(x, self.dim)
        return self.score_batch(y[None, :], x[None, :])[0]

    def divergence(self, y, x) -> float:
        """Divergence at one pair (y, x)."""
        y, x = as_state(y, self.dim), as_state(x, self.dim)
        return float(self.score_and_divergence_batch(y[None, :], x[None, :])[1][0])


class GaussianScoreField(ScoreField):
    """Exact score of a conditional Gaussian N(mean_fn(x), sigma^2 I).

    score(y, x) = -(y - mean_fn(x)) / sigma^2 and the divergence is the
    constant -d / sigma^2. ``mean_fn`` must map (n, d) -> (n, d)
    (elementwise maps qualify automatically).
    """

    def __init__(self, mean_fn, sigma: float, dim: int):
        # the score divides by sigma^2: a square that underflows or overflows has no score
        if not (sigma > 0 and sys.float_info.min <= sigma * sigma < math.inf):
            raise ValueError(f"sigma must be positive with a normal float square, got {sigma!r}")
        self.mean_fn = mean_fn
        self.sigma = float(sigma)
        self.dim = int(dim)

    def score_batch(self, Y, X):
        s = np.subtract(Y, self.mean_fn(X))
        # -(Y - m) / sigma^2 as (Y - m) / -sigma^2: the same IEEE quotient, zero signs included
        s /= -self.sigma**2
        return s

    def score_and_divergence_batch(self, Y, X):
        return self.score_batch(Y, X), np.full(Y.shape[0], -self.dim / self.sigma**2)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean plus its standard error (sample std / sqrt(n))."""

    mean: float
    std_error: float
    count: int

    @classmethod
    def from_values(cls, values) -> "MonteCarloEstimate":
        """The estimate over ``values``, from one float64 copy (as much memory as ``np.std`` took)."""
        return cls.from_spent(np.array(values, dtype=np.float64).reshape(-1))

    @classmethod
    def from_spent(cls, values: np.ndarray) -> "MonteCarloEstimate":
        """``from_values`` of a 1-D float64 array its caller gives up: the deviations are squared in it.

        These are ``np.mean``'s and ``np.std(ddof=1)``'s own operations in
        their order, so the mean and standard error keep their bits, made
        without their (n,) deviation array.
        """
        n = values.size
        if n < 2:
            return cls(mean=float(values[0]) if n else math.nan, std_error=0.0, count=n)
        mean = np.add.reduce(values) / n
        np.subtract(values, mean, out=values)
        np.multiply(values, values, out=values)
        se = float(np.sqrt(np.add.reduce(values) / (n - 1)) / np.sqrt(n))
        return cls(mean=float(mean), std_error=se, count=n)

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
    with np.errstate(over="ignore"):
        h = 0.5 * float(s @ s) + div
    if not math.isfinite(h):
        raise NumericsError("Hyvarinen score overflows from finite terms")
    return h


# Bytes in one (rows, d) float64 array of the score stage: blocks of
# max(1, _BLOCK_BYTES // (8 d)) rows, 3,276 at d=10 and 528 at d=62, so a
# row block's temporaries stay in cache. A field's per-pair results do not
# depend on the block (see scorenet._STACK_BYTES for network fields), so the
# block size sets memory and speed only (README, "Score stage memory", has
# the budgets measured from 64 KiB to 1 MiB).
_BLOCK_BYTES = 1 << 18


def _block_rows(d: int) -> int:
    """Rows per block of the score stage at dimension ``d``: ``_BLOCK_BYTES`` per (rows, d) array."""
    return max(1, _BLOCK_BYTES // (8 * d))


def _row_blocks(batch: PairBatch):
    """Slices covering the rows of ``batch``, ``_block_rows`` at a time."""
    rows = _block_rows(batch.dim)
    return (slice(start, start + rows) for start in range(0, len(batch), rows))


def _hyvarinen_into(field: ScoreField, Y, X, h) -> None:
    """The Hyvarinen scores of the rows (Y, X) into ``h``, from one ``score_and_divergence_batch`` call."""
    if Y.shape[1] != field.dim:
        raise ValueError(f"pair dimension {Y.shape[1]} does not match field dimension {field.dim}")
    s, div = field.score_and_divergence_batch(Y, X)
    np.einsum("ij,ij->i", s, s, out=h)
    h *= 0.5
    h += div
    # a non-finite term makes its row of h non-finite, so the terms are
    # checked only when h is
    if not np.isfinite(h).all():
        if not np.isfinite(s).all():
            raise NumericsError("non-finite score term in Hyvarinen score")
        if not np.isfinite(div).all():
            raise NumericsError("non-finite divergence term in Hyvarinen score")
        raise NumericsError("Hyvarinen score overflows from finite terms")


def hyvarinen_scores(field: ScoreField, pairs) -> np.ndarray:
    """Vectorized Hyvarinen scores over a pair stream; shape (n,).

    The field's ``score_and_divergence_batch`` is called once per row block
    of ``_BLOCK_BYTES``, so memory does not grow with the stream.
    """
    batch = PairBatch.coerce(pairs)
    out = np.empty(len(batch))
    for block in _row_blocks(batch):
        _hyvarinen_into(field, batch.x_next[block], batch.x_prev[block], out[block])
    return out


def score_difference(field_p: ScoreField, field_q: ScoreField, pair) -> float:
    """S_H(pair; p) - S_H(pair; q); negative drift under p, positive under q."""
    return hyvarinen_score(field_p, pair) - hyvarinen_score(field_q, pair)


def _differences_into(field_p: ScoreField, field_q: ScoreField, batch: PairBatch, out) -> None:
    """S_H(.; p) - S_H(.; q) of ``batch`` into ``out``, one row block at a time.

    S_H(.; q) of a row block is the one temporary beyond the fields' own.
    """
    for block in _row_blocks(batch):
        Y, X, h = batch.x_next[block], batch.x_prev[block], out[block]
        _hyvarinen_into(field_p, Y, X, h)
        h_q = np.empty(len(h))
        _hyvarinen_into(field_q, Y, X, h_q)
        h -= h_q


def score_differences(field_p: ScoreField, field_q: ScoreField, pairs) -> np.ndarray:
    """S_H(.; p) - S_H(.; q) over a pair stream; shape (n,)."""
    batch = PairBatch.coerce(pairs)
    out = np.empty(len(batch))
    _differences_into(field_p, field_q, batch, out)
    return out


def stream_score_differences(field_p: ScoreField, field_q: ScoreField, blocks, n_states: int) -> np.ndarray:
    """``score_differences`` over the consecutive pairs of ``n_states`` states that arrive in blocks.

    ``blocks`` yields consecutive (rows, d) pieces of the trajectory, such as
    ``markov.path_blocks``; each is scored as it arrives, in row blocks, into
    one (n_states - 1,) output and is not kept. The call keeps one state, the
    last of the block before, for the pair that crosses into the next block.
    Per-pair results do not depend on the call, so the increments are bitwise
    those of one whole-trajectory call.
    """
    if n_states < 2:
        raise ValueError("need a (n >= 2, d) array of states")
    out = np.empty(n_states - 1)
    end = 0  # states received
    for block in blocks:
        if not len(block):
            continue
        start, end = end, end + len(block)
        if end > n_states:
            raise ValueError(f"blocks hold more than {n_states} states")
        if start:
            _differences_into(field_p, field_q, PairBatch(last, block[:1]), out[start - 1 : start])
        _differences_into(field_p, field_q, PairBatch(block[:-1], block[1:]), out[start : end - 1])
        last = block[-1:].copy()  # a copy, so that the block can go
        del block
    if end != n_states:
        raise ValueError(f"blocks hold {end} states, expected {n_states}")
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
