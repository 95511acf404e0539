"""Fully-connected conditional score network trained by score matching.

The network psi(y, x; theta) maps the concatenated pair (y, x) in R^{2d} to a
score estimate in R^d through SiLU hidden layers and a linear output. It is
fit by minimizing the sample average of

    sum_i [ 0.5 * psi_i(y, x)^2 + d(psi_i)/dy_i ]

over observed transitions (x, y), the integration-by-parts surrogate of the
squared score-matching error. At the minimizer the objective equals
-0.5 * E||grad_y log p(y|x)||^2.

Everything here is plain numpy in double precision:

* the divergence sum_i d(psi_i)/dy_i is exact, computed with d forward-mode
  tangent passes seeded with the y-direction unit vectors (d <= ~100
  everywhere this package is used, so exactness is affordable);
* parameter gradients are exact as well, backpropagating through both the
  primal pass and the tangent passes;
* the hot path evaluates one sigmoid per hidden layer and derives silu,
  silu' and silu'' from it; keeps the two pair-independent tangent
  quantities (the layer-0 tangent and the output cotangent) as (d, h)
  arrays that broadcast; reads only the diagonal of the output tangent, as
  one GEMV; and writes the (B, d, h) tangent stacks into buffers that one
  ``train`` or ``divergence_batch`` call reuses for all its minibatches or
  chunks and drops when it returns;
* one byte budget, ``_STACK_BYTES`` (1 MiB), sizes every array of a pass
  over many pairs: ``forward_batch`` runs its rows in chunks whose
  (rows, width) activations fit it, and the tangent passes of
  ``divergence_batch``, ``surrogate_loss`` and ``loss_gradient`` in chunks
  whose (rows, d, width) stacks fit it, so memory does not grow with the
  number of pairs;
* optimization is deterministic given the config seed (init and shuffling
  use separate PCG64 streams spawned from it).

Optionally a model carries per-dimension standardization statistics
(mean/scale of the raw state vectors, computed from the training data). Such
a model standardizes inputs internally and rescales outputs so that
``forward_batch`` and ``divergence_batch`` always speak raw coordinates;
training happens in standardized space, where score magnitudes are
comparable across dimensions.

Model files: magic ``SCUSUMNET``, little-endian uint32 version and header
length, a JSON header (architecture, activation, standardization flag),
then the standardization vectors (if any) and the parameters in layer order
(W1, b1, W2, b2, ...) as little-endian float64. Loading validates shapes and
finiteness.
"""

from __future__ import annotations

import io
import json
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .exceptions import ModelFileError, NumericsError, TrainingError
from .fields import PairBatch, ScoreField, hyvarinen_scores

__all__ = [
    "MlpArchitecture",
    "MlpParameters",
    "MlpGradients",
    "TrainConfig",
    "AccuracyReport",
    "init_params",
    "forward_batch",
    "divergence_batch",
    "surrogate_loss",
    "loss_gradient",
    "train",
    "evaluate_accuracy",
    "as_score_field",
    "save_model",
    "load_model",
]

_MAGIC = b"SCUSUMNET"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer sizes of the score network.

    ``input_dim`` must equal ``2 * output_dim`` (the conditional-pair
    encoding). ``hidden_widths`` may be empty, in which case the network
    degenerates to a single linear map -- useful for closed-form checks.
    """

    input_dim: int
    hidden_widths: tuple[int, ...]
    output_dim: int
    activation: str = "silu"

    def __post_init__(self):
        widths = tuple(self.hidden_widths)
        if not all(isinstance(w, numbers.Integral) and not isinstance(w, bool) for w in widths):
            raise ValueError(f"hidden widths must be integers, got {list(widths)}")
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in widths))
        if self.output_dim < 1:
            raise ValueError("output_dim must be >= 1")
        if self.input_dim != 2 * self.output_dim:
            raise ValueError("input_dim must equal 2 * output_dim")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden widths must be positive")
        if self.activation != "silu":
            raise ValueError("only the silu activation is supported")

    @property
    def layer_sizes(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_widths, self.output_dim]
        return list(zip(dims[:-1], dims[1:]))


class MlpParameters:
    """Weights/biases of one network, plus optional standardization stats.

    Weights are stored (fan_in, fan_out); biases are vectors. When
    ``state_mean``/``state_scale`` are set the model consumes and produces
    raw coordinates, standardizing internally.
    """

    def __init__(self, arch: MlpArchitecture, weights, biases,
                 state_mean=None, state_scale=None):
        self.arch = arch
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        expected = arch.layer_sizes
        if len(self.weights) != len(expected) or len(self.biases) != len(expected):
            raise ValueError("parameter count does not match architecture")
        for k, ((fin, fout), w, b) in enumerate(zip(expected, self.weights, self.biases)):
            if w.shape != (fin, fout):
                raise ValueError(f"layer {k} weight shape {w.shape}, expected {(fin, fout)}")
            if b.shape != (fout,):
                raise ValueError(f"layer {k} bias shape {b.shape}, expected {(fout,)}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {k} contains non-finite parameters")
        if (state_mean is None) != (state_scale is None):
            raise ValueError("state_mean and state_scale must be given together")
        if state_mean is not None:
            state_mean = np.asarray(state_mean, dtype=np.float64)
            state_scale = np.asarray(state_scale, dtype=np.float64)
            d = arch.output_dim
            if state_mean.shape != (d,) or state_scale.shape != (d,):
                raise ValueError("standardization vectors must have shape (output_dim,)")
            if np.any(state_scale <= 0):
                raise ValueError("standardization scales must be positive")
        self.state_mean = state_mean
        self.state_scale = state_scale

    @property
    def standardized(self) -> bool:
        return self.state_mean is not None

    def copy(self) -> "MlpParameters":
        return MlpParameters(
            self.arch,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            None if self.state_mean is None else self.state_mean.copy(),
            None if self.state_scale is None else self.state_scale.copy(),
        )


@dataclass
class MlpGradients:
    """Gradient of the surrogate loss, shaped like the parameters."""

    weights: list
    biases: list


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 128
    epochs: int = 20
    seed: int = 0
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    shuffle: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and nonnegative")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError("eps must be finite and positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")


@dataclass(frozen=True)
class AccuracyReport:
    """Score-recovery accuracy against an oracle field.

    ``rel_error = mse / var_scale`` with ``var_scale`` the mean squared norm
    of the oracle scores.
    """

    mse: float
    var_scale: float
    rel_error: float


def init_params(arch: MlpArchitecture, seed) -> MlpParameters:
    """Fan-in scaled uniform init: W ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)), b = 0.

    Per-entry weight variance is therefore 1 / (3 * fan_in).
    """
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fin, fout in arch.layer_sizes:
        bound = 1.0 / np.sqrt(fin)
        weights.append(rng.uniform(-bound, bound, size=(fin, fout)))
        biases.append(np.zeros(fout))
    return MlpParameters(arch, weights, biases)


# ---------------------------------------------------------------------------
# activation
# ---------------------------------------------------------------------------

def _sigmoid(z):
    # 0.5 * (1 + tanh(z / 2)) in place on one new array; finite for every z
    g = np.multiply(z, 0.5)
    np.tanh(g, out=g)
    g += 1.0
    g *= 0.5
    return g


def silu(z):
    return z * _sigmoid(z)


def _silu_parts(z, want_d2: bool):
    """silu, silu' and (optionally) silu'' of z, all from one sigmoid g.

    silu = z g, silu' = g + z g(1-g), silu'' = g(1-g) (2 + z (1-2g)).
    """
    g = _sigmoid(z)
    gp = 1.0 - g
    gp *= g
    d1 = z * gp
    d1 += g
    d2 = None
    if want_d2:
        d2 = g * -2.0
        d2 += 1.0
        d2 *= z
        d2 += 2.0
        d2 *= gp
    g *= z
    return g, d1, d2


# ---------------------------------------------------------------------------
# fused primal + tangent pass and its exact backward pass
#
# a0:    (B, 2d) network inputs (already standardized when applicable)
# inv_s: (d,) output/tangent scaling (ones when not standardized)
#
# Direction i of the d tangent passes is seeded with inv_s[i] * e_i on the y
# half of the input. Hidden layer l maps the tangent t_{l-1} to
# p_l = t_{l-1} @ W_l and t_l = p_l * silu'(z_l), all (B, d, h_l) stacks, and
# the divergence of the raw-coordinate model only needs the diagonal of the
# output tangent:
#
#     sum_i inv_s[i] (t_last @ W_out)[b, i, i]
#         = t_last[b].ravel() @ (W_out.T * inv_s[:, None]).ravel(),
#
# one GEMV over the batch. Two tangent quantities do not depend on the pair
# and stay (d, h) arrays that broadcast: p_0 = inv_s[:, None] * W_0[:d], and
# the cotangent of t_last, W_out.T * inv_s[:, None] / B. p_0 and the GEMV
# vector are formed once per call (_shared_tangents), so divergence_batch
# does not repeat them per chunk; it also skips the output layer's GEMM,
# whose psi it does not read.
# ---------------------------------------------------------------------------

class _TangentStacks:
    """Float64 (B, d, width) buffers for the tangent passes of one call.

    One ``train``, ``divergence_batch`` or loss call makes them and reuses
    them for each of its minibatches or chunks; a slot's buffer is allocated
    on first use, and a batch of B <= rows pairs uses its leading part. They
    are dropped with the call. ``for_pairs`` sizes them for the chunks of an
    n-pair call: at most ``_STACK_BYTES`` per stack, 16 rows at d=62 and
    width 128.

    With L hidden layers and ``memory`` (gradients wanted), slot l holds
    t_l, slot L+l-1 holds p_l (l >= 1) and slot 2L-1 is backward scratch.
    Without it p_l and t_l share slot l % 2, so at most two stacks exist.
    """

    def __init__(self, arch: MlpArchitecture, rows: int, memory: bool):
        self.memory = memory
        self.rows = rows
        self._d = arch.output_dim
        self._size = rows * arch.output_dim * max(arch.hidden_widths, default=0)
        self._flat = {}

    @classmethod
    def for_pairs(cls, arch: MlpArchitecture, n: int, memory: bool) -> "_TangentStacks":
        """Stacks for an n-pair call taken ``rows`` pairs at a time."""
        row_bytes = arch.output_dim * max(arch.hidden_widths, default=1) * 8
        return cls(arch, max(1, min(n, _STACK_BYTES // row_bytes)), memory)

    def __call__(self, slot: int, batch: int, width: int) -> np.ndarray:
        if slot not in self._flat:
            self._flat[slot] = np.empty(self._size)
        return self._flat[slot][: batch * self._d * width].reshape(batch, self._d, width)


def _shared_tangents(params: MlpParameters, inv_s):
    """(p_0, v): the layer-0 tangent and the divergence's GEMV vector, the same for every pair."""
    p0 = inv_s[:, None] * params.weights[0][: params.arch.output_dim]
    v = (params.weights[-1].T * inv_s[:, None]).ravel()
    return p0, v


def _tangent_pass(params: MlpParameters, a0, inv_s, p0, stacks: _TangentStacks, want_psi=True):
    """Primal pass plus the d tangent passes over one batch.

    ``p0`` is the layer-0 tangent of ``_shared_tangents``. Returns psi (None
    without ``want_psi``: the output layer's GEMM is skipped), the tangent of
    the output layer's input (the shared (d, 2d) input tangent when there is
    no hidden layer) and, with ``stacks.memory``, the per-layer arrays the
    backward pass reads.
    """
    B = a0.shape[0]
    d = params.arch.output_dim
    n_hidden = len(params.arch.hidden_widths)
    keep = stacks.memory
    acts, d1s, d2s, pres, tangents = [a0], [], [], [], []
    a = a0
    t = None
    for l in range(n_hidden):
        w = params.weights[l]
        h = w.shape[1]
        z = a @ w
        z += params.biases[l]
        a, d1, d2 = _silu_parts(z, want_d2=keep)
        if t is None:
            p = p0
        else:
            p = stacks(n_hidden + l - 1 if keep else l % 2, B, h)
            np.matmul(t.reshape(B * d, -1), w, out=p.reshape(B * d, h))
        t = np.multiply(p, d1[:, None, :], out=stacks(l if keep else l % 2, B, h))
        if keep:
            acts.append(a)
            d1s.append(d1)
            d2s.append(d2)
            pres.append(p)
            tangents.append(t)
    psi = None
    if want_psi:
        psi = a @ params.weights[-1]
        psi += params.biases[-1]
    if t is None:
        t = np.zeros((d, params.arch.input_dim))
        t[np.arange(d), np.arange(d)] = inv_s
    return psi, t, (acts, d1s, d2s, pres, tangents)


def _divergence(t, v):
    # (B,) from a (B, d, h) tangent stack, a scalar from a shared (d, h) one;
    # v is the GEMV vector of _shared_tangents
    return t.reshape(*t.shape[:-2], -1) @ v


def _net_inputs(params: MlpParameters, Y, X):
    if params.standardized:
        Y = (Y - params.state_mean) / params.state_scale
        X = (X - params.state_mean) / params.state_scale
    return np.concatenate([Y, X], axis=1)


def _inv_s(params: MlpParameters):
    if params.standardized:
        return 1.0 / params.state_scale
    return np.ones(params.arch.output_dim)


# Bytes in one float64 array of a network pass, the one budget every pass over
# many pairs sizes its chunks from:
#
# * forward_batch takes max(1, _STACK_BYTES // (8 * max(2d, widths))) rows
#   at a time, so an input or (rows, width) activation stays within it, 1024
#   rows at width 128;
# * divergence_batch, surrogate_loss and loss_gradient take
#   max(1, _STACK_BYTES // (8 * d * max width)) rows at a time for their
#   (rows, d, width) tangent stacks, 102 at d=10 and 16 at d=62 for width
#   128. A divergence or loss chunk holds two stacks, a gradient chunk 2L for
#   L hidden layers.
#
# A stack stays in cache while the d tangent passes stream it, and memory
# does not grow with the pairs. One divergence_batch call, 128x3 network,
# median of 5 alternating fresh processes, on 2 vCPUs with numpy 2.4.6 and
# OpenBLAS (about +-10% run to run):
#
#     d    pairs   ms at 4 / 2 / 1 MiB    max RSS at 4 / 2 / 1 MiB, MB
#     10   20000   395 / 412 / 401        54.8 / 46.8 / 43.1
#     31    4096   208 / 211 / 228        51.2 / 44.8 / 41.6
#     62    4096   422 / 407 / 410        53.0 / 46.7 / 43.4
#
# The rows move results in the last bits only (the GEMM and GEMV kernels
# treat tail rows differently): chunkings agree to 1e-12 relative, not bit
# for bit.
_STACK_BYTES = 1 << 20


def _pair_arrays(params: MlpParameters, Y, X):
    """(n, d) float64 views of Y and X; both must have d columns and the same rows."""
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    d = params.arch.output_dim
    if Y.shape[1] != d or X.shape[1] != d:
        raise ValueError(f"inputs must have dimension {d}")
    if Y.shape[0] != X.shape[0]:
        raise ValueError(f"Y has {Y.shape[0]} rows but X has {X.shape[0]}")
    return Y, X


def forward_batch(params: MlpParameters, Y, X) -> np.ndarray:
    """Network outputs for (n, d) batches of y and x; raw coordinates.

    Rows go through the network in chunks of ``_STACK_BYTES`` per (rows,
    width) activation and land in one (n, d) output.
    """
    Y, X = _pair_arrays(params, Y, X)
    arch = params.arch
    rows = max(1, _STACK_BYTES // (8 * max((arch.input_dim, *arch.hidden_widths))))
    inv_s = _inv_s(params)
    out = np.empty(Y.shape)
    for start in range(0, Y.shape[0], rows):
        block = slice(start, start + rows)
        a = _net_inputs(params, Y[block], X[block])
        for w, b in zip(params.weights[:-1], params.biases[:-1]):
            a = silu(a @ w + b)
        psi = np.matmul(a, params.weights[-1], out=out[block])
        psi += params.biases[-1]
        psi *= inv_s
    return out


def divergence_batch(params: MlpParameters, Y, X) -> np.ndarray:
    """Exact sum_i d(psi_i)/dy_i per row, via d tangent passes."""
    Y, X = _pair_arrays(params, Y, X)
    inv_s = _inv_s(params)
    n = Y.shape[0]
    stacks = _TangentStacks.for_pairs(params.arch, n, memory=False)
    p0, v = _shared_tangents(params, inv_s)
    out = np.empty(n)
    for start in range(0, n, stacks.rows):
        block = slice(start, start + stacks.rows)
        a0 = _net_inputs(params, Y[block], X[block])
        _, t, _ = _tangent_pass(params, a0, inv_s, p0, stacks, want_psi=False)
        out[block] = _divergence(t, v)
    return out


def surrogate_loss(model, pairs) -> float:
    """Mean of sum_i [0.5 psi_i^2 + d(psi_i)/dy_i] over a pair batch.

    ``model`` may be MlpParameters or any ScoreField (a fixed field can be
    plugged in to evaluate the objective it would achieve).
    """
    batch = PairBatch.coerce(pairs)
    if len(batch) == 0:
        raise ValueError("empty batch")
    if isinstance(model, ScoreField):
        return float(np.mean(hyvarinen_scores(model, batch)))
    loss, _ = _chunked_loss_and_grads(model, batch, want_grads=False)
    return loss


def loss_gradient(model: MlpParameters, pairs) -> MlpGradients:
    """Exact gradient of ``surrogate_loss`` in every weight and bias."""
    batch = PairBatch.coerce(pairs)
    if len(batch) == 0:
        raise ValueError("empty batch")
    _, grads = _chunked_loss_and_grads(model, batch, want_grads=True)
    return grads


def _chunked_loss_and_grads(params: MlpParameters, batch: PairBatch, want_grads: bool):
    """``_loss_and_grads`` over chunks sized by ``_TangentStacks.for_pairs``, weighted by size.

    The chunks share one set of tangent stacks, so memory stays that of one
    chunk however many pairs there are.
    """
    n = len(batch)
    stacks = _TangentStacks.for_pairs(params.arch, n, memory=want_grads)
    loss, grads = 0.0, None
    for start in range(0, n, stacks.rows):
        stop = min(start + stacks.rows, n)
        part_loss, part = _loss_and_grads(
            params, batch.x_next[start:stop], batch.x_prev[start:stop], want_grads, stacks
        )
        weight = (stop - start) / n
        loss += weight * part_loss
        if part is None:
            continue
        if grads is None:
            grads = MlpGradients([weight * g for g in part.weights],
                                 [weight * g for g in part.biases])
        else:
            for acc, g in zip(grads.weights + grads.biases, part.weights + part.biases):
                acc += weight * g
    return loss, grads


def _loss_and_grads(params: MlpParameters, Y, X, want_grads: bool, stacks: _TangentStacks):
    """Surrogate loss and (optionally) its exact parameter gradient.

    Backpropagates through the primal pass and through all d tangent passes;
    see the layer-local rules inline. Gradients are averaged over the batch.
    ``stacks`` holds the tangent buffers, which the caller reuses for all
    its minibatches or chunks.
    """
    B = Y.shape[0]
    a0 = _net_inputs(params, Y, X)
    inv_s = _inv_s(params)
    p0, v = _shared_tangents(params, inv_s)
    psi, t, (acts, d1s, d2s, pres, tangents) = _tangent_pass(params, a0, inv_s, p0, stacks)

    psi_scaled = psi * inv_s
    loss_terms = 0.5 * np.einsum("bj,bj->b", psi_scaled, psi_scaled) + _divergence(t, v)
    loss = float(np.mean(loss_terms))

    if not want_grads:
        if not np.isfinite(loss):
            raise NumericsError("non-finite surrogate loss")
        return loss, None

    n_hidden = len(params.arch.hidden_widths)
    d = params.arch.output_dim
    g_w = [None] * (n_hidden + 1)
    g_b = [None] * (n_hidden + 1)

    # output layer: psi = a @ W + b; the divergence reads t @ W, whose
    # cotangent is the same (d, h) for every pair
    w_out = params.weights[-1]
    d_psi = psi_scaled * inv_s / B
    d_t = w_out.T * inv_s[:, None] / B
    t_mean = t.mean(axis=0) if t.ndim == 3 else t
    g_w[-1] = acts[-1].T @ d_psi + (t_mean * inv_s[:, None]).T
    g_b[-1] = d_psi.sum(axis=0)
    d_a = d_psi @ w_out.T

    # hidden layers, last to first:
    #   z = a_prev @ W + b; a = silu(z); p = t_prev @ W; t = p * silu'(z)
    for l in range(n_hidden - 1, -1, -1):
        w, d1, d2, p = params.weights[l], d1s[l], d2s[l], pres[l]
        h = w.shape[1]
        d_z = d_a * d1
        d_z += np.einsum("...ih,...ih->...h", d_t, p) * d2
        g_b[l] = d_z.sum(axis=0)
        g_w[l] = acts[l].T @ d_z
        if l == 0:
            # t_prev is the input tangent, inv_s[i] on input i < d and 0
            # elsewhere, so only the batch sum of d_p = d_t * d1 is needed
            d_t = np.broadcast_to(d_t, (B, d, h))
            g_w[0][:d] += inv_s[:, None] * np.einsum("bih,bh->ih", d_t, d1)
        else:
            d_p = np.multiply(d_t, d1[:, None, :], out=stacks(2 * n_hidden - 1, B, h))
            t_prev = tangents[l - 1]
            g_w[l] += t_prev.reshape(B * d, -1).T @ d_p.reshape(B * d, h)
            d_a = d_z @ w.T
            # t_prev is read no more; its buffer takes its cotangent
            np.matmul(d_p.reshape(B * d, h), w.T, out=t_prev.reshape(B * d, -1))
            d_t = t_prev

    for k, (gw, gb) in enumerate(zip(g_w, g_b)):
        if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
            raise NumericsError(f"non-finite gradient in layer {k}")
    return loss, MlpGradients(weights=g_w, biases=g_b)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _compute_standardization(pairs: PairBatch):
    states = np.concatenate([pairs.x_prev, pairs.x_next], axis=0)
    mean = states.mean(axis=0)
    scale = states.std(axis=0)
    scale[scale == 0.0] = 1.0  # keep degenerate dimensions, unit divisor
    return mean, scale


def train(
    arch: MlpArchitecture,
    dataset,
    config: TrainConfig,
    standardize: bool = False,
    on_epoch=None,
) -> tuple[MlpParameters, list[float]]:
    """Minibatch optimization of the surrogate loss.

    Returns the final parameters and the per-epoch mean training loss.
    Reproducible from ``config.seed``; raises TrainingError (with the epoch
    index) if the loss stops being finite. ``on_epoch(epoch, loss, seconds)``,
    if given, is called after each epoch with its mean loss and wall time.
    """
    batch = PairBatch.coerce(dataset)
    n = len(batch)
    if n < config.batch_size:
        raise ValueError(f"dataset size {n} smaller than batch_size {config.batch_size}")

    Y, X = batch.x_next, batch.x_prev
    mean = scale = None
    if standardize:
        mean, scale = _compute_standardization(batch)
        Y = (Y - mean) / scale
        X = (X - mean) / scale

    ss_init, ss_shuffle = np.random.SeedSequence(config.seed).spawn(2)
    params = init_params(arch, ss_init)
    shuffle_rng = np.random.default_rng(ss_shuffle)

    use_adam = config.optimizer == "adam"
    if use_adam:
        m_w = [np.zeros_like(w) for w in params.weights]
        v_w = [np.zeros_like(w) for w in params.weights]
        m_b = [np.zeros_like(b) for b in params.biases]
        v_b = [np.zeros_like(b) for b in params.biases]
        step_count = 0

    stacks = _TangentStacks(arch, config.batch_size, memory=True)
    history = []
    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = shuffle_rng.permutation(n) if config.shuffle else np.arange(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            sel = order[start : start + config.batch_size]
            try:
                loss, grads = _loss_and_grads(params, Y[sel], X[sel], want_grads=True, stacks=stacks)
            except NumericsError as err:
                raise TrainingError(f"loss diverged at epoch {epoch}: {err}", epoch=epoch) from err
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged at epoch {epoch}", epoch=epoch)
            total += loss * sel.size
            if config.learning_rate == 0.0:
                continue
            if use_adam:
                step_count += 1
                c1 = 1.0 - config.beta1**step_count
                c2 = 1.0 - config.beta2**step_count
                for k in range(len(params.weights)):
                    for g, p, m_, v_ in (
                        (grads.weights[k], params.weights[k], m_w[k], v_w[k]),
                        (grads.biases[k], params.biases[k], m_b[k], v_b[k]),
                    ):
                        m_ *= config.beta1
                        m_ += (1 - config.beta1) * g
                        v_ *= config.beta2
                        v_ += (1 - config.beta2) * g * g
                        p -= config.learning_rate * (m_ / c1) / (np.sqrt(v_ / c2) + config.eps)
            else:
                for k in range(len(params.weights)):
                    params.weights[k] -= config.learning_rate * grads.weights[k]
                    params.biases[k] -= config.learning_rate * grads.biases[k]
        epoch_loss = total / n
        if not np.isfinite(epoch_loss):
            raise TrainingError(f"loss diverged at epoch {epoch}", epoch=epoch)
        history.append(epoch_loss)
        if on_epoch is not None:
            on_epoch(epoch, epoch_loss, time.perf_counter() - started)

    if standardize:
        params = MlpParameters(arch, params.weights, params.biases, mean, scale)
    return params, history


def evaluate_accuracy(model, oracle: ScoreField, eval_pairs) -> AccuracyReport:
    """MSE of the model scores against an oracle, normalized by score power."""
    batch = PairBatch.coerce(eval_pairs)
    if len(batch) == 0:
        raise ValueError("empty evaluation set")
    if isinstance(model, ScoreField):
        predicted = model.score_batch(batch.x_next, batch.x_prev)
    else:
        predicted = forward_batch(model, batch.x_next, batch.x_prev)
    truth = oracle.score_batch(batch.x_next, batch.x_prev)
    err = predicted - truth
    mse = float(np.mean(np.einsum("ij,ij->i", err, err)))
    var_scale = float(np.mean(np.einsum("ij,ij->i", truth, truth)))
    if var_scale == 0.0:
        raise ValueError("var_scale is zero; relative error undefined")
    return AccuracyReport(mse=mse, var_scale=var_scale, rel_error=mse / var_scale)


class MlpScoreField(ScoreField):
    """ScoreField adapter around trained parameters (frozen, thread-safe)."""

    def __init__(self, params: MlpParameters):
        self.params = params
        self.dim = params.arch.output_dim

    def score_batch(self, Y, X):
        return forward_batch(self.params, Y, X)

    def divergence_batch(self, Y, X):
        return divergence_batch(self.params, Y, X)


def as_score_field(params: MlpParameters) -> MlpScoreField:
    """Expose (forward_batch, divergence_batch) through the ScoreField capability."""
    return MlpScoreField(params)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_model(params: MlpParameters, path) -> None:
    header = {
        "format": "scusum score network",
        "input_dim": params.arch.input_dim,
        "hidden_widths": list(params.arch.hidden_widths),
        "output_dim": params.arch.output_dim,
        "activation": params.arch.activation,
        "standardized": params.standardized,
    }
    blob = json.dumps(header).encode("utf-8")
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(np.array(_FORMAT_VERSION, "<u4").tobytes())
    buf.write(np.array(len(blob), "<u4").tobytes())
    buf.write(blob)
    if params.standardized:
        buf.write(params.state_mean.astype("<f8").tobytes())
        buf.write(params.state_scale.astype("<f8").tobytes())
    for w, b in zip(params.weights, params.biases):
        buf.write(w.astype("<f8").tobytes())
        buf.write(b.astype("<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


# the header keys save_model writes, each with its JSON type
_HEADER_KEYS = {"format": str, "input_dim": int, "hidden_widths": list, "output_dim": int,
                "activation": str, "standardized": bool}


def load_model(path) -> MlpParameters:
    """The parameters saved in ``path``; a corrupt or truncated file raises ``ModelFileError``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(_MAGIC)] != _MAGIC:
        raise ModelFileError(path, "not a score-network model file")
    off = len(_MAGIC) + 8  # past the format version and the header length
    if len(data) < off:
        raise ModelFileError(path, "file ends inside the header")
    version, hlen = (int(v) for v in np.frombuffer(data, "<u4", count=2, offset=len(_MAGIC)))
    if version != _FORMAT_VERSION:
        raise ModelFileError(path, f"unsupported model format version {version}")
    if off + hlen > len(data):
        raise ModelFileError(path, f"header length {hlen} runs past the end of the file")
    try:
        header = json.loads(data[off : off + hlen].decode("utf-8"))
    except ValueError as err:  # UnicodeDecodeError or JSONDecodeError
        raise ModelFileError(path, f"header is not UTF-8 JSON: {err}") from None
    if not (isinstance(header, dict) and header.keys() == _HEADER_KEYS.keys()
            and all(type(header[k]) is t for k, t in _HEADER_KEYS.items())):
        raise ModelFileError(path, f"header does not hold the keys {sorted(_HEADER_KEYS)} "
                                   "with their types")
    off += hlen
    try:
        arch = MlpArchitecture(
            input_dim=header["input_dim"],
            hidden_widths=tuple(header["hidden_widths"]),
            output_dim=header["output_dim"],
            activation=header["activation"],
        )
    except ValueError as err:
        raise ModelFileError(path, f"header: {err}") from None

    def take(shape):
        nonlocal off
        count = math.prod(shape)
        if off + 8 * count > len(data):
            raise ModelFileError(path, "file ends inside the parameters")
        arr = np.frombuffer(data, "<f8", count=count, offset=off).reshape(shape).copy()
        off += count * 8
        return arr

    mean = scale = None
    if header["standardized"]:
        mean = take((arch.output_dim,))
        scale = take((arch.output_dim,))
    weights, biases = [], []
    for fin, fout in arch.layer_sizes:
        weights.append(take((fin, fout)))
        biases.append(take((fout,)))
    if off != len(data):
        raise ModelFileError(path, "trailing bytes after parameters")
    try:
        return MlpParameters(arch, weights, biases, mean, scale)
    except ValueError as err:  # non-finite parameters or scales
        raise ModelFileError(path, str(err)) from None
