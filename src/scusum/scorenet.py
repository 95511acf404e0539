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
  arrays that broadcast; and reads the outputs and only the diagonal of the
  output tangent, through one contraction of the last pre-activation
  tangent, from one pass (``_outputs``, which the loss shares);
* the (B, d, h) tangent stacks live in one pool of buffers that one call
  reuses for all its minibatches or chunks and drops when it returns. A
  divergence pass holds at most two stacks. A gradient pass keeps only the
  pre-activation tangents p_l, rebuilds each t_l = p_l * silu'(z_l) where
  the backward pass reads it (one multiply), writes each cotangent over the
  stack of the one before, and never forms the last hidden tangent, so it
  holds L stacks for L >= 2 hidden layers, 3 for a 128x3 network;
* one byte budget, ``_STACK_BYTES`` (1 MiB), sizes every array of a pass
  over many pairs, so memory grows neither with the number of pairs nor
  with ``batch_size``. The scoring passes run every GEMM at one row count
  per architecture (``_pass_rows``), so a pair's outputs and divergence do
  not depend on the other pairs of a call;
* training takes Adam steps with beta1 = 0.9, beta2 = 0.999 and eps = 1e-8
  over a fresh permutation of the pairs each epoch, and is deterministic
  given the config seed (init and shuffling use separate PCG64 streams
  spawned from it).

A network speaks raw coordinates only. ``train(..., standardize=True)``
fits it to pairs z-scored per dimension, where score magnitudes are
comparable across dimensions, and then folds the mean and scale into the
first and last layers (``_fold_standardization``), so the trained weights
take and give raw coordinates like any others.

Parameters, gradients and Adam's moments are each one float64 vector laid out
W1, b1, W2, b2, ... (``_layer_views``), with per-layer views into it. A model
file holds the magic ``SCUSUMNET``, little-endian uint32 version and header
length, a JSON header (architecture, activation), then the parameter vector
as little-endian float64; loading validates its length and finiteness.
"""

from __future__ import annotations

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
    "score_and_divergence_batch",
    "surrogate_loss",
    "loss_gradient",
    "train",
    "evaluate_accuracy",
    "as_score_field",
    "save_model",
    "load_model",
]

_MAGIC = b"SCUSUMNET"
_FORMAT_VERSION = 2  # 1 also stored standardization vectors
_ACTIVATION = "silu"  # the one activation; a model file names it in its header


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

    @property
    def layer_sizes(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_widths, self.output_dim]
        return list(zip(dims[:-1], dims[1:]))


class MlpParameters:
    """One network's parameters as one float64 vector, ``flat``, in model-file order,
    with per-layer views into it: ``weights`` (fan_in, fan_out) and ``biases``."""

    def __init__(self, arch: MlpArchitecture, weights, biases):
        expected = arch.layer_sizes
        if len(weights) != len(expected) or len(biases) != len(expected):
            raise ValueError("parameter count does not match architecture")
        for k, ((fin, fout), w, b) in enumerate(zip(expected, weights, biases)):
            if np.shape(w) != (fin, fout):
                raise ValueError(f"layer {k} weight shape {np.shape(w)}, expected {(fin, fout)}")
            if np.shape(b) != (fout,):
                raise ValueError(f"layer {k} bias shape {np.shape(b)}, expected {(fout,)}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {k} contains non-finite parameters")
        self.arch = arch
        self.flat = np.concatenate([np.ravel(a) for layer in zip(weights, biases) for a in layer],
                                   dtype=np.float64)
        self.weights, self.biases = _layer_views(arch, self.flat)


class MlpGradients:
    """Gradient of the surrogate loss: ``flat`` in the parameters' layout, with their views."""

    def __init__(self, arch: MlpArchitecture):
        self.flat = np.empty(_n_parameters(arch))
        self.weights, self.biases = _layer_views(arch, self.flat)


def _n_parameters(arch: MlpArchitecture) -> int:
    return sum((fin + 1) * fout for fin, fout in arch.layer_sizes)


def _layer_views(arch: MlpArchitecture, flat: np.ndarray):
    """(weights, biases): the layers' views into ``flat``, laid out W1, b1, W2, b2, ... in turn.

    The one parameter layout, of parameters, gradients, Adam's moments and model files.
    """
    weights, biases, start = [], [], 0
    for fin, fout in arch.layer_sizes:
        weights.append(flat[start : start + fin * fout].reshape(fin, fout))
        biases.append(flat[start + fin * fout : start + (fin + 1) * fout])
        start += (fin + 1) * fout
    return weights, biases


# Adam's decay rates and denominator offset, at the values of Kingma and Ba
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Adam at ``learning_rate`` over ``epochs`` fresh permutations of the pairs in
    ``batch_size`` minibatches; ``seed`` draws the initial weights and the orders."""

    learning_rate: float = 1e-3
    batch_size: int = 128
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


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
    # 0.5 * (1 + tanh(z / 2)) in one new array; finite for every z
    g = z * 0.5
    np.tanh(g, out=g)
    g += 1.0
    g *= 0.5
    return g


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
# a0: (B, 2d) network inputs, the pairs (y, x)
#
# Direction i of the d tangent passes is seeded with e_i on the y half of the
# input. Hidden layer l maps the tangent t_{l-1} to the pre-activation tangent
# p_l = t_{l-1} @ W_l and t_l = p_l * silu'(z_l), all (B, d, h_l) stacks, and
# the divergence only needs the diagonal of the output tangent:
#
#     sum_i (t_last @ W_out)[b, i, i]
#         = sum_h silu'(z_last)[b, h] q[b, h],
#     q[b, h] = sum_i p_last[b, i, h] V[i, h],  V = W_out.T,
#
# so neither score_and_divergence_batch nor the loss forms t_last: both take
# this contraction of p_last (_outputs), and the loss's backward pass reads
# p_last and q too. Two tangent quantities do not depend on the pair and stay
# (d, h) arrays that broadcast: p_0 = W_0[:d], and V, which over B is the
# cotangent of t_last. Both are formed once per call (_shared_tangents).
# ---------------------------------------------------------------------------

class _TangentStacks:
    """A pool of float64 (B, d, width) buffers for the tangent passes of one call.

    One ``train``, ``score_and_divergence_batch`` or ``loss_gradient`` call
    makes it and reuses its buffers for each of its minibatches or chunks;
    they are dropped with the call. ``take`` hands out the leading part of a
    free buffer, making one only when none is free, and ``give`` returns it;
    every buffer is free again when a pass starts (``reset``). ``for_pairs``
    sizes the buffers for n pairs split into the fewest equal chunks within
    ``_STACK_BYTES``: a 128-pair minibatch of a width-128 network runs as
    2 x 64 rows at d=10 and 8 x 16 at d=62.

    A divergence pass holds at most two stacks at once and a gradient pass L,
    for L >= 2 hidden layers (neither holds any for one hidden layer), so the
    pool makes no more buffers than that. Fresh ``np.empty`` stacks give the
    same bits but train slower (README, "Score-network hot path").
    """

    def __init__(self, arch: MlpArchitecture, rows: int):
        self.rows = rows
        self._d = arch.output_dim
        self._size = rows * arch.output_dim * max(arch.hidden_widths, default=0)
        self.buffers = []
        self._free = []

    @classmethod
    def for_pairs(cls, arch: MlpArchitecture, n: int) -> "_TangentStacks":
        """Stacks for n >= 1 pairs split into the fewest equal chunks within ``_STACK_BYTES``."""
        return cls(arch, _equal_chunk(n, _stack_rows(arch)))

    def reset(self) -> None:
        self._free = list(self.buffers)

    def take(self, batch: int, width: int) -> np.ndarray:
        if not self._free:
            self.buffers.append(np.empty(self._size))
            self._free.append(self.buffers[-1])
        return self._free.pop()[: batch * self._d * width].reshape(batch, self._d, width)

    def give(self, stack: np.ndarray) -> None:
        self._free.append(stack.base)


def _stack_rows(arch: MlpArchitecture) -> int:
    """Pairs whose (rows, d, width) tangent stack fits ``_STACK_BYTES``."""
    return max(1, _STACK_BYTES // (8 * arch.output_dim * max(arch.hidden_widths, default=1)))


def _pass_rows(arch: MlpArchitecture) -> int:
    """Rows of every chunk of a scoring pass: ``_stack_rows`` down to a multiple of 8, in 8..1024."""
    return min(1024, max(8, _stack_rows(arch) // 8 * 8))


def _equal_chunk(n: int, limit: int) -> int:
    """Rows per chunk when n >= 1 rows split into the fewest chunks of at most ``limit``.

    The chunks then differ in size by at most one: 128 rows within 102 are
    2 x 64, not 102 + 26.
    """
    return -(-n // -(-n // limit))


def _shared_tangents(params: MlpParameters):
    """(p_0, V): the layer-0 tangent and the divergence's (d, h) weights, the same for every pair."""
    p0 = params.weights[0][: params.arch.output_dim]
    # C order, so the contractions over V and V / B stream it along h
    return p0, np.ascontiguousarray(params.weights[-1].T)


def _times_d1(p, d1, out):
    """p * d1[:, None, :] into ``out``, for a (B, d, h) stack p or the shared (d, h) p_0.

    einsum's loop runs these products 20-45% faster than np.multiply's
    broadcasting loop at the chunk shapes of a training step, and differs
    from it only in giving +0.0 where the product is -0.0. ``out`` must not
    overlap ``p``: einsum makes no promise for an output that overlaps an
    input, so every pass makes its products into a fresh stack.
    """
    return np.einsum("bih,bh->bih" if p.ndim == 3 else "ih,bh->bih", p, d1, out=out)


def _tangent_pass(params: MlpParameters, a0, p0, stacks: _TangentStacks, keep: bool):
    """Primal pass plus the d tangent passes over one batch, up to the last hidden layer.

    ``p0`` is the layer-0 tangent of ``_shared_tangents``. Returns the last
    hidden activation, that layer's pre-activation tangent p_last and
    silu'(z_last), and with ``keep`` a pair for the backward pass: the
    ``(a_in, silu', silu'', p)`` of each hidden layer, and the tangent t that
    formed p_last (None for fewer than two hidden layers). Only p_1.. and t
    live in ``stacks``: p_0 is the shared (d, h) array, and each t_l is made
    in a fresh stack and given back once p_{l+1} is formed, except the last
    with ``keep``. Without ``keep`` p_l is given back as soon as t_l is made,
    so the pass holds at most two stacks, and the fourth result is None.
    Without hidden layers it returns a0, the shared (d, 2d) input tangent
    [I, 0] and None.
    """
    stacks.reset()
    B = a0.shape[0]
    d = params.arch.output_dim
    n_hidden = len(params.arch.hidden_widths)
    layers = []
    a, p, d1, t = a0, None, None, None
    for l in range(n_hidden):
        w = params.weights[l]
        h = w.shape[1]
        if l == 0:
            p = p0
        else:
            t = _times_d1(p, d1, stacks.take(B, p.shape[-1]))
            if not keep and l > 1:  # p_{l-1} is read no more; p_0 is shared and has no stack
                stacks.give(p)
            p = np.matmul(t.reshape(B * d, -1), w, out=stacks.take(B, h).reshape(B * d, h))
            p = p.reshape(B, d, h)
            if not keep or l < n_hidden - 1:  # the backward pass reads the last t first
                stacks.give(t)
        z = a @ w
        z += params.biases[l]
        a_next, d1, d2 = _silu_parts(z, want_d2=keep)
        if keep:
            layers.append((a, d1, d2, p))
        a = a_next
    if p is None:
        p = np.eye(d, params.arch.input_dim)
    return a, p, d1, (layers, t) if keep else None


def _outputs(params: MlpParameters, a, p, d1, V):
    """(psi, div, q) of one chunk from what ``_tangent_pass`` returned.

    psi = a @ W_out + b_out are the (B, d) outputs, div the (B,) divergence
    sum_h silu'(z_last) q and q = einsum("bih,ih->bh", p_last, V). ``p`` is
    the last pre-activation tangent, a (B, d, h) stack or the shared (d, h)
    p_0 of a one-hidden-layer network, and ``d1`` silu'(z_last). Without
    hidden layers (``d1`` None) ``p`` is the input tangent and the divergence
    of every pair the trace of W_out[:d]; q is then None.
    """
    psi = a @ params.weights[-1]
    psi += params.biases[-1]
    if d1 is None:
        return psi, np.full(len(psi), p.ravel() @ V.ravel()), None
    q = np.einsum("bih,ih->bh", np.broadcast_to(p, (len(d1), *p.shape[-2:])), V)
    return psi, np.einsum("bh,bh->b", q, d1), q


# Bytes in one float64 array of a network pass, the one budget every pass over
# many pairs sizes its chunks from:
#
# * forward_batch and score_and_divergence_batch run every chunk at R =
#   _pass_rows rows, 96 at d=10 and 16 at d=62 for width 128, padding the
#   last: OpenBLAS's GEMMs give a row other bits at another row count and,
#   at a count that is not a multiple of 8, at another place in the chunk,
#   so at one R per architecture, a multiple of 8, a network's outputs and
#   divergence for a pair are a function of the parameters and the pair
#   alone (pinned by tier-1 on OpenBLAS 0.3.31's x86-64 kernels). R stops at
#   1024 so that a call of a few pairs to a small network stays cheap. The
#   fused pass holds two stacks;
# * surrogate_loss reads its pairs through score_and_divergence_batch;
# * loss_gradient and each train minibatch split their pairs into the fewest
#   equal chunks of at most _stack_rows rows: a 128-pair minibatch runs as
#   2 x 64 rows at d=10 and 8 x 16 at d=62. The chunks move a gradient's
#   last bits, as any regrouped sum does. A gradient chunk holds L stacks
#   for L >= 2 hidden layers. The loss and gradient of one 128-pair
#   minibatch of a 128x3 network peak
#   (tracemalloc, stacks made fresh) at 3.6 MB at d=10 and 5.1 MB at d=62,
#   against 9.9 and 51.4 MB with 2L stacks sized by batch_size.
#
# A stack stays in cache while the d tangent passes stream it, and memory
# does not grow with the pairs. README ("Score-network hot path") has the
# time and resident memory of a divergence pass at budgets of 4, 2 and 1 MiB.
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


def _padded_inputs(arch: MlpArchitecture, Y, X):
    """Yield (start, stop, a0) for each R = ``_pass_rows(arch)`` rows of the pairs (Y, X).

    Every chunk reuses the one (R, 2d) input a0: pairs start:stop lead it and
    its other rows are zero, so every GEMM of a pass runs at R rows.
    """
    d, R = arch.output_dim, _pass_rows(arch)
    a0 = np.zeros((R, 2 * d))
    for start in range(0, Y.shape[0], R):
        stop = min(start + R, Y.shape[0])
        a0[: stop - start, :d] = Y[start:stop]
        a0[: stop - start, d:] = X[start:stop]
        a0[stop - start :] = 0.0
        yield start, stop, a0


def forward_batch(params: MlpParameters, Y, X) -> np.ndarray:
    """Network outputs for (n, d) batches of y and x.

    Rows go through the network in the padded chunks of ``_padded_inputs``,
    as in ``score_and_divergence_batch``, whose outputs these are bit for
    bit, and land in one (n, d) output. Each hidden layer adds its bias and
    applies SiLU in place, so a chunk holds at most three (R, width) arrays.
    """
    Y, X = _pair_arrays(params, Y, X)
    out = np.empty(Y.shape)
    for start, stop, a in _padded_inputs(params.arch, Y, X):
        for w, b in zip(params.weights[:-1], params.biases[:-1]):
            a = a @ w
            a += b
            a *= _sigmoid(a)  # silu: the products of _silu_parts
        psi = a @ params.weights[-1]
        psi += params.biases[-1]
        out[start:stop] = psi[: stop - start]
    return out


def score_and_divergence_batch(params: MlpParameters, Y, X):
    """(psi, div): (n, d) outputs and exact sum_i d(psi_i)/dy_i per row, from one tangent pass."""
    Y, X = _pair_arrays(params, Y, X)
    stacks = _TangentStacks(params.arch, _pass_rows(params.arch))
    p0, V = _shared_tangents(params)
    psi, div = np.empty(Y.shape), np.empty(Y.shape[0])
    for start, stop, a0 in _padded_inputs(params.arch, Y, X):
        a, p, d1, _ = _tangent_pass(params, a0, p0, stacks, keep=False)
        chunk_psi, chunk_div, _ = _outputs(params, a, p, d1, V)
        psi[start:stop] = chunk_psi[: stop - start]
        div[start:stop] = chunk_div[: stop - start]
    return psi, div


def surrogate_loss(params: MlpParameters, pairs) -> float:
    """Mean of sum_i [0.5 psi_i^2 + d(psi_i)/dy_i] over a pair batch: the mean Hyvarinen score."""
    batch = PairBatch.coerce(pairs)
    if len(batch) == 0:
        raise ValueError("empty batch")
    loss = float(np.mean(hyvarinen_scores(as_score_field(params), batch)))
    if not math.isfinite(loss):
        raise NumericsError("non-finite surrogate loss")
    return loss


def loss_gradient(params: MlpParameters, pairs) -> MlpGradients:
    """Exact gradient of ``surrogate_loss`` in every weight and bias."""
    batch = PairBatch.coerce(pairs)
    if len(batch) == 0:
        raise ValueError("empty batch")
    _, grads = _chunked_loss_and_grads(params, batch.x_next, batch.x_prev)
    return grads


def _chunked_loss_and_grads(params: MlpParameters, Y, X, stacks=None):
    """``_loss_and_grads`` over the fewest equal chunks of at most ``stacks.rows`` pairs, weighted by size.

    The chunks share one pool of tangent stacks, ``_TangentStacks.for_pairs``
    unless the caller passes its own (``train`` passes one for all its
    minibatches), so memory stays that of one chunk however many pairs
    there are.
    """
    n = Y.shape[0]
    if stacks is None:
        stacks = _TangentStacks.for_pairs(params.arch, n)
    rows = _equal_chunk(n, stacks.rows)
    loss, grads = 0.0, None
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        part_loss, part = _loss_and_grads(params, Y[start:stop], X[start:stop], stacks)
        weight = (stop - start) / n
        loss += weight * part_loss
        part.flat *= weight
        if grads is None:
            grads = part
        else:
            grads.flat += part.flat
    # checked once over the chunks: a non-finite chunk leaves its sum non-finite
    if not np.all(np.isfinite(grads.flat)):
        bad = [np.all(np.isfinite(w)) and np.all(np.isfinite(b))
               for w, b in zip(grads.weights, grads.biases)].index(False)
        raise NumericsError(f"non-finite gradient in layer {bad}")
    return loss, grads


def _loss_and_grads(params: MlpParameters, Y, X, stacks: _TangentStacks):
    """Surrogate loss and its exact parameter gradient, unchecked for finiteness.

    Backpropagates through the primal pass and through all d tangent passes;
    see the layer-local rules inline. Gradients are averaged over the batch.
    Every gradient is written into its view of one new ``MlpGradients``.
    ``stacks`` is the pool of tangent buffers, which the caller reuses for
    all its minibatches or chunks. The pass keeps the pre-activation tangents
    p_l and the last t, which formed p_last; the backward pass reads that t
    and rebuilds each earlier t_{l-1} = p_{l-1} * silu'(z_{l-1}) where it
    reads it, one multiply, and writes each cotangent d_p over d_t, so it
    holds L stacks for L >= 2 hidden layers.
    """
    B = Y.shape[0]
    d = params.arch.output_dim
    p0, V = _shared_tangents(params)
    a, p, d1, (layers, t_last) = _tangent_pass(params, np.concatenate([Y, X], axis=1), p0, stacks,
                                               keep=True)
    psi, div, q = _outputs(params, a, p, d1, V)
    loss_terms = 0.5 * np.einsum("bj,bj->b", psi, psi) + div
    loss = float(np.mean(loss_terms))

    n_hidden = len(layers)
    grads = MlpGradients(params.arch)
    g_w, g_b = grads.weights, grads.biases

    # output layer: psi = a @ W + b; the divergence reads t_last @ W, whose
    # cotangent d_t = V / B is the same (d, h) for every pair, and W's
    # gradient through it is the batch mean of t_last = p_last * silu'(z_last)
    d_psi = psi / B
    if d1 is None:
        t_mean = p
    else:
        t_mean = np.einsum("bih,bh->ih", np.broadcast_to(p, (B, *p.shape[-2:])), d1)
        t_mean /= B
    np.matmul(a.T, d_psi, out=g_w[-1])
    g_w[-1] += t_mean.T
    np.sum(d_psi, axis=0, out=g_b[-1])
    d_a = d_psi @ params.weights[-1].T
    d_t = V / B

    # hidden layers, last to first:
    #   z = a_prev @ W + b; a = silu(z); p = t_prev @ W; t = p * silu'(z)
    for l in range(n_hidden - 1, -1, -1):
        w = params.weights[l]
        h = w.shape[1]
        a_in, d1, d2, p = layers[l]
        # sum_i d_t * p per pair; q / B for the last layer, whose d_t is V / B
        d_tp = q / B if l == n_hidden - 1 else np.einsum("...ih,...ih->...h", d_t, p)
        d_z = d_a * d1
        d_z += d_tp * d2
        np.sum(d_z, axis=0, out=g_b[l])
        np.matmul(a_in.T, d_z, out=g_w[l])
        if l == 0:
            # t_prev is the input tangent, 1 on input i < d and 0 elsewhere,
            # so only the batch sum of d_p = d_t * d1 is needed
            d_t = np.broadcast_to(d_t, (B, d, h))
            g_w[0][:d] += np.einsum("bih,bh->ih", d_t, d1)
            break
        stacks.give(p)  # p_l is read no more
        # d_p over d_t's stack; the last layer's d_t is shared and gets one
        if d_t.ndim == 3:
            d_p = np.multiply(d_t, d1[:, None, :], out=d_t)
        else:
            d_p = _times_d1(d_t, d1, stacks.take(B, h))
        if l == n_hidden - 1:
            t_prev = t_last
        else:
            _, d1_prev, _, p_prev = layers[l - 1]
            t_prev = _times_d1(p_prev, d1_prev, stacks.take(B, p_prev.shape[-1]))
        g_w[l] += t_prev.reshape(B * d, -1).T @ d_p.reshape(B * d, h)
        d_a = d_z @ w.T
        # t_prev is read no more; its stack takes its cotangent
        np.matmul(d_p.reshape(B * d, h), w.T, out=t_prev.reshape(B * d, -1))
        d_t = t_prev
        stacks.give(d_p)
    return loss, grads


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _compute_standardization(pairs: PairBatch):
    states = np.concatenate([pairs.x_prev, pairs.x_next], axis=0)
    mean = states.mean(axis=0)
    scale = states.std(axis=0)
    scale[scale == 0.0] = 1.0  # keep degenerate dimensions, unit divisor
    return mean, scale


def _fold_standardization(params: MlpParameters, mean, scale) -> MlpParameters:
    """The raw-coordinate network psi(y, x) = params((y - m) / s, (x - m) / s) / s.

    The first layer takes the z-scoring (W0 / tile(s, 2)[:, None] and
    b0 - tile(m / s, 2) @ W0), the output layer the rescaling (W_out / s and
    b_out / s); the divergence in y is then the raw one as well.
    """
    weights, biases = list(params.weights), list(params.biases)
    biases[0] = biases[0] - np.tile(mean / scale, 2) @ weights[0]
    weights[0] = weights[0] / np.tile(scale, 2)[:, None]
    weights[-1] = weights[-1] / scale
    biases[-1] = biases[-1] / scale
    return MlpParameters(params.arch, weights, biases)


def train(
    arch: MlpArchitecture,
    dataset,
    config: TrainConfig,
    standardize: bool = False,
    on_epoch=None,
) -> tuple[MlpParameters, list[float]]:
    """Minibatch optimization of the surrogate loss.

    Returns the final parameters and the per-epoch mean training loss. With
    ``standardize`` the network is fit to the pairs z-scored per dimension
    and returned with that map folded into its weights, so it too takes raw
    coordinates. Reproducible from ``config.seed``; raises TrainingError (with the epoch
    index) if the loss stops being finite. ``on_epoch(epoch, loss, seconds)``,
    if given, is called after each epoch with its mean loss and wall time.
    """
    batch = PairBatch.coerce(dataset)
    n = len(batch)
    if n < config.batch_size:
        raise ValueError(f"dataset size {n} smaller than batch_size {config.batch_size}")

    Y, X = batch.x_next, batch.x_prev
    if standardize:
        mean, scale = _compute_standardization(batch)
        Y = (Y - mean) / scale
        X = (X - mean) / scale

    ss_init, ss_shuffle = np.random.SeedSequence(config.seed).spawn(2)
    params = init_params(arch, ss_init)
    shuffle_rng = np.random.default_rng(ss_shuffle)

    # the first and second moments and two scratch vectors, in the parameters' layout
    m, v = np.zeros_like(params.flat), np.zeros_like(params.flat)
    step, denom = np.empty_like(params.flat), np.empty_like(params.flat)
    step_count = 0

    stacks = _TangentStacks.for_pairs(arch, config.batch_size)
    history = []
    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = shuffle_rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            sel = order[start : start + config.batch_size]
            try:
                loss, grads = _chunked_loss_and_grads(params, Y[sel], X[sel], stacks)
            except NumericsError as err:
                raise TrainingError(f"loss diverged at epoch {epoch}: {err}", epoch=epoch) from err
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged at epoch {epoch}", epoch=epoch)
            total += loss * sel.size
            step_count += 1
            c1 = 1.0 - _BETA1**step_count
            c2 = 1.0 - _BETA2**step_count
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
            # lr (m / c1) / (sqrt(v / c2) + eps), with their IEEE operations
            # in their order (products commuted) in the two scratch vectors;
            # at learning rate 0 the step is +-0 and leaves the parameters as they are
            g = grads.flat
            m *= _BETA1
            m += np.multiply(g, 1 - _BETA1, out=step)
            v *= _BETA2
            np.multiply(g, 1 - _BETA2, out=step)
            v += np.multiply(step, g, out=step)
            np.divide(m, c1, out=step)
            step *= config.learning_rate
            np.divide(v, c2, out=denom)
            np.sqrt(denom, out=denom)
            denom += _EPS
            step /= denom
            params.flat -= step
        epoch_loss = total / n
        if not np.isfinite(epoch_loss):
            raise TrainingError(f"loss diverged at epoch {epoch}", epoch=epoch)
        history.append(epoch_loss)
        if on_epoch is not None:
            on_epoch(epoch, epoch_loss, time.perf_counter() - started)

    if standardize:
        params = _fold_standardization(params, mean, scale)
    return params, history


def evaluate_accuracy(params: MlpParameters, oracle: ScoreField, eval_pairs) -> AccuracyReport:
    """MSE of the network's scores against an oracle, normalized by score power."""
    batch = PairBatch.coerce(eval_pairs)
    if len(batch) == 0:
        raise ValueError("empty evaluation set")
    predicted = forward_batch(params, batch.x_next, batch.x_prev)
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

    def score_and_divergence_batch(self, Y, X):
        return score_and_divergence_batch(self.params, Y, X)


def as_score_field(params: MlpParameters) -> MlpScoreField:
    """Expose (forward_batch, score_and_divergence_batch) through the ScoreField capability."""
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
        "activation": _ACTIVATION,
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"".join([_MAGIC, np.array([_FORMAT_VERSION, len(blob)], "<u4").tobytes(), blob,
                           params.flat.astype("<f8").tobytes()]))


# the header keys save_model writes, each with its JSON type
_HEADER_KEYS = {"format": str, "input_dim": int, "hidden_widths": list, "output_dim": int,
                "activation": str}


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
    if header["activation"] != _ACTIVATION:
        raise ModelFileError(path, f"header: only the {_ACTIVATION} activation is supported")
    off += hlen
    try:
        arch = MlpArchitecture(
            input_dim=header["input_dim"],
            hidden_widths=tuple(header["hidden_widths"]),
            output_dim=header["output_dim"],
        )
    except ValueError as err:
        raise ModelFileError(path, f"header: {err}") from None

    count = _n_parameters(arch)
    if off + 8 * count > len(data):
        raise ModelFileError(path, "file ends inside the parameters")
    if off + 8 * count != len(data):
        raise ModelFileError(path, "trailing bytes after parameters")
    flat = np.frombuffer(data, "<f8", count=count, offset=off)
    try:  # MlpParameters copies the read-only buffer into its own flat vector
        return MlpParameters(arch, *_layer_views(arch, flat))
    except ValueError as err:  # non-finite parameters
        raise ModelFileError(path, str(err)) from None
