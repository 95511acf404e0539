"""Synthetic Markov process with a nonlinear Gaussian transition kernel.

One step of the chain is

    X_{n+1} = X_n - alpha * X_n + shift * tanh(X_n) + sigma * Z_n,
    Z_n ~ N(0, I),

i.e. a Gaussian kernel whose mean mu(x) = x - alpha*x + shift*tanh(x) is a
nonlinear contraction for 0 < alpha < 2 (the tanh drift is bounded, the
linear part pulls toward the origin). The conditional score is available in
closed form, which makes this process the oracle test bed for score learning
and for the exact likelihood-ratio CUSUM baseline.

Randomness: trajectories draw from numpy's PCG64 bit generator
(``np.random.default_rng(seed)``) using ``standard_normal`` (ziggurat). The
noise is drawn block by block from that one stream, which gives the bits of
one ``standard_normal((burn_in + length, d))`` draw, and each block is
stepped from the exact last state of the block before. Given the same config,
paths are bitwise reproducible, and bitwise equal to stepping the recursion
one state at a time (``_kernels.chain_steps`` steps a block's rows in
lockstep lanes, each checked against the lane before it, and writes each
state over the noise row it consumed; ``_kernels.step_again`` steps the
rows of lanes that did not merge).

Memory: ``path_blocks`` yields the path in blocks of ``_BLOCK_BYTES`` per
(rows, d) array, and a block's states are written over its noise, so a
caller that uses each block and drops it (``sweep``, and ``detect`` on a
simulated stream) holds one (rows, d) array whatever the length. In the rare
block whose lanes do not all merge, the rest of its noise is drawn again
into the same rows (``_redraw``), so a block is always one array.
``simulate_path`` writes the blocks into one (burn_in + length, d) array.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _kernels, _textio
from .exceptions import NumericsError, TrajectoryCsvError
from .fields import GaussianScoreField, PairBatch

__all__ = [
    "GaussianKernelSpec",
    "TrajectoryConfig",
    "transition_mean",
    "path_blocks",
    "simulate_path",
    "stationary_pairs",
    "closed_form_score",
    "log_likelihood_ratios",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

INFINITE = math.inf


@dataclass(frozen=True)
class GaussianKernelSpec:
    """Parameters of one transition kernel."""

    dim: int
    alpha: float
    sigma: float
    shift: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be finite and positive")
        if not math.isfinite(self.shift):
            raise ValueError("shift must be finite")
        if not 0 < self.alpha < 2:
            raise ValueError("alpha must lie in (0, 2) for the mean map to contract")


@dataclass(frozen=True)
class TrajectoryConfig:
    """Full description of one trajectory, including the change point.

    ``change_point`` is the 1-based index of the first state generated by the
    post-change kernel; ``math.inf`` means the change never happens. States
    are emitted with indices 1..length; the transition into X_n uses the
    post-change kernel iff n >= change_point. The state is carried across the
    change (X_nu is drawn from X_{nu-1} under the post kernel).
    """

    pre: GaussianKernelSpec
    post: GaussianKernelSpec | None = None
    change_point: float = INFINITE
    length: int = 1
    seed: int = 0
    burn_in: int = 1000

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("length must be nonnegative")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        cp = self.change_point
        if cp != INFINITE:
            if int(cp) != cp or cp < 1:
                raise ValueError("change_point must be a positive integer or infinity")
            if self.post is None:
                raise ValueError(f"change_point = {cp!r} requires a post-change kernel")
            if cp > self.length:
                raise ValueError(f"change_point must be <= length = {self.length}, got {cp!r}")
        if self.post is not None and self.post.dim != self.pre.dim:
            raise ValueError("pre and post kernels must share dimension")


def transition_mean(spec: GaussianKernelSpec, x: np.ndarray) -> np.ndarray:
    """mu(x) = x - alpha*x + shift*tanh(x), elementwise; accepts (d,) or (n, d)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != spec.dim:
        raise ValueError(f"state dimension {x.shape[-1]} does not match spec dim {spec.dim}")
    # the expression's IEEE operations in its order, in two arrays of x's shape
    mean = np.multiply(x, spec.alpha)
    np.subtract(x, mean, out=mean)
    bend = np.tanh(x)
    bend *= spec.shift
    mean += bend
    return mean


# Bytes in one (rows, d) float64 array of a simulated block: blocks of
# budget // (8 d) rows, 104,857 at d=10. A block holds its noise, then its
# states stepped over it; each block costs one lockstep warm-up. Peak RSS and
# wall time of the benchmark's sweep_closed_form pass (perfbench/run.py,
# median of two runs), and one in-process `sweep` call on its 201,000 x 10
# false-alarm stream (median of 14, budgets interleaved); 2 vCPUs, numpy
# 2.4.6, about +-10% run to run:
#
#     budget    blocks    pass peak RSS, MB    pass wall, s    one call, ms
#     4 MiB        4            46.6              0.187            148
#     8 MiB        2            49.4              0.147            140
#     16 MiB       1            55.2              0.138            141
#
# 8 MiB keeps the call's time and takes 5.8 MB off its peak; 4 MiB takes
# 2.8 MB more but costs about 6% in warm-ups.
_BLOCK_BYTES = 8 << 20


def _block_rows(d: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * d))


def _redraw(rng, drawn, z, k: int) -> None:
    """Draw the noise of block ``z``'s rows from ``k`` on again, into those rows.

    The generator is rewound to ``drawn``, its state before the block's
    draw, and the normals of the first ``k`` rows are skipped by drawing
    them into the spent rows themselves, so no (k, d) temporary is made.
    The generator ends where the block's first draw left it.
    """
    rng.bit_generator.state = drawn
    spent = z[k:].reshape(-1)
    for skip in range(k * z.shape[1], 0, -spent.size):
        rng.standard_normal(out=spent[: min(skip, spent.size)])
    rng.standard_normal(out=z[k:])


def path_blocks(config: TrajectoryConfig, noise: np.ndarray | None = None):
    """Yield the states X_1..X_length as consecutive (rows, d) blocks.

    Steps 1..burn_in + length are drawn and stepped in blocks of
    ``_block_rows(d)`` rows, cut at the change point, each from the exact last
    state of the block before; the burn-in rows are dropped from what is
    yielded. The blocks are bitwise the rows of ``simulate_path``. Each
    block's noise is drawn into its own rows of ``noise`` (a
    (burn_in + length, d) array) when given, otherwise into an array dropped
    with the block, and its states are written over it. A yielded block is
    not kept: the next one is drawn once it is asked for. A block with a
    non-finite state raises ``NumericsError`` naming the first such state
    yielded (1 for a burn-in step): a non-finite coordinate stays non-finite,
    so the check reads only each block's last state.
    """
    d = config.pre.dim
    if config.length == 0:
        return
    rows = _block_rows(d)
    total = config.burn_in + config.length
    n_pre = config.length if config.change_point == INFINITE else int(config.change_point) - 1
    split = config.burn_in + n_pre
    rng = np.random.default_rng(config.seed)
    x = np.zeros(d)
    for spec, lo, hi in ((config.pre, 0, split), (config.post, split, total)):
        for a in range(lo, hi, rows):
            b = min(a + rows, hi)
            z = np.empty((b - a, d)) if noise is None else noise[a:b]
            drawn = rng.bit_generator.state
            rng.standard_normal(out=z)
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite state is reported below
                states = _kernels.chain_steps(x, z, spec.alpha, spec.shift, spec.sigma)
                if len(states) < b - a:
                    _kernels.step_again(z, len(states), partial(_redraw, rng, drawn, z),
                                        spec.alpha, spec.shift, spec.sigma)
                    states = z
            del z
            if not np.isfinite(states[-1]).all():
                first = a + int(np.isfinite(states).all(axis=1).argmin())
                raise NumericsError(
                    f"simulated state {max(first - config.burn_in, 0) + 1} is not finite")
            x = states[-1].copy()
            if b > config.burn_in:
                yield states[max(0, config.burn_in - a) :]
            del states


def simulate_path(config: TrajectoryConfig) -> np.ndarray:
    """Generate states X_1..X_length as a (length, d) array.

    Burn-in runs under the pre-change kernel from the zero vector and is
    discarded. All noise comes from one seeded PCG64 stream, so the path is
    reproducible from the config alone. Each block of ``path_blocks`` draws
    its noise into its own rows of one (burn_in + length, d) array and its
    states are stepped over them (the copy below then moves nothing); the
    path is a view of that array. A non-finite state raises ``NumericsError``.
    """
    out = np.empty((config.burn_in + config.length, config.pre.dim))
    start = config.burn_in
    for states in path_blocks(config, out):
        out[start : start + len(states)] = states
        start += len(states)
        del states
    return out[config.burn_in :]


def stationary_pairs(
    spec: GaussianKernelSpec, n_pairs: int, seed: int, burn_in: int = TrajectoryConfig.burn_in
) -> PairBatch:
    """Consecutive transition pairs from an (approximately) stationary path."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    config = TrajectoryConfig(pre=spec, length=n_pairs + 1, seed=seed, burn_in=burn_in)
    return PairBatch.from_states(simulate_path(config))


def closed_form_score(spec: GaussianKernelSpec) -> GaussianScoreField:
    """Exact conditional score field of the kernel.

    score(y, x) = -(y - mu(x)) / sigma^2, divergence = -dim / sigma^2.
    Its power is E||score||^2 = dim / sigma^2 under noise variance sigma^2
    (not sigma^2 / 2); acceptance criterion 1b pins this value.
    """
    return GaussianScoreField(
        mean_fn=lambda x: transition_mean(spec, x), sigma=spec.sigma, dim=spec.dim
    )


def _log_density_quadratics(spec: GaussianKernelSpec, Y, X):
    resid = Y - transition_mean(spec, X)
    return np.einsum("...i,...i->...", resid, resid) / spec.sigma**2


def log_likelihood_ratios(
    pre: GaussianKernelSpec, post: GaussianKernelSpec, pairs
) -> np.ndarray:
    """Exact log post(x_next|x_prev) - log pre(x_next|x_prev) per pair of a stream; shape (n,)."""
    batch = PairBatch.coerce(pairs)
    if pre.dim != post.dim or batch.dim != pre.dim:
        raise ValueError("kernel and pair dimensions must match")
    q_pre = _log_density_quadratics(pre, batch.x_next, batch.x_prev)
    q_post = _log_density_quadratics(post, batch.x_next, batch.x_prev)
    out = 0.5 * (q_pre - q_post) + pre.dim * math.log(pre.sigma / post.sigma)
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite log-likelihood ratio")
    return out


def trajectory_csv_lines(states: np.ndarray, post_from: float | None = None):
    """Yield the lines of a trajectory CSV, without terminators, a list at a time.

    The first list holds the header (columns x0..x{d-1}, then ``regime``
    unless ``post_from`` is None); each later one holds a chunk of formatted
    rows. The regime reads ``pre`` before row ``post_from`` (0-based;
    ``math.inf`` for a change that never comes) and ``post`` from it on.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2:
        raise ValueError("states must be a (n, d) array")
    header = [f"x{i}" for i in range(states.shape[1])]
    if post_from is not None:
        header.append("regime")
    yield [",".join(header)]
    for start, rows in _textio.row_chunks(states):
        if post_from is not None:
            k = min(max(post_from - start, 0), len(rows))
            rows = [row + ",pre" for row in rows[:k]] + [row + ",post" for row in rows[k:]]
        yield rows


def write_trajectory_csv(path, states: np.ndarray, post_from: float | None = None) -> None:
    """One row per step, columns x0..x{d-1}, and a regime column unless ``post_from`` is None."""
    lines = trajectory_csv_lines(states, post_from)
    header = next(lines)  # checks the arguments before the file is opened
    with open(path, "w", newline="") as fh:
        _textio.write_rows(fh, header)
        for rows in lines:
            _textio.write_rows(fh, rows)


def read_trajectory_csv(path) -> np.ndarray:
    """States of a trajectory CSV, every cell but the regime column read as ``float()`` reads it.

    A row whose field count differs from the header's, or with a malformed or
    non-finite value, is rejected with its ``path:line``; a file with no
    state column, or with fewer than two rows (one transition pair), with its
    path. Each rejection is a
    ``TrajectoryCsvError``. The cells are converted with one numpy call per
    ``_textio.CONVERT_CELLS``, which uses ``float()``'s own parser; only if a
    call fails, or a value is not finite, are its rows read again one by one
    to name the first bad one. A field-count error converts the cells before
    it first, so the first bad row is the one named.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TrajectoryCsvError(f"{path}: empty trajectory CSV") from None
        cols = [i for i, name in enumerate(header) if name != "regime"]
        if not cols:
            raise TrajectoryCsvError(f"{path}: trajectory CSV has no state column")
        cells: list[str] = []  # cells of the rows not yet converted
        blocks: list[np.ndarray] = []  # converted cells, in row order
        n_rows = 0

        def convert() -> None:
            values = _textio.finite_floats(cells)
            if values is not None:
                blocks.append(values)
                cells.clear()
                return
            # the pending rows end at row n_rows, on line n_rows + 1
            pending = range(0, len(cells), len(cols))
            for lineno, off in enumerate(pending, start=n_rows + 2 - len(pending)):
                try:
                    values = [float(cell) for cell in cells[off : off + len(cols)]]
                except ValueError:
                    raise TrajectoryCsvError(f"{path}:{lineno}: malformed trajectory row") from None
                if not all(map(math.isfinite, values)):
                    raise TrajectoryCsvError(f"{path}:{lineno}: non-finite value in trajectory row")
            raise AssertionError("rescan found no bad value")

        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                convert()
                raise TrajectoryCsvError(f"{path}:{lineno}: row has {len(row)} fields, the header {len(header)}")
            cells += [row[i] for i in cols]
            n_rows += 1
            if len(cells) >= _textio.CONVERT_CELLS:
                convert()
        convert()
    if n_rows < 2:
        raise TrajectoryCsvError(f"{path}: trajectory has {n_rows} rows, need at least 2")
    return np.concatenate(blocks).reshape(n_rows, len(cols))
