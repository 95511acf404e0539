"""Hot inner loops: chain stepping, CUSUM traces, and run-length scans.

All kernels are plain numpy and Python; there is one backend.

Chain stepping iterates x <- x - alpha*x + shift*tanh(x) + sigma*z and is
bitwise equal to stepping one state at a time. Stepping one 10-wide state
per call is bound by ufunc overhead, so ``chain_steps`` cuts the stream into
blocks of ``BLOCK`` steps and advances all blocks together as one (R, d)
state: block 0 from ``x0``, every other block from a guess. One correction
sweep then re-steps each block from the previous block's end. A block is
resolved from the first step at which its corrected state equals the stored
state bitwise, because the map is deterministic from there on; a block whose
end did not change hands an exact end to the next block. Blocks that are
still unresolved after the sweep (the paths of a bistable kernel need not
merge) and the tail past the last full block are stepped one state at a
time, so the worst case stays close to the plain loop. Every loop makes no
temporaries: a step is seven ``out=`` ufunc calls into two preallocated
buffers of the state's shape, in the order and with the IEEE operations of
the expression above, so it stays bitwise equal to it.

The CUSUM statistic follows the recursion

    W_n = phi(s_n) + max(0, W_{n-1}),      W_0 = 0,

which equals max_{1<=k<=n} sum_{i=k}^n phi(s_i). ``cusum_trace`` uses the
algebraic identity W_n = S_n - min(0, S_1, ..., S_{n-1}) with S the running
sum of phi(s); over very long streams the cumulative sums lose a few low bits
relative to the recursion, so it matches the recursion to 1e-9 rather than
bitwise.

``sweep_run_lengths`` is the one detect-and-reset scan: it gives the scans
of one or many thresholds from one pass of the no-reset recursion, each
bitwise equal to ``detector.detector_update`` run with resets. It rests on
two facts about the IEEE operations the scan performs:

* Monotonicity. Round-to-nearest addition is monotone, so a lane that resets
  at its alarms carries max(0, w) <= max(0, W) at every step, where W is the
  no-reset statistic: the reset carries 0, and otherwise both add the same
  phi to ordered carries.
* Regeneration. At a step where W <= 0 every lane carries 0, so every lane
  starts the next step from the same phi. Between two such steps a lane
  whose threshold lies above the peak of W never alarms, hence performs
  exactly the operations of W and ends that stretch equal to it.

So the stream splits into excursions of W, each running from the step after
W <= 0 up to and including the next step at which W <= 0. The pass records
every excursion whose peak reaches the smallest threshold; each threshold's
reset recursion then runs over the recorded excursions that reach it only,
carrying its interval start across them, and is bitwise equal to a full
scan at that threshold.

``cusum_trace`` takes the raw increments and a clip level ``m`` (``np.inf``
disables truncation); ``sweep_run_lengths`` takes increments already
clipped, phi(s_n), so its caller clips the stream once and reads its
diagnostics from the same array.
"""

from __future__ import annotations

import math

import numpy as np

# steps per block of the lockstep chain stepper
BLOCK = 1024


def _as_f64(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def _bits(a):
    return a.view(np.int64)


# ---------------------------------------------------------------------------
# chain stepping: x <- x - alpha*x + shift*tanh(x) + sigma*z
# ---------------------------------------------------------------------------

def _step(x, z, alpha, shift, sigma, a, b, out):
    """out = x - alpha*x + shift*tanh(x) + sigma*z, evaluated in that order in ``a`` and ``b``.

    ``out`` may be ``x``; ``a`` and ``b`` are scratch of the shape of ``x``.
    """
    np.multiply(x, alpha, out=a)
    np.subtract(x, a, out=a)
    np.tanh(x, out=b)
    np.multiply(b, shift, out=b)
    np.add(a, b, out=a)
    np.multiply(z, sigma, out=b)
    np.add(a, b, out=out)


def _step_sequential(x, noise, out, alpha, shift, sigma):
    a, b = np.empty_like(x), np.empty_like(x)
    for t in range(noise.shape[0]):
        _step(x, noise[t], alpha, shift, sigma, a, b, out[t])
        x = out[t]


def chain_steps(x0, noise, alpha: float, shift: float, sigma: float) -> np.ndarray:
    """Iterate the transition map over pre-drawn noise rows; returns (n, d).

    The result is bitwise equal to stepping one state at a time from ``x0``.
    """
    x0 = _as_f64(x0)
    noise = _as_f64(noise)
    n, d = noise.shape
    out = np.empty((n, d), dtype=np.float64)
    R = n // BLOCK
    if R < 2:
        _step_sequential(x0, noise, out, alpha, shift, sigma)
        return out

    z = noise[: R * BLOCK].reshape(R, BLOCK, d)
    blocks = out[: R * BLOCK].reshape(R, BLOCK, d)
    a, b = np.empty((R, d)), np.empty((R, d))

    # lockstep pass: block 0 from x0 (exact), the others from x0 as a guess
    X = np.empty((R, d))
    X[:] = x0
    for t in range(BLOCK):
        _step(X, z[:, t], alpha, shift, sigma, a, b, X)
        blocks[:, t] = X
    ends = X

    # correction sweep: re-step blocks 1..R-1 from the stored end of the block
    # before; stop early once every block has merged with its stored path
    Y = ends[:-1].copy()
    a, b = a[1:], b[1:]
    same = np.empty((R - 1, d), dtype=bool)
    exact = R
    for t in range(BLOCK):
        _step(Y, z[1:, t], alpha, shift, sigma, a, b, Y)
        if np.equal(_bits(Y), _bits(blocks[1:, t]), out=same).all():
            break
        blocks[1:, t] = Y
    else:
        # the first block whose end changed is exact (its start was), but the
        # blocks after it were corrected from a stale end
        changed = np.flatnonzero(np.any(_bits(Y) != _bits(ends[1:]), axis=1))
        if changed.size:
            exact = int(changed[0]) + 2

    start = exact * BLOCK
    _step_sequential(out[start - 1], noise[start:], out[start:], alpha, shift, sigma)
    return out


# ---------------------------------------------------------------------------
# CUSUM trace (no resets)
# ---------------------------------------------------------------------------

def cusum_trace(increments, m: float = np.inf) -> np.ndarray:
    """Per-step CUSUM statistic W_n, no resets."""
    phi = np.clip(_as_f64(increments), -m, m)
    s = np.cumsum(phi)
    prev_min = np.minimum.accumulate(np.concatenate(([0.0], s[:-1])))
    return s - prev_min


# ---------------------------------------------------------------------------
# detect-and-reset scan: alarm intervals over a whole stream
# ---------------------------------------------------------------------------

def _reset_scan(values, b: float, first: int, last: int, intervals: list) -> int:
    """Detect-and-reset recursion over ``values``, entered with a zero carry.

    ``values`` are clipped increments whose first one is step ``first`` of the
    stream, and ``last`` is the step the open interval started at. Appends
    each alarm's interval to ``intervals`` and returns the open interval's start.
    """
    w = 0.0
    for i, phi in enumerate(values, first):
        # w = phi + max(0, w); dropping the "+ 0.0" only changes the sign of a
        # zero w, which neither branch nor the alarm test can see
        if w > 0.0:
            w += phi
        else:
            w = phi
        if w >= b:
            intervals.append(i - last + 1)
            last = i + 1
            w = 0.0
    return last


def _excursions(values, floor: float):
    """The excursions of the no-reset statistic W that an alarm at ``floor`` needs.

    Returns (excursions, peak). ``excursions`` lists (start, stop, top) for
    every excursion whose top (the largest W in it) reaches ``floor``, and for
    each one that reached the running maximum of W; ``peak`` is max W_n, or
    -inf for an empty stream.
    """
    found = []
    w = 0.0
    start = 0
    top = math.nan  # no excursion open yet; NaN passes no comparison
    peak = bar = -math.inf  # bar = min(floor, peak)
    for i, phi in enumerate(values):
        if w > 0.0:
            w += phi
            if w > top:
                top = w
        else:
            # W was <= 0 at step i - 1, which closed the excursion [start, i)
            if top >= bar:
                found.append((start, i, top))
                if top > peak:
                    peak = top
                    bar = min(floor, peak)
            start = i
            w = top = phi
    if top >= bar:
        found.append((start, len(values), top))
        peak = max(peak, top)
    return found, peak


def sweep_run_lengths(phi, thresholds):
    """Detect-and-reset scans of the clipped increments ``phi`` at every threshold.

    Returns (runs, peak): ``runs[k]`` is (intervals, residual) of the scan at
    ``thresholds[k]``, an int64 array of the alarm-to-alarm intervals and the
    steps after the last alarm, and ``peak`` is the largest no-reset
    statistic max W_n (-inf for an empty stream).
    """
    phi = _as_f64(phi)
    values = memoryview(phi)
    thresholds = [float(b) for b in thresholds]
    excursions, peak = _excursions(values, min(thresholds, default=math.inf))
    runs = []
    for b in thresholds:
        intervals = []
        last = 0
        for start, stop, top in excursions:
            if top >= b:
                last = _reset_scan(values[start:stop], b, start, last, intervals)
        runs.append((np.asarray(intervals, dtype=np.int64), phi.shape[0] - last))
    return runs, peak
