"""Hot inner loops: chain stepping, CUSUM traces, and run-length scans.

All kernels are plain numpy and Python; there is one backend.

Chain stepping iterates x <- x - alpha*x + shift*tanh(x) + sigma*z and is
bitwise equal to stepping one state at a time. Stepping one 10-wide state
per call is bound by ufunc overhead, so ``chain_steps`` cuts the stream into
R = (n - WARMUP) // BLOCK lanes and advances them together as one (R, d)
state. Lane 0 starts from ``x0`` and stores its first WARMUP + L states,
with L = (n - WARMUP) // R; lane r >= 1 starts WARMUP steps before its L
rows, inside the last rows of lane r - 1, from ``x0`` as a guess, and steps
that warm-up storing nothing. Each state is written over the noise row it
consumed, so the stepper needs no second (n, d) array. That is safe because
every row is read before its one write: lane r reads row q = r*L + t at its
step t, so of the lanes that read row q the one with the smallest index
reads it last, and that lane is the one that stores row q, in the step that
reads it.

The map is deterministic, so a lane whose warm-up ends bitwise on the state
lane r - 1 stored in that row is exact from there on, given that lane r - 1
is. One comparison of each lane's warm-up end with that stored state
certifies the lanes in order; when all pass, the fewer than R steps past the
last lane are stepped one state at a time. Otherwise (the paths of a
bistable or slowly contracting kernel need not merge within WARMUP steps)
``chain_steps`` returns only the rows of the lanes before the first that
failed. The noise of the rest is spent: its caller draws it again from the
generator state it saved and steps it in lockstep again (``_lockstep``)
with warm-ups of twice the length, up to MAX_WARMUP, which is no shorter
than a lane. Only the rows whose lanes merge within none of these warm-ups
are stepped one state at a time (``_step_rows``), so the worst case stays
close to the plain loop. Every loop makes no temporaries: a step
is seven ``out=`` ufunc calls into two preallocated buffers of the state's
shape, in the order and with the IEEE operations of the expression above, so
it stays bitwise equal to it.

The CUSUM statistic follows the recursion

    W_n = phi(s_n) + max(0, W_{n-1}),      W_0 = 0,

which equals max_{1<=k<=n} sum_{i=k}^n phi(s_i). ``cusum_trace`` uses the
algebraic identity W_n = S_n - min(0, S_1, ..., S_{n-1}) with S the running
sum of phi(s). Its sums lose low bits against the recursion, so it stays
within ``_margin(phi)`` of it, a bound that grows as n**2, not bitwise (8.3e-9
apart at 10**6 steps of the benchmark's pre-change stream, clip 50, where the
margin is 0.0125; ROADMAP item 3 would stop the growth). It works in pieces
of ``_PIECE`` steps, bitwise equal to one whole-stream pass.

``sweep_run_lengths`` is the one detect-and-reset scan: it gives the scans
of one or many thresholds, each bitwise equal to ``detector.detector_update``
run with resets. It rests on two facts about the IEEE operations the scan
performs:

* Monotonicity. Round-to-nearest addition is monotone, so a lane that resets
  at its alarms carries max(0, w) <= max(0, W) at every step, where W is the
  no-reset statistic: the reset carries 0, and otherwise both add the same
  phi to ordered carries.
* Regeneration. At a step where W <= 0 every lane carries 0, so every lane
  starts the next step from the same phi. Between two such steps a lane
  whose threshold lies above the peak of W never alarms, hence performs
  exactly the operations of W and ends that stretch equal to it.

The scan finds such steps with the identity above in numpy, not with the
scalar recursion. Its W-hat differs from the recursion's W by rounding, by at
most a margin ``tol`` (derived in ``_margin``), so a step with W-hat < -tol
is a certain regeneration. The stream splits into regions, each running
from the step after a certain regeneration up to and including the next one
(the last region may end with the stream). A threshold b skips a region
whose top, the largest W-hat in it, satisfies top + tol < b: the region's W
stays below b, so the scan at b cannot alarm there and leaves it at W <= 0.
Each threshold's reset recursion then runs as one scalar loop over the
regions it keeps, carrying its state and interval start across them, which
is exact because every region it leaves ends at a certain regeneration; its
intervals and residual are bitwise those of a full scan.

The peak max W_n, reported bitwise as the recursion's first maximum in
stream order, is computed the same way over the regions whose top lies
within 2 tol of the largest W-hat. A region starts at a certain
regeneration, so W there is phi, and ``np.cumsum`` of the region performs
the recursion's own additions for as long as its sums stay above 0; only
the steps after a sum <= 0 inside a region go through the scalar
recursion. The regions are taken in stream order and a later maximum
replaces an earlier one only when it is larger, so the first maximum, and
its zero sign, is the one reported. A stream whose margin is not finite
(the sums can overflow) is one region that every threshold and the peak
scan.

``cusum_trace`` takes the raw increments and a clip level ``m`` (``np.inf``
disables truncation); ``sweep_run_lengths`` takes increments already
clipped, phi(s_n), so its caller clips the stream once and reads its
diagnostics from the same array.
"""

from __future__ import annotations

import math

import numpy as np

# least stored steps per lane of the lockstep chain stepper
BLOCK = 1024

# steps each lockstep lane after the first takes, storing nothing, before its
# own rows
WARMUP = 512

# the longest warm-up a block's uncertified rows are stepped again with in
# lockstep (doubling from WARMUP), before they are stepped one state at a
# time: no shorter than a lane's L < 2 * BLOCK stored steps
MAX_WARMUP = 2 * BLOCK

# steps per piece of the scan's numpy passes and of the whole-stream
# reductions: their scratch arrays have this many elements, whatever the
# stream length
_PIECE = 1 << 14


def _as_f64(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def _bits(a):
    return a.view(np.int64)


# ---------------------------------------------------------------------------
# chain stepping: x <- x - alpha*x + shift*tanh(x) + sigma*z
# ---------------------------------------------------------------------------

def _step(x, z, alpha, shift, sigma, a, b, out):
    """out = x - alpha*x + shift*tanh(x) + sigma*z, evaluated in that order in ``a`` and ``b``.

    ``out`` may be ``x`` or ``z``: ``x`` is read by the first three calls and
    ``z`` by the sixth, all before the seventh writes ``out``. ``a`` and ``b``
    are scratch of the shape of ``x``.
    """
    np.multiply(x, alpha, out=a)
    np.subtract(x, a, out=a)
    np.tanh(x, out=b)
    np.multiply(b, shift, out=b)
    np.add(a, b, out=a)
    np.multiply(z, sigma, out=b)
    np.add(a, b, out=out)


def _step_rows(x, rows, alpha: float, shift: float, sigma: float) -> None:
    """Step from state ``x`` over the noise ``rows`` one state at a time, each state over its row."""
    a, b = np.empty_like(x), np.empty_like(x)
    for z in rows:
        _step(x, z, alpha, shift, sigma, a, b, z)
        x = z


def chain_steps(x0, noise, alpha: float, shift: float, sigma: float) -> np.ndarray:
    """Iterate the transition map over pre-drawn noise rows, writing each state over its row.

    Returns the leading rows of ``noise`` (of its float64 C-contiguous copy,
    if it is not one) that hold certified states, bitwise equal to stepping
    one state at a time from ``x0``: all of them unless a lockstep lane
    failed its check, and always the first WARMUP + L. ``x0`` is not changed.
    """
    return _lockstep(x0, noise, alpha, shift, sigma, WARMUP)


def _lockstep(x0, noise, alpha: float, shift: float, sigma: float, warmup: int) -> np.ndarray:
    """``chain_steps`` with lanes that warm up for ``warmup`` steps."""
    x0 = _as_f64(x0)
    noise = _as_f64(noise)
    n, d = noise.shape
    R = (n - warmup) // BLOCK
    if R < 2:
        _step_rows(x0, noise, alpha, shift, sigma)
        return noise

    # L stored steps per lane; the n - warmup - R*L < R steps after the last
    # lane run one state at a time
    L = (n - warmup) // R
    row = noise.strides[0]
    # z[t] is the (R, d) view of the rows the lanes read at step t, r*L + t for lane r
    z = np.lib.stride_tricks.as_strided(noise, (warmup + L, R, d), (row, L * row, noise.strides[1]))
    X = np.empty((R, d))
    X[:] = x0
    a, b = np.empty((R, d)), np.empty((R, d))
    for t in range(warmup):  # lane 0 stores its states, the others warm up
        _step(X, z[t], alpha, shift, sigma, a, b, X)
        z[t, 0] = X[0]
    warm = X[1:].copy()
    for t in range(warmup, warmup + L):
        _step(X, z[t], alpha, shift, sigma, a, b, X)
        z[t] = X

    # lane r is exact if lane r - 1 is and its warm-up ended on lane r - 1's last state
    lasts = noise[warmup + L - 1 : warmup + (R - 1) * L : L]
    merged = np.equal(_bits(warm), _bits(lasts)).all(axis=1)
    if not merged.all():
        return noise[: warmup + (int(merged.argmin()) + 1) * L]
    start = warmup + R * L
    _step_rows(noise[start - 1], noise[start:], alpha, shift, sigma)
    return noise


# ---------------------------------------------------------------------------
# whole-stream reductions in pieces
# ---------------------------------------------------------------------------

def _count_true(test, *streams) -> int:
    """``np.count_nonzero(test(*streams))`` over 1-D streams, in a bool scratch of ``_PIECE`` elements."""
    n = streams[0].shape[0]
    mask = np.empty(min(n, _PIECE), dtype=bool)
    count = 0
    for a in range(0, n, _PIECE):
        count += np.count_nonzero(test(*(s[a : a + _PIECE] for s in streams), out=mask[: n - a]))
    return count


# ---------------------------------------------------------------------------
# CUSUM trace (no resets)
# ---------------------------------------------------------------------------

def _cumsum_pieces(phi):
    """``np.cumsum(phi)`` in consecutive pieces of at most ``_PIECE`` steps: yields (offset, piece).

    A piece is a view of one scratch array that the next piece overwrites.
    Each piece's first sum adds the last sum of the piece before, the
    addition ``np.cumsum`` makes there, so the pieces are bitwise the
    one-call result.
    """
    n = phi.shape[0]
    buf = np.empty(min(n, _PIECE))
    total = 0.0
    for a in range(0, n, _PIECE):
        c = buf[: n - a]
        np.copyto(c, phi[a : a + c.shape[0]])
        if a:
            c[0] += total
        np.cumsum(c, out=c)
        total = c[-1]
        yield a, c


def _trace_pieces(phi):
    """W_n = S_n - min(0, S_1, ..., S_{n-1}) in pieces of at most ``_PIECE`` steps: yields (offset, piece).

    The prefix minima chain from a literal 0.0 through S_1, S_2, ... in one
    ``np.minimum.accumulate`` per piece, carried across pieces, so every
    piece is bitwise the one-call identity.
    """
    low = np.empty(min(phi.shape[0], _PIECE) + 1)
    low[0] = 0.0  # min(0, S_1, ..., S_{a-1}) before the piece at a
    for a, s in _cumsum_pieces(phi):
        m = low[: s.shape[0] + 1]
        m[1:] = s
        np.minimum.accumulate(m, out=m)
        s -= m[:-1]
        low[0] = m[-1]
        yield a, s


def cusum_trace(increments, m: float = np.inf) -> np.ndarray:
    """Per-step CUSUM statistic W_n, no resets."""
    phi = np.clip(_as_f64(increments), -m, m)
    for a, w in _trace_pieces(phi):
        phi[a : a + w.shape[0]] = w
    return phi


# ---------------------------------------------------------------------------
# detect-and-reset scan: alarm intervals over a whole stream
# ---------------------------------------------------------------------------

def _reset_scan(values, b: float, spans) -> tuple[list, int]:
    """Detect-and-reset recursion at ``b`` over the steps of ``spans``, in one loop.

    ``values`` are the clipped increments and ``spans`` (start, stop) pairs
    in stream order, each entered with a carry <= 0. Returns the alarm
    intervals and the step the open interval started at.
    """
    intervals = []
    last = 0
    w = 0.0
    for start, stop in spans:
        for i, phi in enumerate(values[start:stop], start):
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
    return intervals, last


def _fold_top(values, start: int, stop: int) -> float:
    """First maximum of the no-reset recursion over steps start..stop-1, entered with a carry <= 0."""
    top = -math.inf
    w = 0.0
    for phi in values[start:stop]:
        if w > 0.0:
            w += phi
        else:
            w = phi
        if w > top:
            top = w
    return top


def _cumsum_top(phi, values, start: int, stop: int) -> float:
    """``_fold_top`` of one region, through ``np.cumsum`` while its sums stay above 0.

    The region is entered with a carry <= 0, so its first W is phi and each
    later one adds phi to a positive W, as ``np.cumsum`` does. From the
    first sum <= 0 on, the rest of the region runs the scalar recursion.
    """
    top = -math.inf
    for a, c in _cumsum_pieces(phi[start:stop]):
        low = c <= 0.0
        k = int(low.argmax()) if low.any() else c.shape[0] - 1
        top = max(top, float(c[: k + 1].max()))  # sums before c[k] are > 0: no zero sign to keep
        if low[k]:
            return max(top, _fold_top(values, start + a + k + 1, stop))
    return top


def _margin(phi) -> float:
    """A bound on |W-hat_n - W_n| over ``phi``: tol = 4 n u A, or inf when the sums may overflow.

    With u = 2**-53 and A = sum |phi_i| (summed piece by piece in one
    ``_PIECE``-sized scratch array), every partial sum, prefix minimum and W
    is at most A in magnitude, to first order. Each rounding of an addition
    errs by at most u times its result, and max(0, .) and min are exact and
    1-Lipschitz, so:

    * the scalar recursion W_n = fl(phi_n + max(0, W_{n-1})) rounds n times
      and stays within n u A of the recursion in exact arithmetic, V_n;
    * the running sums S-hat_j are within (j - 1) u A of the exact sums
      (Higham, Accuracy and Stability of Numerical Algorithms, 4.2), and
      their prefix minima within (n - 2) u A of the exact minima;
    * V_n = S_n - min(0, S_1, ..., S_{n-1}) exactly, and the subtraction
      that forms W-hat_n rounds once more, by at most u A.

    Hence |W-hat_n - W_n| <= (3n - 2) u A plus terms of order (n u)**2 A;
    the slack of 4 n u A covers those terms and the roundings of A and tol
    themselves while n u is small (n below about 1e14). The margin is inf
    when 4 A overflows: then the sums the bound speaks of may overflow too.

    tol grows as 4 u n**2 mean|phi|. Once it nears the thresholds, or the
    depth of W's dips below 0, every threshold keeps every region and scans
    the whole stream in Python: one scalar pass per threshold. On
    the benchmark's false-alarm stream (clip 50, mean|phi| about 28) tol is
    about 5e-4 at 2e5 steps and reaches 30, its smallest threshold, near
    5e7 steps.
    """
    n = phi.shape[0]
    buf = np.empty(min(n, _PIECE))
    a = 0.0
    with np.errstate(over="ignore"):
        for i in range(0, n, _PIECE):
            a += float(np.abs(phi[i : i + _PIECE], out=buf[: n - i]).sum())
    if not math.isfinite(4 * a):
        return math.inf
    return 4 * n * 2.0**-53 * a


def _regions(phi, tol: float, floor: float):
    """The regions a threshold >= ``floor`` or the peak may need: (starts, stops, tops, peak).

    Regions end at the certain regenerations W-hat < -tol. Kept are those
    with top + tol >= floor, and those within 2 tol of the running largest
    W-hat, a superset of the regions within 2 tol of the final largest
    ``peak``. Works piece by piece of ``_trace_pieces``, so nothing it
    allocates grows with the stream beyond the kept regions. An infinite
    ``tol`` decides nothing: the stream is one region with an infinite top.
    """
    n = phi.shape[0]
    if not math.isfinite(tol):
        return np.array([0]), np.array([n]), np.array([math.inf]), -math.inf
    kept = []
    start, top, peak = 0, -math.inf, -math.inf
    for a, w in _trace_pieces(phi):
        high = float(w.max())
        peak = max(peak, high)
        stops = np.flatnonzero(w < -tol)
        if not stops.size:
            top = max(top, high)
            continue
        stops += 1
        firsts = np.empty_like(stops)  # region starts within the piece
        firsts[0] = 0
        firsts[1:] = stops[:-1]
        tops = np.maximum.reduceat(w[: stops[-1]], firsts)
        tops[0] = max(tops[0], top)
        firsts += a
        firsts[0] = start
        stops += a
        keep = (tops + tol >= floor) | (tops + 2 * tol >= peak)
        kept.append((firsts[keep], stops[keep], tops[keep]))
        start = int(stops[-1])
        top = float(w[start - a :].max()) if start < a + w.shape[0] else -math.inf
    if start < n:
        kept.append(([start], [n], [top]))
    starts, stops, tops = (np.concatenate(parts) for parts in zip(*kept))
    return starts, stops, tops, peak


def sweep_run_lengths(phi, thresholds):
    """Detect-and-reset scans of the clipped increments ``phi`` at every threshold.

    Returns (runs, peak): ``runs[k]`` is (intervals, residual) of the scan at
    ``thresholds[k]``, an int64 array of the alarm-to-alarm intervals and the
    steps after the last alarm, and ``peak`` is the largest no-reset
    statistic max W_n (-inf for an empty stream).
    """
    phi = _as_f64(phi)
    n = phi.shape[0]
    thresholds = [float(b) for b in thresholds]
    if not n:
        return [(np.zeros(0, dtype=np.int64), 0) for _ in thresholds], -math.inf
    values = memoryview(phi)
    tol = _margin(phi)
    starts, stops, tops, peak = _regions(phi, tol, min(thresholds, default=math.inf))
    runs = []
    for b in thresholds:
        reach = tops + tol >= b
        # memoryviews hand the region bounds over as ints one at a time: lists
        # of them raised the scan's peak resident set by 0.3 MB
        spans = zip(memoryview(starts[reach]), memoryview(stops[reach]))
        intervals, last = _reset_scan(values, b, spans)
        runs.append((np.asarray(intervals, dtype=np.int64), n - last))

    # regions in stream order and a strict comparison keep the first maximum
    near = tops + 2 * tol >= peak
    top = -math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in zip(memoryview(starts[near]), memoryview(stops[near])):
            top = max(top, _cumsum_top(phi, values, start, stop))
    return runs, top
