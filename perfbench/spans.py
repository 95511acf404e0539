"""In-memory span tracing around the public functions of the scusum layers.

While ``instrumented`` is active, every public function of each layer module
(its ``__all__`` where it declares one, otherwise every module-level function
without a leading underscore) is replaced by a wrapper that opens a span on
entry and closes it on exit. Every binding of the same function object is
replaced, so calls through re-exports (``from .fields import ...``) are
traced too. In ``cli`` only ``main`` is wrapped, and its span is named after
the subcommand: ``cli.sweep`` covers one whole ``scusum sweep`` invocation,
and its self time is what the CLI does itself (config, CSV, manifest).
Span names drop the module's leading underscore (``kernels.run_lengths``).

A span holds its name, its parent, the identifier of the pass it belongs to,
start and end (``time.perf_counter`` seconds) and counts taken at the
boundary from the call's arguments and result. Self time is the span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("cli", "markov", "_kernels", "fields", "scorenet", "detector", "bounds", "mocap")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    trace: int
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``trace`` is the identifier stamped on new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trace = 0
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.trace, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")


def covered_time(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered_time(s.start, s.end, children[s.id]) for s in spans}


# ---------------------------------------------------------------------------
# counts taken at span boundaries
# ---------------------------------------------------------------------------

def forward_work(params, n_pairs: int) -> tuple[int, int]:
    """Computed (flops, bytes) of one primal pass over ``n_pairs`` pairs.

    Counts the GEMMs only: 2*fin*fout flops per pair and layer, and the bytes
    of their float64 operands (input activations, weights, bias, output).
    """
    flops = nbytes = 0
    for fin, fout in params.arch.layer_sizes:
        flops += 2 * n_pairs * fin * fout
        nbytes += 8 * (n_pairs * fin + fin * fout + fout + n_pairs * fout)
    return flops, nbytes


def tangent_work(params, n_pairs: int) -> tuple[int, int]:
    """Computed (flops, bytes) of the d tangent passes over ``n_pairs`` pairs.

    Every layer after the first multiplies a (n_pairs * d, fin) tangent stack
    by its weights; the first layer's tangent does not depend on the pair and
    is left out. Bytes are the float64 GEMM operands.
    """
    d = params.arch.output_dim
    flops = nbytes = 0
    for fin, fout in params.arch.layer_sizes[1:]:
        rows = n_pairs * d
        flops += 2 * rows * fin * fout
        nbytes += 8 * (rows * fin + fin * fout + rows * fout)
    return flops, nbytes


def _count_forward(args, kwargs, result):
    flops, nbytes = forward_work(args[0], len(result))
    return {"pairs": len(result), "flops": flops, "bytes": nbytes}


def _count_divergence(args, kwargs, result):
    n = len(result)
    f1, b1 = forward_work(args[0], n)
    f2, b2 = tangent_work(args[0], n)
    return {"pairs": n, "flops": f1 + f2, "bytes": b1 + b2}


def _count_train(args, kwargs, result):
    dataset, config = args[1], args[2]
    n = len(dataset)
    epochs = len(result[1])
    return {"pair_epochs": n * epochs, "steps": epochs * math.ceil(n / config.batch_size)}


def _count_chain_steps(args, kwargs, result):
    return {"steps": len(result)}


def _count_run_lengths(args, kwargs, result):
    return {"increments": len(args[0]), "alarms": len(result[0])}


class _LineCounter:
    """Lines per AMC file, counted once per path after the parse span closes."""

    def __init__(self):
        self._lines = {}

    def __call__(self, args, kwargs, result):
        path = getattr(args[0], "name", None)
        if path is None:
            return {}
        if path not in self._lines:
            with open(path, "rb") as fh:
                self._lines[path] = sum(1 for _ in fh)
        return {"lines": self._lines[path]}


def _counters():
    return {
        "kernels.chain_steps": _count_chain_steps,
        "kernels.run_lengths": _count_run_lengths,
        "scorenet.forward_batch": _count_forward,
        "scorenet.divergence_batch": _count_divergence,
        "scorenet.train": _count_train,
        "mocap.parse_amc": _LineCounter(),
    }


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------

def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def _wrap(tracer: Tracer, name: str, fn, counter):
    naming = None
    if name == "cli.main":
        # one span per CLI invocation, named after its subcommand
        naming = lambda args, kwargs: "cli." + str((args[0] if args else kwargs["argv"])[0])

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(naming(args, kwargs) if naming else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if counter is not None:
            span.counts.update(counter(args, kwargs, result))
        return result

    return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Replace every binding of each layer's public functions by a traced one."""
    package = importlib.import_module("scusum")
    modules = {layer: importlib.import_module(f"scusum.{layer}") for layer in LAYERS}
    counters = _counters()
    wrappers = {}
    for layer, module in modules.items():
        for attr, fn in _public_functions(module):
            if layer == "cli" and attr != "main":
                continue  # cli self time is measured per invocation of main
            span_name = f"{layer.lstrip('_')}.{attr}"
            wrappers[fn] = _wrap(tracer, span_name, fn, counters.get(span_name))
    namespaces = [vars(package)] + [vars(m) for m in modules.values()]
    patched = []
    for ns in namespaces:
        for key, value in list(ns.items()):
            if inspect.isfunction(value) and value in wrappers:
                patched.append((ns, key, value))
                ns[key] = wrappers[value]
    try:
        yield tracer
    finally:
        for ns, key, value in reversed(patched):
            ns[key] = value


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

COMMANDS = ("sweep", "train", "mocap", "detect")


def pass_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of the spans of one pass (0 for layers not entered)."""
    own = self_times(spans)
    by_name = defaultdict(list)
    layer_self = dict.fromkeys((layer.lstrip("_") for layer in LAYERS), 0.0)
    for s in spans:
        by_name[s.name].append(s)
        layer_self[s.layer] += own[s.id]

    def total(name):
        return sum(s.duration for s in by_name[name])

    def self_total(name):
        return sum(own[s.id] for s in by_name[name])

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name[name])

    def rate(name, key, scale=1.0):
        t = total(name)
        return count(name, key) / t / scale if t > 0 else 0.0

    def per_call(name, key):
        n = count(name, "pairs")
        return count(name, key) / n if n else 0.0

    m = {f"cli.{cmd}.self_s": self_total(f"cli.{cmd}") for cmd in COMMANDS}
    m.update({f"{layer}.self_s": t for layer, t in layer_self.items()})
    m["markov.simulate_path.s"] = total("markov.simulate_path")
    m["kernels.chain_steps.steps_per_s"] = rate("kernels.chain_steps", "steps")
    m["kernels.run_lengths.s"] = total("kernels.run_lengths")
    m["kernels.run_lengths.increments_per_s"] = rate("kernels.run_lengths", "increments")
    m["detector.alarms"] = count("kernels.run_lengths", "alarms")
    m["detector.threshold_sweep.self_s"] = self_total("detector.threshold_sweep")
    m["scorenet.train.s"] = total("scorenet.train")
    m["scorenet.train.pairs_per_s"] = rate("scorenet.train", "pair_epochs")
    m["scorenet.train.steps"] = count("scorenet.train", "steps")
    for fn in ("forward_batch", "divergence_batch"):
        name = f"scorenet.{fn}"
        m[f"{name}.pairs_per_s"] = rate(name, "pairs")
        m[f"{name}.gflops"] = rate(name, "flops", 1e9)
        m[f"{name}.computed_flop_per_pair"] = per_call(name, "flops")
        m[f"{name}.computed_bytes_per_pair"] = per_call(name, "bytes")
    m["mocap.parse_amc.lines_per_s"] = rate("mocap.parse_amc", "lines")
    m["mocap.build_scenario.s"] = total("mocap.build_scenario")
    m["markov.write_trajectory_csv.s"] = total("markov.write_trajectory_csv")
    m["detector.write_trace_csv.s"] = total("detector.write_trace_csv")
    m["fields.hyvarinen_scores.self_s"] = self_total("fields.hyvarinen_scores")
    return m
