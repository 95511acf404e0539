"""The config schema of the ``scusum`` commands, its one loader, and every config rule.

The frozen dataclasses below (with ``markov.GaussianKernelSpec`` for kernels
and ``scorenet.TrainConfig`` for ``training``, whose four keys set the Adam
learning rate, the minibatch size, the epochs and the seed of a fit; Adam's
other constants are fixed) are the schema: their fields
are the keys, their annotations the JSON kinds and their defaults the only
defaults. ``load_config`` checks every value against them and builds them,
and a section builds what its command will build from it (a
``markov.TrajectoryConfig``, a closed-form score field, the resolved mu) by
the command's own methods, so their checks run at load too. A value that
breaks a rule exits 2 naming its dotted key. The rules: keys are known and
required keys given; a value, and a list's every element, is of its JSON
kind (``2.0`` is no integer, ``true`` no number, and ``NaN`` and
``Infinity``, which Python's ``json`` reads, are rejected); a string is one
of its set (``"infinity"``: a change that never comes; ``"closed_form"``: a
kernel's exact score; ``"empirical"``: a drift estimated from the stream);
``seed`` and ``burn_in`` are >= 0, ``pairs``, ``change_point``,
``splice_index``, ``stride`` and each of ``hidden_widths`` >= 1, and a
scored stream has 2 states; ``data`` names one source, ``train``'s ``csv``
takes no ``pairs``, ``seed`` or ``burn_in``, and its simulated ``pairs`` are
at least ``training.batch_size``;
``markov.TrajectoryConfig`` takes the simulated stream (a finite
``change_point`` needs a post-change kernel and is at most ``length``), and
``detect``'s ``change_point`` is ``data.simulate``'s; the kernels share a
dimension, and every kernel a command uses is given (``models.X =
"closed_form"`` and ``stream.law = X`` need ``kernels.X``, ``data.simulate``
needs ``kernels.pre``); a closed-form score's ``sigma`` (``train``'s
``data.kernel`` too) and the resolved mu have a normal float square;
thresholds, truncation levels and bound inputs are positive, ``thresholds``
increase, a heuristic mu has a truncation level, and a number drift is at
most the truncation. Only what depends on the data waits for the command:
``model.bin`` and data dimensions, a CSV's rows against ``change_point``,
a CSV's pairs against ``training.batch_size``, and the sign of an
``"empirical"`` drift. ``scusum.cli`` imports this module when a command
runs, not at its own import: building the dataclasses takes about three
times as long as loading the rest of ``scusum.cli``.
"""

from __future__ import annotations

import json
import math
import sys
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import Literal

from . import bounds, detector, markov, mocap, scorenet

# a config section: built by keyword, so fields may be declared in any order
_section = dataclass(frozen=True, kw_only=True)

_KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
          type(None): "null"}


def _describe(tp) -> str:
    if tp in _KINDS:
        return _KINDS[tp]
    if typing.get_origin(tp) is Literal:
        return " or ".join(json.dumps(v) for v in typing.get_args(tp))
    if typing.get_origin(tp) is tuple:
        return "a list"
    if is_dataclass(tp):
        return "an object"
    return " or ".join(_describe(t) for t in typing.get_args(tp))


def _kind_matches(tp, value) -> bool:
    """Whether ``value`` is of the JSON kind of ``tp``, at its top level."""
    if tp is float:
        return type(value) in (int, float)
    if tp in _KINDS:
        return type(value) is tp
    if typing.get_origin(tp) is Literal:
        return value in typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        return isinstance(value, (list, tuple))
    if is_dataclass(tp):
        return isinstance(value, dict)
    return any(_kind_matches(t, value) for t in typing.get_args(tp))


def _load(tp, value, path: str, seed):
    """(the value built from ``value`` as a ``tp``, its echo for the manifest)."""
    if not _kind_matches(tp, value):
        raise ValueError(f"{path or 'config'} must be {_describe(tp)}, got {json.dumps(value)}")
    if tp is float and not math.isfinite(value):
        raise ValueError(f"{path} must be finite, got {json.dumps(value)}")
    if is_dataclass(tp):
        return _load_section(tp, value, path, seed)
    if typing.get_origin(tp) is tuple:
        items = [_load(typing.get_args(tp)[0], v, f"{path}[{i}]", seed)
                 for i, v in enumerate(value)]
        return tuple(built for built, _ in items), [echo for _, echo in items]
    if value is None or tp in _KINDS or typing.get_origin(tp) is Literal:
        return value, value
    # a union: the value is loaded as the first member type of its kind
    options = [t for t in typing.get_args(tp) if t is not type(None)]
    built, echo = _load(next(t for t in options if _kind_matches(t, value)), value, path, seed)
    # an optional section is echoed with its defaults; a value that may take
    # several kinds (mu: a number or an object) is echoed as written
    return built, echo if len(options) == 1 else value


# integer keys with a lower bound, wherever they appear: numpy's generators
# take no negative seed, a burn-in is a step count, training needs a pair,
# states are numbered from 1 and a clip keeps at least one frame, taking
# every stride-th
_MINIMUM = {"seed": 0, "burn_in": 0, "pairs": 1, "change_point": 1, "splice_index": 1, "stride": 1}


def _load_section(cls, raw: dict, path: str, seed):
    names = {f.name for f in fields(cls)}
    for key in raw:
        if key not in names:
            raise ValueError(f"unknown config key '{path + '.' if path else ''}{key}'")
    hints = typing.get_type_hints(cls)
    built, echo = {}, {}
    for f in fields(cls):
        here = f"{path}.{f.name}" if path else f.name
        if f.name == "seed" and seed is not None:
            value = seed
        elif f.name in raw:
            value = raw[f.name]
        elif f.default is not MISSING:
            value = f.default
        elif is_dataclass(hints[f.name]):
            value = {}  # a section left out takes its defaults
        else:
            raise ValueError(f"missing required config key '{here}'")
        built[f.name], echo[f.name] = _load(hints[f.name], value, here, seed)
        if f.name in _MINIMUM and type(value) is int and value < _MINIMUM[f.name]:
            raise ValueError(f"{here} must be >= {_MINIMUM[f.name]}, got {value}")
    if hasattr(cls, "one_of"):  # a section that takes exactly one of these fields
        given = [name for name in cls.one_of if built[name] is not None]
        if len(given) != 1:
            keys = " and ".join(f"{path}.{name}" for name in cls.one_of)
            raise ValueError(f"give exactly one of {keys}, got {'both' if given else 'neither'}")
    for name, needed in getattr(cls, "needs", {}).items():  # keys read only beside another
        if built[needed] is None:
            if name in raw:
                raise ValueError(f"{path}.{name} applies only with {path}.{needed}, which is not given")
            del echo[name]  # an echoed default would read as a setting the run used
    try:
        return cls(**built), echo
    except _FieldError as err:
        raise ValueError(f"{path + '.' if path else ''}{err}") from None
    except ValueError as err:  # the dataclass's own range checks
        raise ValueError(f"{path or 'config'}: {err}") from None


class _FieldError(ValueError):
    """A section's check of one of its fields, whose message starts with the field's name."""


def _built(build, key: str):
    """``build()``; a ``ValueError`` it raises is raised again with ``key`` before its message."""
    try:
        return build()
    except ValueError as err:
        raise _FieldError(f"{key}{err}") from None


def _same_dim(pre, post, pre_key: str, post_key: str) -> None:
    if pre is not None and post is not None and pre.dim != post.dim:
        raise _FieldError(f"{post_key}.dim must equal {pre_key}.dim = {pre.dim}, got {post.dim}")


def _check_kernels(models, kernels, uses: dict[str, str]) -> None:
    """Check the kernels; ``uses`` maps the key of each user of a kernel to the kernel's name.

    A closed-form model uses its kernel too, and its score is built from it. The kernels share a
    dimension.
    """
    closed = {f"models.{which} = closed_form": which for which in ("pre", "post")
              if getattr(models, which) == "closed_form"}
    for user, which in {**uses, **closed}.items():
        if getattr(kernels, which) is None:
            raise _FieldError(f"{user} requires kernels.{which}")
    for which in closed.values():
        _built(lambda: markov.closed_form_score(getattr(kernels, which)), f"kernels.{which}.")
    _same_dim(kernels.pre, kernels.post, "kernels.pre", "kernels.post")


def _change_time(change_point) -> float:
    """``change_point`` as a time: ``"infinity"`` and ``null`` are ``math.inf``."""
    return math.inf if change_point in ("infinity", None) else change_point


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

ChangePoint = int | Literal["infinity"] | None


@_section
class StreamConfig:
    """A simulated stream: ``length`` states after ``burn_in`` steps from the zero state."""

    length: int
    seed: int = markov.TrajectoryConfig.seed
    burn_in: int = markov.TrajectoryConfig.burn_in
    min_length: typing.ClassVar[int] = 2  # a scored stream needs one pair: two states
    change_time: typing.ClassVar[float] = math.inf

    def __post_init__(self):
        if self.length < self.min_length:
            raise ValueError(f"length must be >= {self.min_length}, got {self.length}")

    def _trajectory(self, pre, post=None) -> markov.TrajectoryConfig:
        return markov.TrajectoryConfig(pre=pre, post=post, change_point=self.change_time,
                                       length=self.length, seed=self.seed, burn_in=self.burn_in)


@_section
class ChangeStreamConfig(StreamConfig):
    """``detect``'s ``data.simulate``: the kernels switch at ``change_point``."""

    change_point: ChangePoint = "infinity"

    @property
    def change_time(self) -> float:
        return _change_time(self.change_point)


@_section
class SimulateConfig(ChangeStreamConfig):
    kernel: markov.GaussianKernelSpec
    post_kernel: markov.GaussianKernelSpec | None = None
    min_length: typing.ClassVar[int] = 0  # a written trajectory may be empty

    def __post_init__(self):
        super().__post_init__()
        _same_dim(self.kernel, self.post_kernel, "kernel", "post_kernel")
        _built(self.trajectory, "")

    def trajectory(self) -> markov.TrajectoryConfig:
        return self._trajectory(self.kernel, self.post_kernel)


@_section
class TrainDataConfig:
    """Training pairs: every pair of ``csv`` (a trajectory), or ``pairs`` simulated from ``kernel``."""

    kernel: markov.GaussianKernelSpec | None = None
    pairs: int = 50000
    seed: int = 1
    burn_in: int = markov.TrajectoryConfig.burn_in
    csv: str | None = None
    one_of: typing.ClassVar[tuple[str, ...]] = ("kernel", "csv")
    # a csv source is read whole: a simulation's settings would be ignored there
    needs: typing.ClassVar[dict[str, str]] = dict.fromkeys(("pairs", "seed", "burn_in"), "kernel")

    def __post_init__(self):
        if self.kernel is not None:  # the accuracy oracle
            _built(lambda: markov.closed_form_score(self.kernel), "kernel.")


@_section
class ArchitectureConfig:
    hidden_widths: tuple[int, ...] = (128, 128, 128)

    def __post_init__(self):
        for i, width in enumerate(self.hidden_widths):
            if width < 1:
                raise _FieldError(f"hidden_widths[{i}] must be >= 1, got {width}")


@_section
class TrainCommandConfig:
    data: TrainDataConfig
    architecture: ArchitectureConfig
    training: scorenet.TrainConfig
    standardize: bool = False

    def __post_init__(self):
        # a csv's pairs are counted only once it is read
        pairs, batch_size = self.data.pairs, self.training.batch_size
        if self.data.kernel is not None and pairs < batch_size:
            raise _FieldError(f"data.pairs must be >= training.batch_size = {batch_size}, got {pairs}")


@_section
class ModelsConfig:
    """Each score: ``"closed_form"`` (the kernel's exact score) or a ``model.bin`` path."""

    pre: str = "closed_form"
    post: str = "closed_form"


@_section
class KernelsConfig:
    pre: markov.GaussianKernelSpec | None = None
    post: markov.GaussianKernelSpec | None = None


@_section
class DetectDataConfig:
    simulate: ChangeStreamConfig | None = None
    csv: str | None = None
    one_of: typing.ClassVar[tuple[str, ...]] = ("simulate", "csv")


@_section
class DetectorSettings:
    threshold: float
    truncation: float | None = None

    def __post_init__(self):
        _built(lambda: detector.DetectorConfig(
            self.threshold, detector.TruncationSpec(self.truncation)), "")


@_section
class DetectConfig:
    models: ModelsConfig
    kernels: KernelsConfig
    data: DetectDataConfig
    detector: DetectorSettings
    change_point: ChangePoint = None

    def __post_init__(self):
        simulate = self.data.simulate
        _check_kernels(self.models, self.kernels, {"data.simulate": "pre"} if simulate else {})
        if simulate is None:
            return
        if self.change_point is not None and _change_time(self.change_point) != simulate.change_time:
            raise _FieldError(f"change_point = {json.dumps(self.change_point)} contradicts "
                              f"data.simulate.change_point = {json.dumps(simulate.change_point)}")
        _built(self.trajectory, "data.simulate.")

    @property
    def change_time(self) -> float:
        """The stream's change time, whichever key declares it; ``math.inf`` when none does."""
        simulate = self.data.simulate
        return _change_time(self.change_point) if simulate is None else simulate.change_time

    def trajectory(self) -> markov.TrajectoryConfig | None:  # None for a csv source
        simulate = self.data.simulate
        return None if simulate is None else simulate._trajectory(self.kernels.pre, self.kernels.post)


@_section
class SweepStreamConfig(StreamConfig):
    """The swept stream, drawn from one kernel throughout."""

    law: Literal["pre", "post"] = "pre"


@_section
class HeuristicMu:
    """mu = factor * truncation level (the sweep's ``truncation`` unless given)."""

    truncation_level: float | None = None
    factor: float = bounds.HEURISTIC_MU_FACTOR


@_section
class DoeblinMu(bounds.DoeblinConstants):
    norm_phi: float

    def __post_init__(self):  # the constants' own checks, named by their field
        _built(super().__post_init__, "")


@_section
class MuSpec:
    """``mu`` given as an object: exactly one of its two routes."""

    heuristic: HeuristicMu | None = None
    doeblin: DoeblinMu | None = None
    one_of: typing.ClassVar[tuple[str, ...]] = ("heuristic", "doeblin")


Mu = float | MuSpec


def _positive(section, *names) -> None:
    """Reject a number among the ``names`` fields of ``section`` that is not positive."""
    for name in names:
        value = getattr(section, name)
        if isinstance(value, (int, float)) and not value > 0:
            raise _FieldError(f"{name} must be positive, got {value!r}")


def _resolve_mu(mu: Mu, truncation: float | None, key: str) -> tuple[float, str]:
    """(mu, its provenance label); a heuristic ``mu`` takes ``truncation`` unless it has a level.

    The bounds divide by mu^2, so a mu whose square is not a normal float is rejected.
    """
    if isinstance(mu, (int, float)):
        value, label = float(mu), "explicit"
    elif mu.doeblin is not None:
        doeblin, label = mu.doeblin, "doeblin constants"
        value = _built(lambda: bounds.concentration_mu(doeblin.norm_phi, doeblin), f"{key}.doeblin.")
    else:
        level = truncation if mu.heuristic.truncation_level is None else mu.heuristic.truncation_level
        if level is None:
            raise _FieldError(f"{key}.heuristic.truncation_level is required without a truncation")
        factor = mu.heuristic.factor
        value = _built(lambda: bounds.heuristic_mu(level, factor), f"{key}.heuristic.")
        label = f"heuristic ({factor} * truncation level)"
    if not sys.float_info.min <= value * value < math.inf:
        raise _FieldError(f"{key} must have a normal float square, got {value!r} ({label})")
    return value, label


@_section
class SweepBoundsConfig:
    mu: Mu
    delta: float | Literal["empirical"] = "empirical"
    post_drift: float | Literal["empirical"] = "empirical"

    def __post_init__(self):
        _positive(self, "mu", "delta", "post_drift")


@_section
class SweepConfig:
    models: ModelsConfig
    kernels: KernelsConfig
    stream: SweepStreamConfig
    thresholds: tuple[float, ...]
    truncation: float | None = None
    compare_untruncated: bool = False
    bounds: SweepBoundsConfig | None = None

    def __post_init__(self):
        _built(lambda: detector.check_thresholds(self.thresholds), "")
        _built(lambda: detector.TruncationSpec(self.truncation), "")
        _check_kernels(self.models, self.kernels, {f"stream.law = {self.stream.law}": self.stream.law})
        _built(self.trajectory, "stream.")
        if self.bounds is None:
            return
        self.resolved_mu()
        for name in ("delta", "post_drift"):  # a drift of clipped increments is within the clip
            drift = getattr(self.bounds, name)
            if drift != "empirical" and self.truncation is not None and drift > self.truncation:
                raise _FieldError(f"bounds.{name} must be at most truncation = "
                                  f"{self.truncation!r}, got {drift!r}")

    def trajectory(self) -> markov.TrajectoryConfig:  # drawn from one kernel throughout
        return self.stream._trajectory(getattr(self.kernels, self.stream.law))

    def resolved_mu(self) -> tuple[float, str]:
        return _resolve_mu(self.bounds.mu, self.truncation, "bounds.mu")


@_section
class BoundsConfig:
    delta: float
    mu: Mu
    threshold: float
    post_drift: float | None = None
    thresholds: tuple[float, ...] | None = None

    def __post_init__(self):
        _positive(self, "mu", "delta", "post_drift")
        self.resolved_mu()

    def resolved_mu(self) -> tuple[float, str]:
        return _resolve_mu(self.mu, None, "mu")


@_section
class MocapConfig:
    """AMC clip paths: the stream keeps ``splice_index`` frames of ``pre``, then all of ``post``."""

    pre: str
    post: str | None = None
    splice_index: int
    stride: int = mocap.ScenarioSpec.stride
    standardize: bool = mocap.ScenarioSpec.standardize


SCHEMAS = {
    "simulate": SimulateConfig,
    "train": TrainCommandConfig,
    "detect": DetectConfig,
    "sweep": SweepConfig,
    "bounds": BoundsConfig,
    "mocap": MocapConfig,
}


def load_config(command: str, raw, seed: int | None = None):
    """(the config dataclass of ``command`` built from ``raw``, its manifest echo).

    ``seed``, when given, replaces every ``seed`` of the config.
    """
    return _load(SCHEMAS[command], raw, "", seed)
