"""The config schema of the ``scusum`` commands, and its one loader.

The frozen dataclasses below (with ``markov.GaussianKernelSpec`` for every
kernel and ``scorenet.TrainConfig`` for ``training``) are the schema: their
fields are the keys, their annotations the JSON kinds and their defaults the
only defaults. ``load_config`` checks every value against them (the rules are
listed in ``scusum.cli``), then builds them, so their own ``__post_init__``
checks run too; each error names its dotted key. ``scusum.cli`` imports this
module when a command runs, not at its own import: building the dataclasses
takes about three times as long as loading the rest of ``scusum.cli``.
"""

from __future__ import annotations

import json
import math
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
# take no negative seed, a burn-in is a step count and training needs a pair
_MINIMUM = {"seed": 0, "burn_in": 0, "pairs": 1}


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
        if f.name in _MINIMUM and value < _MINIMUM[f.name]:
            raise ValueError(f"{here} must be >= {_MINIMUM[f.name]}, got {value}")
    try:
        return cls(**built), echo
    except _FieldError as err:
        raise ValueError(f"{path + '.' if path else ''}{err}") from None
    except ValueError as err:  # the dataclass's own range checks
        raise ValueError(f"{path or 'config'}: {err}") from None


class _FieldError(ValueError):
    """A section's check of one of its fields, whose message starts with the field's name."""


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

    def __post_init__(self):
        if self.length < self.min_length:
            raise ValueError(f"length must be >= {self.min_length}, got {self.length}")

    def trajectory(self, pre, post=None, change_point=math.inf) -> markov.TrajectoryConfig:
        return markov.TrajectoryConfig(pre=pre, post=post, change_point=change_point,
                                       length=self.length, seed=self.seed, burn_in=self.burn_in)


@_section
class ChangeStreamConfig(StreamConfig):
    """``detect``'s ``data.simulate``: the kernels switch at ``change_point``."""

    change_point: ChangePoint = "infinity"


@_section
class SimulateConfig(ChangeStreamConfig):
    kernel: markov.GaussianKernelSpec
    post_kernel: markov.GaussianKernelSpec | None = None
    min_length: typing.ClassVar[int] = 0  # a written trajectory may be empty


@_section
class TrainDataConfig:
    """Training pairs: from ``csv`` (a trajectory) or simulated from ``kernel``."""

    kernel: markov.GaussianKernelSpec | None = None
    pairs: int = 50000
    seed: int = 1
    burn_in: int = markov.TrajectoryConfig.burn_in
    csv: str | None = None


@_section
class ArchitectureConfig:
    hidden_widths: tuple[int, ...] = (128, 128, 128)


@_section
class TrainCommandConfig:
    data: TrainDataConfig
    architecture: ArchitectureConfig
    training: scorenet.TrainConfig
    standardize: bool = False


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


@_section
class DetectorSettings:
    threshold: float
    truncation: float | None = None

    def __post_init__(self):
        try:
            detector.DetectorConfig(self.threshold, detector.TruncationSpec(self.truncation))
        except ValueError as err:
            raise _FieldError(err) from None


@_section
class DetectConfig:
    models: ModelsConfig
    kernels: KernelsConfig
    data: DetectDataConfig
    detector: DetectorSettings
    change_point: ChangePoint = None


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


@_section
class MuSpec:
    """``mu`` given as an object: exactly one of its two routes."""

    heuristic: HeuristicMu | None = None
    doeblin: DoeblinMu | None = None

    def __post_init__(self):
        if (self.heuristic is None) == (self.doeblin is None):
            raise ValueError("give exactly one of 'heuristic' and 'doeblin'")


Mu = float | MuSpec


@_section
class SweepBoundsConfig:
    mu: Mu
    delta: float | Literal["empirical"] = "empirical"
    post_drift: float | Literal["empirical"] = "empirical"


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
        try:
            detector.check_thresholds(self.thresholds)
            detector.TruncationSpec(self.truncation)
        except ValueError as err:
            raise _FieldError(err) from None


@_section
class BoundsConfig:
    delta: float
    mu: Mu
    threshold: float
    post_drift: float | None = None
    thresholds: tuple[float, ...] | None = None


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
