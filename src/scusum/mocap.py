"""CMU-format AMC motion-capture ingestion.

AMC files are plain text: ``#``-prefixed comments and ``:``-prefixed
directives in the header, then alternating frame-index lines (a single
integer) and bone lines (``bonename v1 v2 ...``). The first frame fixes the
bone order and per-bone channel counts; every later frame must match it, and
frame indices must increase by exactly one. Concatenating the channel groups
in bone order yields one joint-angle vector per frame (90-100 dimensions for
the usual CMU skeleton, including root translation).

On top of parsing, ``build_scenario`` splices a pre-activity segment onto a
post-activity clip to create a change-point stream of states, with
optional per-dimension z-scoring computed from the pre-change segment
(degenerate dimensions keep a unit divisor).

Raw CMU clips are not redistributed with this package; download them from
mocap.cs.cmu.edu and point the CLI at the local files. The test suite ships
tiny hand-written fixtures instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _textio
from .exceptions import AmcParseError, AmcStructureError

__all__ = [
    "AmcClip",
    "ScenarioSpec",
    "ScenarioResult",
    "parse_amc",
    "serialize_amc",
    "build_scenario",
]


@dataclass(frozen=True)
class AmcClip:
    """One parsed motion clip.

    ``values`` holds one row per frame, channels concatenated in bone order;
    ``channel_counts[i]`` channels belong to ``bone_order[i]``. ``n_lines``
    is the number of lines ``parse_amc`` read, blank and comment lines
    included (0 for a clip built in memory).
    """

    bone_order: tuple[str, ...]
    channel_counts: tuple[int, ...]
    values: np.ndarray
    frame_indices: tuple[int, ...]
    n_lines: int = 0

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def dimension(self) -> int:
        return int(sum(self.channel_counts))


def _is_frame_index(tokens: list[str]) -> bool:
    if len(tokens) != 1:
        return False
    tok = tokens[0]
    return tok.isdecimal() or (tok.startswith("-") and tok[1:].isdecimal())


def parse_amc(source) -> AmcClip:
    """Parse AMC text (a string, an open file, or an iterable of lines).

    One pass splits each line once and collects the channel value tokens of
    the bone lines; one numpy call per ``_textio.CONVERT_CELLS`` tokens converts
    them with ``float()``'s parser. Only if that fails, or a value is not
    finite, are those lines rescanned to name the first bad one.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [line.rstrip("\n") for line in source]

    cells: list[str] = []  # value tokens of the bone lines not yet converted
    blocks: list[np.ndarray] = []  # converted values, in line order
    names: list[str] = []  # per bone line
    counts: list[int] = []
    linenos: list[int] = []
    indices: list[int] = []  # per frame
    starts: list[int] = []  # first bone line of each frame
    first = 0  # first bone line whose tokens are in cells

    def convert() -> None:
        # an earlier bad value wins over any later error, as in a line-by-line parse
        nonlocal first
        values = _textio.finite_floats(cells)
        if values is not None:
            blocks.append(values)
            cells.clear()
            first = len(names)
            return
        off = 0
        for name, count, lineno in zip(names[first:], counts[first:], linenos[first:]):
            floats = []
            for tok in cells[off : off + count]:
                try:
                    floats.append(float(tok))
                except ValueError:
                    raise AmcParseError(
                        f"non-numeric channel value '{tok}' for bone '{name}'", lineno
                    ) from None
            if not all(map(math.isfinite, floats)):
                raise AmcParseError(f"non-finite channel value for bone '{name}'", lineno)
            off += count
        raise AssertionError("rescan found no bad value")

    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] in "#:":
            continue
        if len(tokens) == 1 and _is_frame_index(tokens):
            indices.append(int(tokens[0]))
            starts.append(len(names))
            continue
        if not indices:
            raise AmcStructureError(f"line {lineno}: bone data before the first frame index")
        if len(tokens) < 2:
            convert()
            raise AmcParseError(f"bone line for '{tokens[0]}' has no channel values", lineno)
        names.append(tokens[0])
        counts.append(len(tokens) - 1)
        linenos.append(lineno)
        cells += tokens[1:]
        if len(cells) >= _textio.CONVERT_CELLS:
            convert()
    convert()
    values = np.concatenate(blocks)

    if not indices:
        return AmcClip(bone_order=(), channel_counts=(), values=np.empty((0, 0)), frame_indices=(),
                       n_lines=len(lines))

    starts.append(len(names))
    bone_order = tuple(names[: starts[1]])
    if len(set(bone_order)) != len(bone_order):
        raise AmcStructureError("duplicate bone name in the first frame")
    channel_counts = tuple(counts[: starts[1]])
    if not bone_order:
        raise AmcStructureError(f"frame {indices[0]} has no bone data")

    expected = indices[0]
    for f, index in enumerate(indices):
        if index != expected:
            raise AmcStructureError(
                f"frame index {index} follows {expected - 1}; indices must increase by 1"
            )
        expected += 1
        lo, hi = starts[f], starts[f + 1]
        frame_names, frame_counts = tuple(names[lo:hi]), tuple(counts[lo:hi])
        if frame_names != bone_order or frame_counts != channel_counts:
            raise AmcStructureError(
                f"frame {index} bone layout {frame_names}/{frame_counts} "
                "does not match the first frame"
            )
    return AmcClip(
        bone_order=bone_order,
        channel_counts=channel_counts,
        values=values.reshape(len(indices), sum(channel_counts)),
        frame_indices=tuple(indices),
        n_lines=len(lines),
    )


def serialize_amc(clip: AmcClip) -> str:
    """Emit AMC text that reparses to an identical clip.

    Values are printed with ``repr`` so float round-tripping is exact.
    """
    spans, off = [], 0
    for name, count in zip(clip.bone_order, clip.channel_counts):
        spans.append((name + " ", off, off + count))
        off += count
    lines = ["#!Exported joint-angle clip", ":FULLY-SPECIFIED", ":DEGREES"]
    rows = np.asarray(clip.values, dtype=np.float64).tolist()
    for index, row in zip(clip.frame_indices, rows):
        lines.append(str(index))
        lines.extend(prefix + " ".join(map(repr, row[lo:hi])) for prefix, lo, hi in spans)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ScenarioSpec:
    """Splice a pre-activity segment onto a post-activity clip.

    The stream keeps the first ``splice_index`` (post-stride) frames of the
    pre clip and then the whole post clip, so the true change sits at stream
    position ``splice_index`` (0-based). ``post_clip=None`` builds a pure
    pre-change stream; a clip with no frames is rejected.
    """

    pre_clip: AmcClip
    post_clip: AmcClip | None
    splice_index: int
    stride: int = 1
    standardize: bool = True

    def __post_init__(self):
        if self.splice_index < 1:
            raise ValueError("splice_index must be a positive integer")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


@dataclass(frozen=True)
class ScenarioResult:
    change_index: float  # position of the first post-change frame, inf if none
    states: np.ndarray
    state_mean: np.ndarray | None
    state_scale: np.ndarray | None


def build_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Assemble the change-point stream for one activity transition; consecutive states pair up."""
    for name, clip in (("pre", spec.pre_clip), ("post", spec.post_clip)):
        if clip is not None and clip.n_frames < 1:
            raise ValueError(f"{name} clip has no frames")
    pre = spec.pre_clip.values[:: spec.stride]
    if spec.splice_index > pre.shape[0]:
        raise ValueError(
            f"splice_index {spec.splice_index} exceeds pre segment length {pre.shape[0]}"
        )
    pre = pre[: spec.splice_index]

    if spec.post_clip is None:
        states = pre
        change_index = math.inf
    else:
        post = spec.post_clip.values[:: spec.stride]
        if post.shape[1] != pre.shape[1]:
            raise ValueError(
                f"clip dimensions differ: pre {pre.shape[1]} vs post {post.shape[1]}"
            )
        states = np.concatenate([pre, post])
        change_index = float(spec.splice_index)

    mean = scale = None
    if spec.standardize:
        mean = pre.mean(axis=0)
        scale = pre.std(axis=0)
        scale = np.where(scale == 0.0, 1.0, scale)  # unit divisor for flat dims
        states = (states - mean) / scale
    elif states is pre:
        states = pre.copy()  # not a view of the clip

    if states.shape[0] < 2:
        raise ValueError("scenario needs at least 2 frames to form a transition pair")
    return ScenarioResult(
        change_index=change_index,
        states=states,
        state_mean=mean,
        state_scale=scale,
    )
