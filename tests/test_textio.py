"""Text formats: byte-exact output, exact round trips, rejected input.

The files under ``fixtures/golden`` hold the bytes the writers produced
before they were moved out of per-value Python loops (``csv.writer`` rows of
``repr(float(v))`` cells); every writer must still produce them exactly.
"""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scusum import _textio, detector, markov, mocap
from scusum.cli import EXIT_DATA, main
from scusum.exceptions import AmcError, AmcParseError, AmcStructureError, DataError, TrajectoryCsvError
from scusum.markov import read_trajectory_csv
from scusum.mocap import AmcClip, parse_amc, serialize_amc

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"

MAX = 1.7976931348623157e308
TINY = 5e-324
SPECIAL = np.array([
    [0.0, -0.0, TINY, -TINY],
    [MAX, -MAX, 0.1, 1.0 / 3.0],
    [1e16, 1e-7, -2.5, 123456789.125],
    [2.0**-1022, 1e22, -1e-300, 3.141592653589793],
])
KERNEL = {"dim": 3, "alpha": 0.3, "sigma": 0.3, "shift": 0.2}
POST = {"dim": 3, "alpha": 0.6, "sigma": 0.5, "shift": 0.9}


def _cli(tmp, command, payload, out):
    config = tmp / f"{out}.json"
    config.write_text(json.dumps(payload))
    assert main([command, "--config", str(config), "--out", str(tmp / out)]) == 0
    return tmp / out


def _trajectory_special(tmp):
    markov.write_trajectory_csv(tmp / "t.csv", SPECIAL, post_from=2)
    return (tmp / "t.csv").read_bytes()


def _trajectory_empty(tmp):
    markov.write_trajectory_csv(tmp / "t.csv", np.empty((0, 3)), post_from=math.inf)
    return (tmp / "t.csv").read_bytes()


def _trajectory_no_regime(tmp):
    markov.write_trajectory_csv(tmp / "t.csv", SPECIAL)
    return (tmp / "t.csv").read_bytes()


def _trace_special(tmp):
    detector.write_trace_csv(tmp / "t.csv", SPECIAL[:, 0], SPECIAL[:, 1])
    return (tmp / "t.csv").read_bytes()


def _serialize_fixture(tmp):
    return serialize_amc(parse_amc((FIXTURES / "walk_ten_frames.amc").read_text())).encode()


def _serialize_special(tmp):
    clip = AmcClip(("root", "lowerback", "hand"), (2, 1, 1), SPECIAL, (7, 8, 9, 10))
    return serialize_amc(clip).encode()


def _simulate(tmp):
    out = _cli(tmp, "simulate", {"kernel": KERNEL, "post_kernel": POST, "change_point": 20,
                                 "length": 40, "seed": 5}, "sim")
    return out / "trajectory.csv"


def _simulate_trajectory(tmp):
    return _simulate(tmp).read_bytes()


def _mocap(tmp):
    return _cli(tmp, "mocap", {"pre": str(FIXTURES / "walk_ten_frames.amc"),
                               "post": str(FIXTURES / "jump_eight_frames.amc"),
                               "splice_index": 6, "standardize": True}, "mocap")


def _mocap_states(tmp):
    return (_mocap(tmp) / "states.csv").read_bytes()


def _mocap_pairs(tmp):
    return (_mocap(tmp) / "pairs.csv").read_bytes()


def _detect_trace(tmp):
    out = _cli(tmp, "detect", {"kernels": {"pre": KERNEL, "post": POST},
                               "data": {"csv": str(_simulate(tmp))},
                               "detector": {"threshold": 50.0, "truncation": 30.0}}, "detect")
    return (out / "trace.csv").read_bytes()


def _sweep(tmp):
    # truncation 5 puts the heuristic mu at 10.25, between the thresholds, so
    # bounds.csv has NaN rows; no alarm at b = 1000 gives sweep.csv a NaN mean
    return _cli(tmp, "sweep", {"kernels": {"pre": KERNEL, "post": POST},
                               "stream": {"law": "pre", "length": 400, "seed": 3},
                               "thresholds": [4.0, 10.25, 12.0, 1000.0], "truncation": 5.0,
                               "compare_untruncated": True,
                               "bounds": {"mu": {"heuristic": {}}}}, "sweep")


def _sweep_sweep(tmp):
    return (_sweep(tmp) / "sweep.csv").read_bytes()


def _sweep_untruncated(tmp):
    return (_sweep(tmp) / "sweep_untruncated.csv").read_bytes()


def _sweep_bounds(tmp):
    return (_sweep(tmp) / "bounds.csv").read_bytes()


def _bounds_bounds(tmp):
    out = _cli(tmp, "bounds", {"delta": 1.0, "mu": 2.0, "threshold": 4.0,
                               "thresholds": [1.0, 2.0, 2.5, 4.0, 10.0]}, "bounds")
    return (out / "bounds.csv").read_bytes()


PRODUCERS = {
    "trajectory_special.csv": _trajectory_special,
    "trajectory_empty.csv": _trajectory_empty,
    "trajectory_no_regime.csv": _trajectory_no_regime,
    "trace_special.csv": _trace_special,
    "serialize_walk_ten_frames.amc": _serialize_fixture,
    "serialize_special.amc": _serialize_special,
    "simulate_trajectory.csv": _simulate_trajectory,
    "mocap_states.csv": _mocap_states,
    "mocap_pairs.csv": _mocap_pairs,
    "detect_trace.csv": _detect_trace,
    "sweep_sweep.csv": _sweep_sweep,
    "sweep_sweep_untruncated.csv": _sweep_untruncated,
    "sweep_bounds.csv": _sweep_bounds,
    "bounds_bounds.csv": _bounds_bounds,
}


@pytest.mark.parametrize("chunk_rows", [None, 1, 3])
@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_output_bytes_match_golden(tmp_path, monkeypatch, name, chunk_rows):
    # small chunks put chunk boundaries inside every file, inside the
    # trajectory CSV that detect reads back and inside the parsed AMC values
    if chunk_rows is not None:
        monkeypatch.setattr(_textio, "CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(_textio, "CONVERT_CELLS", chunk_rows)
    assert PRODUCERS[name](tmp_path) == (GOLDEN / name).read_bytes()


def test_loss_curve_is_csv_writer_rendering_of_the_epoch_losses(tmp_path):
    # training bits depend on the BLAS build, so the run's own losses are the reference
    out = _cli(tmp_path, "train", {"data": {"kernel": KERNEL, "pairs": 64, "seed": 2},
                                   "architecture": {"hidden_widths": [4]},
                                   "training": {"batch_size": 16, "epochs": 3}}, "train")
    losses = [e["loss"] for e in json.loads((out / "metrics.json").read_text())["epochs"]]
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["epoch", "loss"])
    for i, loss in enumerate(losses):
        writer.writerow([i, repr(loss)])
    assert len(losses) == 3
    assert (out / "loss_curve.csv").read_bytes() == expected.getvalue().encode()


def test_bad_trajectory_arguments_leave_no_file(tmp_path):
    with pytest.raises(ValueError, match=r"\(n, d\)"):
        markov.write_trajectory_csv(tmp_path / "t.csv", SPECIAL[0])
    assert not (tmp_path / "t.csv").exists()


# ---------------------------------------------------------------------------
# exact round trips
# ---------------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
# a trajectory CSV holds at least one transition pair: two rows
state_arrays = st.tuples(st.integers(2, 6), st.integers(1, 5)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=finite)
)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@settings(max_examples=60, deadline=None)
@given(states=state_arrays, with_regime=st.booleans())
@example(states=SPECIAL, with_regime=True)
@example(states=np.array([[-0.0], [TINY], [-TINY], [MAX], [-MAX]]), with_regime=False)
def test_trajectory_csv_round_trip_is_bitwise(tmp_path_factory, states, with_regime):
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    markov.write_trajectory_csv(path, states, post_from=math.inf if with_regime else None)
    back = read_trajectory_csv(path)
    assert back.shape == states.shape
    assert np.array_equal(_bits(back), _bits(states))


bone_layouts = st.lists(
    st.tuples(st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True), st.integers(1, 4)),
    min_size=1, max_size=5, unique_by=lambda bone: bone[0],
)


@settings(max_examples=60, deadline=None)
@given(layout=bone_layouts, n_frames=st.integers(1, 4), first=st.integers(-3, 1000), data=st.data())
def test_amc_serialize_then_parse_is_lossless(layout, n_frames, first, data):
    counts = tuple(count for _, count in layout)
    values = data.draw(arrays(np.float64, (n_frames, sum(counts)), elements=finite))
    clip = AmcClip(tuple(name for name, _ in layout), counts, values,
                   tuple(range(first, first + n_frames)))
    again = parse_amc(serialize_amc(clip))
    assert (again.bone_order, again.channel_counts, again.frame_indices) == (
        clip.bone_order, clip.channel_counts, clip.frame_indices)
    assert np.array_equal(_bits(again.values), _bits(values))


# ---------------------------------------------------------------------------
# rejected AMC input: class, message and line as before the rewrite
# ---------------------------------------------------------------------------

AMC_ERRORS = [
    ((FIXTURES / "bad_frame_gap.amc").read_text(), AmcStructureError,
     "frame index 3 follows 1; indices must increase by 1", None),
    ((FIXTURES / "bad_bone_mismatch.amc").read_text(), AmcStructureError,
     "frame 2 bone layout ('root', 'upperneck')/(6, 3) does not match the first frame", None),
    ((FIXTURES / "bad_value.amc").read_text(), AmcParseError,
     "line 6: non-numeric channel value 'oops' for bone 'lowerback'", 6),
    (":DEGREES\nroot 1.0 2.0\n", AmcStructureError,
     "line 2: bone data before the first frame index", None),
    ("1\nroot 1.0\nlowerback\n", AmcParseError,
     "line 3: bone line for 'lowerback' has no channel values", 3),
    # an earlier non-finite value is reported before a later malformed one
    ("1\nroot nan 1.0\n2\nroot oops 1.0\n", AmcParseError,
     "line 2: non-finite channel value for bone 'root'", 2),
    ("1\nroot 1.0 2.0\n2\nroot 1.0 -inf\n", AmcParseError,
     "line 4: non-finite channel value for bone 'root'", 4),
    ("1\nroot 1.0 1e309\n", AmcParseError, "line 2: non-finite channel value for bone 'root'", 2),
    # a bad value is reported before a later line or frame error
    ("1\nroot nan 1.0\nlowerback\n", AmcParseError,
     "line 2: non-finite channel value for bone 'root'", 2),
    ("1\nroot oops 1.0\n2\n3\nroot\n", AmcParseError,
     "line 2: non-numeric channel value 'oops' for bone 'root'", 2),
    ("1\nroot 1e999\nhand 2\n2\nroot 1\n", AmcParseError,
     "line 2: non-finite channel value for bone 'root'", 2),
    ("1\nroot 1.0 2.0\n1\nroot 1.0 2.0\n", AmcStructureError,
     "frame index 1 follows 1; indices must increase by 1", None),
    ("1\nroot 1 2\nroot 3 4\n", AmcStructureError, "duplicate bone name in the first frame", None),
]


@pytest.mark.parametrize("text, cls, message, line", AMC_ERRORS)
@pytest.mark.parametrize("as_file", [False, True])
@pytest.mark.parametrize("convert_cells", [None, 1, 3])
def test_amc_errors_keep_class_message_and_line(tmp_path, monkeypatch, text, cls, message, line,
                                                as_file, convert_cells):
    # small conversion blocks put block boundaries between the bad lines
    if convert_cells is not None:
        monkeypatch.setattr(_textio, "CONVERT_CELLS", convert_cells)
    if as_file:
        (tmp_path / "clip.amc").write_text(text)
        source = open(tmp_path / "clip.amc")
    else:
        source = text
    with pytest.raises(cls) as err:
        parse_amc(source)
    if as_file:
        source.close()
    assert type(err.value) is cls
    assert str(err.value) == message
    assert getattr(err.value, "line_number", None) == line


@pytest.mark.parametrize("text, message", [
    # both raised a bare ValueError from numpy or int() before
    ("1\n2\n", "frame 1 has no bone data"),
    ("1\nroot 1.0\n²\n", "line 3: bone line for '²' has no channel values"),
])
def test_amc_defects_are_data_errors(text, message):
    with pytest.raises(AmcStructureError if "frame" in message else AmcParseError, match=message):
        parse_amc(text)


# ---------------------------------------------------------------------------
# rejected trajectory CSVs
# ---------------------------------------------------------------------------

GOOD_ROWS = "x0,x1,regime\r\n0.1,0.2,pre\r\n0.3,0.4,pre\r\n0.5,0.6,post\r\n"


@pytest.mark.parametrize("body, message", [
    ("0.1,0.2,pre\r\nnan,0.4,pre\r\n0.5,0.6,post\r\n", "t.csv:3: non-finite value"),
    ("0.1,0.2,pre\r\n0.3,0.4,pre\r\n0.5,-inf,post\r\n", "t.csv:4: non-finite value"),
    ("0.1,0.2,pre\r\n0.3,1e400,pre\r\n", "t.csv:3: non-finite value"),
    ("0.1,0.2,pre\r\n0.3,0.4,9.9,pre\r\n", "t.csv:3: row has 4 fields, the header 3"),
    ("0.1,0.2,pre\r\n0.3,pre\r\n", "t.csv:3: row has 2 fields, the header 3"),
    ("0.1,0.2,pre\r\n\r\n0.3,0.4,pre\r\n", "t.csv:3: row has 0 fields, the header 3"),
    ("0.1,oops,pre\r\n0.3,nan,pre\r\n", "t.csv:2: malformed trajectory row"),
])
def test_bad_trajectory_rows_name_their_line(tmp_path, body, message):
    path = tmp_path / "t.csv"
    path.write_text("x0,x1,regime\r\n" + body, newline="")
    with pytest.raises(TrajectoryCsvError, match=message) as caught:
        read_trajectory_csv(path)
    assert isinstance(caught.value, DataError) and not isinstance(caught.value, AmcError)


@pytest.mark.parametrize("bad_row, message", [
    ("0.3,oops,pre", "malformed trajectory row"),
    ("0.3,nan,pre", "non-finite value in trajectory row"),
    ("0.3,1e400,pre", "non-finite value in trajectory row"),
    ("0.3,pre", "row has 2 fields, the header 3"),
])
@pytest.mark.parametrize("convert_cells", [None, 1, 3])
def test_bad_row_past_the_first_conversion_block_names_its_line(tmp_path, monkeypatch, bad_row, message,
                                                                convert_cells):
    # 5,000 good rows fill more than one default block of cells; the row
    # with a field-count error after the bad one must not win over it
    if convert_cells is not None:
        monkeypatch.setattr(_textio, "CONVERT_CELLS", convert_cells)
    path = tmp_path / "t.csv"
    rows = ["0.1,0.2,pre"] * 5000 + [bad_row, "0.3,0.4,9.9,pre"] + ["0.5,0.6,post"] * 10
    assert 2 * 5000 > _textio.CONVERT_CELLS
    path.write_text("x0,x1,regime\r\n" + "\r\n".join(rows) + "\r\n", newline="")
    with pytest.raises(TrajectoryCsvError, match=f"t.csv:5002: {message}"):
        read_trajectory_csv(path)


def test_trajectory_cells_parse_as_float_does(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x0,x1\n 1_0 ,+.5\n١٢,-0\n")
    back = read_trajectory_csv(path)
    assert np.array_equal(_bits(back), _bits(np.array([[10.0, 0.5], [12.0, -0.0]])))
    assert back.flags.c_contiguous


def _run_on_csv(tmp_path, command, data):
    """Exit code of ``train`` or ``detect`` reading the trajectory CSV ``data``."""
    kernel = {"dim": 2, "alpha": 0.3, "sigma": 0.3}
    payload = {
        "train": {"data": {"csv": str(data)}, "architecture": {"hidden_widths": [4]},
                  "training": {"batch_size": 2, "epochs": 1}},
        "detect": {"kernels": {"pre": kernel, "post": {**kernel, "shift": 1.0}},
                   "data": {"csv": str(data)}, "detector": {"threshold": 5.0}},
    }[command]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    return main([command, "--config", str(config), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("command", ["train", "detect"])
@pytest.mark.parametrize("bad_row", ["nan,0.4,pre", "inf,0.4,pre", "0.3,0.4,9.9,pre", "0.3,pre"])
def test_bad_trajectory_csv_exits_3(tmp_path, capsys, command, bad_row):
    # before, NaN and inf exited 4 (diverged loss, non-finite score) and a
    # long row was cut to the header's width
    data = tmp_path / "t.csv"
    data.write_text(GOOD_ROWS + bad_row + "\r\n" + GOOD_ROWS.split("\r\n", 1)[1], newline="")
    assert _run_on_csv(tmp_path, command, data) == EXIT_DATA
    assert f"{data}:5" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "detect"])
@pytest.mark.parametrize("rows", [0, 1])
def test_trajectory_csv_without_a_pair_exits_3(tmp_path, capsys, command, rows):
    data = tmp_path / "t.csv"
    data.write_text("\r\n".join(GOOD_ROWS.split("\r\n")[: 1 + rows]) + "\r\n", newline="")
    assert _run_on_csv(tmp_path, command, data) == EXIT_DATA
    assert f"error: {data}: trajectory has {rows} rows, need at least 2" in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()
