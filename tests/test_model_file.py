"""``model.bin`` loading: a corrupt or truncated file raises ``ModelFileError``
(exit 3 from the CLI), and only a benign header edit loads at all."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scusum.cli import EXIT_DATA, main
from scusum.exceptions import ModelFileError
from scusum.scorenet import MlpArchitecture, MlpParameters, init_params, load_model, save_model

MAGIC_LEN = 9  # b"SCUSUMNET"
HEADER_START = MAGIC_LEN + 8  # then the uint32 format version and header length


def standardized_params():
    base = init_params(MlpArchitecture(input_dim=4, hidden_widths=(3, 5), output_dim=2), 4)
    return MlpParameters(base.arch, base.weights, base.biases,
                         np.array([0.5, -1.0]), np.array([2.0, 0.25]))


PARAMS = standardized_params()


@pytest.fixture(scope="module")
def model_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.bin"
    save_model(PARAMS, path)
    return path.read_bytes()


def header_length(data):
    return int.from_bytes(data[MAGIC_LEN + 4:HEADER_START], "little")


def same_parameters(loaded, params):
    return (loaded.arch == params.arch
            and all(np.array_equal(a, b) for a, b in zip(loaded.weights, params.weights))
            and all(np.array_equal(a, b) for a, b in zip(loaded.biases, params.biases))
            and np.array_equal(loaded.state_mean, params.state_mean)
            and np.array_equal(loaded.state_scale, params.state_scale))


def load_bytes(tmp_path, data):
    path = tmp_path / "model.bin"
    path.write_bytes(data)
    return load_model(path)


def with_header(data, header: dict):
    blob = json.dumps(header).encode()
    return (data[:MAGIC_LEN + 4] + len(blob).to_bytes(4, "little") + blob
            + data[HEADER_START + header_length(data):])


def test_error_carries_the_path_and_stays_a_value_error(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"junk")
    with pytest.raises(ModelFileError) as info:
        load_model(path)
    assert info.value.path == path
    assert str(path) in str(info.value)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d[:MAGIC_LEN + 2], "ends inside the header"),
    (lambda d: d[:MAGIC_LEN] + (2).to_bytes(4, "little") + d[MAGIC_LEN + 4:],
     "unsupported model format version 2"),
    (lambda d: d[:MAGIC_LEN + 4] + (10**6).to_bytes(4, "little") + d[HEADER_START:],
     "runs past the end"),
    (lambda d: d[:HEADER_START] + b"\xff" + d[HEADER_START + 1:], "not UTF-8 JSON"),
    (lambda d: d[:HEADER_START + header_length(d) - 1] + b" " + d[HEADER_START + header_length(d):],
     "not UTF-8 JSON"),
    (lambda d: d[:-8], "ends inside the parameters"),
    (lambda d: d + b"\0", "trailing bytes"),
    (lambda d: d[:-8] + np.array(np.nan, "<f8").tobytes(), "non-finite"),
])
def test_corruption_is_named(tmp_path, model_bytes, edit, message):
    with pytest.raises(ModelFileError, match=message):
        load_bytes(tmp_path, edit(model_bytes))


@pytest.mark.parametrize("change", [
    {"input_dim": "4"}, {"hidden_widths": [3.5, 5]}, {"hidden_widths": [True, 5]},
    {"standardized": 1}, {"output_dim": 3}, {"activation": "relu"}, {"extra": 1},
])
def test_header_keys_and_types_are_checked(tmp_path, model_bytes, change):
    header = {"format": "scusum score network", "input_dim": 4, "hidden_widths": [3, 5],
              "output_dim": 2, "activation": "silu", "standardized": True}
    assert same_parameters(load_bytes(tmp_path, with_header(model_bytes, header)), PARAMS)
    with pytest.raises(ModelFileError):
        load_bytes(tmp_path, with_header(model_bytes, {**header, **change}))


def test_header_must_be_an_object(tmp_path, model_bytes):
    with pytest.raises(ModelFileError, match="header does not hold"):
        load_bytes(tmp_path, with_header(model_bytes, [1, 2]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_truncation_or_one_byte_edit_is_named_or_harmless(tmp_path_factory, model_bytes, data):
    tmp = tmp_path_factory.mktemp("edit")
    if data.draw(st.booleans()):
        edited = model_bytes[:data.draw(st.integers(0, len(model_bytes) - 1))]
    else:
        # a byte of the magic, the version, the header length or the header
        at = data.draw(st.integers(0, HEADER_START + header_length(model_bytes) - 1))
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != model_bytes[at]))
        edited = model_bytes[:at] + bytes([byte]) + model_bytes[at + 1:]
    try:
        loaded = load_bytes(tmp, edited)
    except ModelFileError:
        return
    assert same_parameters(loaded, PARAMS)


def test_benign_header_edit_loads(tmp_path, model_bytes):
    at = model_bytes.index(b"score network")
    edited = model_bytes[:at] + b"S" + model_bytes[at + 1:]
    assert same_parameters(load_bytes(tmp_path, edited), PARAMS)


def test_cli_exits_3_on_a_corrupt_model(tmp_path, model_bytes, capsys):
    model = tmp_path / "model.bin"
    model.write_bytes(model_bytes[:-3])
    config = tmp_path / "detect.json"
    config.write_text(json.dumps({
        "models": {"pre": str(model), "post": str(model)},
        "data": {"csv": str(tmp_path / "unused.csv")},
        "detector": {"threshold": 10.0},
    }))
    assert main(["detect", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(model) in err and "ends inside the parameters" in err


@pytest.mark.parametrize("widths", [(4.5,), (True,), (4.0,), ("4",)])
def test_architecture_rejects_non_integer_widths(widths):
    with pytest.raises(ValueError, match="hidden widths must be integers"):
        MlpArchitecture(input_dim=4, hidden_widths=widths, output_dim=2)


def test_architecture_accepts_numpy_integer_widths():
    arch = MlpArchitecture(input_dim=4, hidden_widths=(np.int64(3),), output_dim=2)
    assert arch.hidden_widths == (3,) and type(arch.hidden_widths[0]) is int
