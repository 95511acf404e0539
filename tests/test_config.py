"""The typed config loader: every rejected value exits 2 naming its key, and
every valid config echoes in ``manifest.json`` byte for byte as before."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scusum import markov, scorenet
from scusum.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main
from scusum.config import SCHEMAS, load_config

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"

KERNEL = {"dim": 3, "alpha": 0.3, "sigma": 0.3, "shift": 0.2}
POST = {"dim": 3, "alpha": 0.6, "sigma": 0.5, "shift": 0.9}

# one small valid config per command; floats are written as floats and
# integers as integers, so a leaf's JSON type tells its field's type
VALID = {
    "simulate": {"kernel": KERNEL, "post_kernel": POST, "change_point": 5, "length": 10,
                 "seed": 1, "burn_in": 10},
    "train": {
        "data": {"kernel": KERNEL, "pairs": 64, "seed": 2, "burn_in": 10},
        "architecture": {"hidden_widths": [4]},
        "training": {"learning_rate": 0.001, "batch_size": 32, "epochs": 1, "seed": 3,
                     "optimizer": "adam", "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
                     "shuffle": True},
        "standardize": False,
    },
    "detect": {
        "models": {"pre": "closed_form", "post": "closed_form"},
        "kernels": {"pre": KERNEL, "post": POST},
        "data": {"simulate": {"change_point": 20, "length": 40, "seed": 4, "burn_in": 10}},
        "detector": {"threshold": 50.0, "truncation": 600.0},
        "change_point": 20,
    },
    "sweep": {
        "models": {"pre": "closed_form", "post": "closed_form"},
        "kernels": {"pre": KERNEL, "post": POST},
        "stream": {"law": "pre", "length": 200, "seed": 5, "burn_in": 10},
        "thresholds": [20.0, 40.0],
        "truncation": 600.0,
        "compare_untruncated": True,
        "bounds": {"mu": {"heuristic": {"factor": 2.05}}, "delta": "empirical"},
    },
    "bounds": {"delta": 1.0, "mu": {"doeblin": {"l": 1, "lam": 0.5, "norm_phi": 0.25}},
               "threshold": 4.0, "post_drift": 5.0, "thresholds": [4.0, 8.0]},
    "mocap": {"pre": str(FIXTURES / "walk_ten_frames.amc"),
              "post": str(FIXTURES / "jump_eight_frames.amc"),
              "splice_index": 6, "stride": 1, "standardize": True},
}

# leaves where any string is valid: model references and file paths
FREE_STRINGS = {
    ("detect", "models.pre"), ("detect", "models.post"),
    ("sweep", "models.pre"), ("sweep", "models.post"),
    ("mocap", "pre"), ("mocap", "post"),
}


def run(tmp, command, payload, extra=()):
    config = Path(tmp) / "config.json"
    config.write_text(json.dumps(payload))
    out = Path(tmp) / "out"
    return main([command, "--config", str(config), "--out", str(out), *extra]), out


def with_leaf(payload, path, value):
    """A deep copy of ``payload`` with the leaf at ``path`` (keys and indices) replaced."""
    copy = json.loads(json.dumps(payload))
    node = copy
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return copy


def leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, (*path, i))
    else:
        yield path, node


def objects(node, path=()):
    if isinstance(node, dict):
        yield path
        for key, value in node.items():
            yield from objects(value, (*path, key))


def dotted(path):
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else (f".{key}" if text else key)
    return text


# strings some field takes as a value: never drawn as a wrong one
SENTINELS = {"pre", "post", "empirical", "infinity", "closed_form", "adam", "sgd"}


def wrong_values(command, path, original):
    """Values of a JSON kind the leaf at ``path`` does not take."""
    kinds = [
        st.lists(st.booleans() | st.text(max_size=3), max_size=3),
        st.dictionaries(st.text(max_size=5), st.integers(), max_size=2),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    ]
    if (command, dotted(path)) not in FREE_STRINGS:
        kinds.append(st.text(max_size=12).filter(lambda s: s not in SENTINELS))
    if type(original) is not bool:
        kinds.append(st.booleans())
    if type(original) is int:
        kinds.append(st.floats(allow_nan=False, allow_infinity=False).filter(
            lambda x: x != int(x)))
    return st.one_of(kinds)


# ---------------------------------------------------------------------------
# defects the loader must reject
# ---------------------------------------------------------------------------

DEFECTS = [
    ("bounds", {"delta": math.nan, "mu": 2.0, "threshold": 4.0, "thresholds": [5.0]}, "delta"),
    ("bounds", {"delta": 1.0, "mu": 2.0, "threshold": 4.0, "post_drift": math.inf}, "post_drift"),
    ("bounds", {"delta": 1.0, "mu": True, "threshold": 4.0}, "mu"),
    ("bounds", {"delta": 1.0, "mu": {"doeblin": {"l": 1, "lam": 0.5, "norm_phi": math.nan}},
                "threshold": 40.0, "thresholds": [50.0]}, "mu.doeblin.norm_phi"),
    ("bounds", {"delta": 1.0, "mu": 2.0, "threshold": 4.0, "thresholds": 5}, "thresholds"),
    # an l past the float range exited 1 (OverflowError) when mu was computed
    ("bounds", {"delta": 1.0, "mu": {"doeblin": {"l": 10**400, "lam": 0.5, "norm_phi": 1.0}},
                "threshold": 4.0}, "mu.doeblin.l"),
    ("simulate", {"kernel": {**KERNEL, "alpha": True}, "length": 10}, "kernel.alpha"),
    ("simulate", {"kernel": {**KERNEL, "dim": 2.5}, "length": 10}, "kernel.dim"),
    ("simulate", {"kernel": KERNEL, "length": "10"}, "length"),
    ("simulate", {"kernel": KERNEL, "length": 10, "seed": 1.5}, "seed"),
    ("train", {"data": {"kernel": KERNEL, "pairs": 64}, "architecture": {"hidden_widths": [4.5]},
               "training": {"epochs": 1}}, "architecture.hidden_widths[0]"),
    ("train", {"data": {"kernel": KERNEL, "pairs": 64}, "training": {"shuffle": "no"}},
     "training.shuffle"),
    ("train", {"data": {"kernel": KERNEL, "pairs": 64}, "training": {"batch_size": True}},
     "training.batch_size"),
    ("train", {"data": {"kernel": KERNEL, "pairs": 64}, "training": {"epochs": 1.5}},
     "training.epochs"),
    ("sweep", {"kernels": {"pre": KERNEL, "post": POST}, "stream": {"length": 100},
               "thresholds": [10.0], "truncation": 600.0, "compare_untruncated": "yes"},
     "compare_untruncated"),
    ("sweep", {"kernels": {"pre": KERNEL, "post": POST}, "stream": {"length": 100},
               "thresholds": [10.0], "truncation": "x"}, "truncation"),
    ("mocap", {"pre": str(FIXTURES / "walk_ten_frames.amc"), "splice_index": 6, "stride": True},
     "stride"),
    ("mocap", {"pre": str(FIXTURES / "walk_ten_frames.amc"), "splice_index": 6.5},
     "splice_index"),
    ("detect", {"kernels": {"pre": KERNEL, "post": POST}, "data": {"simulate": {"length": 40}},
                "detector": {"threshold": math.inf}}, "detector.threshold"),
    ("detect", {"kernels": {"pre": KERNEL, "post": POST}, "data": {"simulate": {"length": 40}},
                "detector": {"threshold": 50.0}, "change_point": 2.5}, "change_point"),
    # numpy takes no negative seed; training.seed would fail only after the data stage
    ("simulate", with_leaf(VALID["simulate"], ("seed",), -1), "seed must be >= 0"),
    ("sweep", with_leaf(VALID["sweep"], ("stream", "seed"), -1), "stream.seed"),
    ("train", with_leaf(VALID["train"], ("data", "seed"), -1), "data.seed"),
    ("train", with_leaf(VALID["train"], ("training", "seed"), -1), "training.seed"),
    ("detect", with_leaf(VALID["detect"], ("data", "simulate", "seed"), -1), "data.simulate.seed"),
    # a negative burn-in and an empty training set were rejected only when the
    # stream was simulated, naming no key
    ("simulate", with_leaf(VALID["simulate"], ("burn_in",), -1), "burn_in must be >= 0, got -1"),
    ("sweep", with_leaf(VALID["sweep"], ("stream", "burn_in"), -1),
     "stream.burn_in must be >= 0, got -1"),
    ("train", with_leaf(VALID["train"], ("data", "burn_in"), -1), "data.burn_in must be >= 0, got -1"),
    ("detect", with_leaf(VALID["detect"], ("data", "simulate", "burn_in"), -1),
     "data.simulate.burn_in must be >= 0, got -1"),
    ("sweep", with_leaf(with_leaf(VALID["sweep"], ("stream", "burn_in"), -1),
                        ("models", "pre"), "no_such_model.bin"), "stream.burn_in"),
    ("train", with_leaf(VALID["train"], ("data", "pairs"), 0), "data.pairs must be >= 1, got 0"),
    ("train", with_leaf(VALID["train"], ("data", "pairs"), -5), "data.pairs must be >= 1, got -5"),
    # a scored stream needs one transition pair; the stream would be simulated first
    ("sweep", with_leaf(VALID["sweep"], ("stream", "length"), 1), "stream: length"),
    ("detect", with_leaf(VALID["detect"], ("data", "simulate"), {"length": 1}),
     "data.simulate: length"),
    # threshold and truncation ranges were checked only after the models were
    # read and the stream scored: a missing model file exited 5 first
    ("detect", with_leaf(with_leaf(VALID["detect"], ("detector", "threshold"), -5.0),
                         ("models", "pre"), "no_such_model.bin"),
     "detector.threshold must be positive, got -5.0"),
    ("detect", with_leaf(with_leaf(VALID["detect"], ("detector", "truncation"), 0.0),
                         ("models", "pre"), "no_such_model.bin"),
     "detector.truncation must be positive, got 0.0"),
    ("sweep", with_leaf(with_leaf(VALID["sweep"], ("thresholds",), [20.0, 10.0]),
                        ("models", "pre"), "no_such_model.bin"),
     "thresholds[1] = 10.0: thresholds must be positive and strictly increasing"),
    ("sweep", with_leaf(with_leaf(VALID["sweep"], ("thresholds",), [-1.0]),
                        ("models", "pre"), "no_such_model.bin"),
     "thresholds[0] = -1.0: thresholds must be positive"),
    ("sweep", with_leaf(with_leaf(VALID["sweep"], ("truncation",), 0.0),
                        ("models", "pre"), "no_such_model.bin"),
     "error: truncation must be positive, got 0.0"),
    # the bounds section was checked only after the whole stream was scanned,
    # and an explicit negative delta exited 4 as an estimate
    *(("sweep", with_leaf(with_leaf(VALID["sweep"], key, value), ("models", "pre"),
                          "no_such_model.bin"), message)
      for key, value, message in [
          (("truncation",), None,
           "bounds.mu.heuristic.truncation_level is required without a truncation"),
          (("bounds", "mu"), -5.0, "bounds.mu must be positive, got -5.0"),
          (("bounds", "mu", "heuristic", "factor"), 0.0,
           "bounds.mu.heuristic.factor must be positive, got 0.0"),
          (("bounds", "mu", "heuristic", "truncation_level"), -1.0,
           "bounds.mu.heuristic.truncation_level must be positive, got -1.0"),
          (("bounds", "mu"), {"doeblin": {"l": 1, "lam": 0.5, "norm_phi": 0.0}},
           "bounds.mu.doeblin.norm_phi must be positive, got 0.0"),
          (("bounds", "delta"), -1.0, "bounds.delta must be positive, got -1.0"),
          (("bounds", "post_drift"), 0, "bounds.post_drift must be positive, got 0"),
          (("bounds", "delta"), 700.0, "bounds.delta must be at most truncation = 600.0, got 700.0"),
          (("bounds", "post_drift"), 601,
           "bounds.post_drift must be at most truncation = 600.0, got 601"),
      ]),
    ("bounds", with_leaf(VALID["bounds"], ("mu",), {"heuristic": {}}),
     "mu.heuristic.truncation_level is required without a truncation"),
    ("bounds", with_leaf(VALID["bounds"], ("mu",), -2.0), "mu must be positive, got -2.0"),
    # checked only when the bound was evaluated, after mu was printed, naming no value
    ("bounds", with_leaf(VALID["bounds"], ("delta",), -1.0), "delta must be positive, got -1.0"),
    ("bounds", {"delta": 1.0, "mu": 2.0, "threshold": 4.0, "post_drift": 0},
     "post_drift must be positive, got 0"),
    # the bounds and the closed-form score divide by mu^2 and sigma^2: a square
    # that underflows exited 1 with a ZeroDivisionError, one that overflows with
    # an OverflowError
    ("bounds", {"delta": 1e300, "mu": 1e-300, "threshold": 1e300},
     "mu must have a normal float square, got 1e-300 (explicit)"),
    ("bounds", with_leaf(VALID["bounds"], ("mu",), 1e200), "mu must have a normal float square"),
    ("bounds", with_leaf(VALID["bounds"], ("mu", "doeblin", "norm_phi"), 1e-300),
     "mu must have a normal float square, got 8e-300 (doeblin constants)"),
    ("sweep", with_leaf(VALID["sweep"], ("kernels", "pre", "sigma"), 1e-200),
     "kernels.pre.sigma must be positive with a normal float square, got 1e-200"),
    ("sweep", with_leaf(VALID["sweep"], ("kernels", "post", "sigma"), 1e200),
     "kernels.post.sigma must be positive with a normal float square, got 1e+200"),
    ("sweep", with_leaf(VALID["sweep"], ("truncation",), 5e-324),
     "bounds.mu must have a normal float square, got 1e-323 (heuristic (2.05 * truncation level))"),
    ("detect", with_leaf(VALID["detect"], ("kernels", "pre", "sigma"), 1e-160),
     "kernels.pre.sigma must be positive with a normal float square"),
    ("train", with_leaf(VALID["train"], ("data", "kernel", "sigma"), 1e-200),
     "data.kernel.sigma must be positive with a normal float square"),
]


@pytest.mark.parametrize("command, payload, key", DEFECTS,
                         ids=[f"{c}-{k}" for c, _, k in DEFECTS])
def test_bad_value_exits_2_naming_its_key(tmp_path, capsys, command, payload, key):
    code, out = run(tmp_path, command, payload)
    assert code == EXIT_USAGE
    assert key in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def _without(payload, *keys):
    """A deep copy of ``payload`` without the keys at the ``keys`` paths."""
    copy = json.loads(json.dumps(payload))
    for path in keys:
        node = copy
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return copy


NO_MODEL = {"pre": "no_such_model.bin", "post": "no_such_model.bin"}
DETECT_CSV = {**VALID["detect"], "data": {"csv": "no_such.csv"}}

# rules across sections that the commands checked only once they ran, after
# the load; each names its dotted key, and none opens a model file
CROSS_FIELD = [
    ("simulate", with_leaf(VALID["simulate"], ("change_point",), 0),
     "change_point must be >= 1, got 0"),
    ("simulate", _without(VALID["simulate"], ("post_kernel",)),
     "change_point = 5 requires a post-change kernel"),
    ("simulate", with_leaf(VALID["simulate"], ("change_point",), 11),
     "change_point must be <= length = 10, got 11"),
    ("simulate", with_leaf(VALID["simulate"], ("post_kernel", "dim"), 2),
     "post_kernel.dim must equal kernel.dim = 3, got 2"),
    ("detect", with_leaf(_without(VALID["detect"], ("kernels", "pre")), ("models",), NO_MODEL),
     "data.simulate requires kernels.pre"),
    ("detect", with_leaf(_without(VALID["detect"], ("kernels", "post")), ("models",), NO_MODEL),
     "data.simulate.change_point = 20 requires a post-change kernel"),
    ("detect", with_leaf(_without(VALID["detect"], ("change_point",)),
                         ("data", "simulate", "change_point"), 41),
     "data.simulate.change_point must be <= length = 40, got 41"),
    ("detect", with_leaf(_without(VALID["detect"], ("change_point",)),
                         ("data", "simulate", "change_point"), 0),
     "data.simulate.change_point must be >= 1, got 0"),
    ("detect", with_leaf(DETECT_CSV, ("change_point",), -3), "change_point must be >= 1, got -3"),
    ("detect", _without(DETECT_CSV, ("kernels", "post")),
     "models.post = closed_form requires kernels.post"),
    ("detect", with_leaf(DETECT_CSV, ("kernels", "post", "dim"), 2),
     "kernels.post.dim must equal kernels.pre.dim = 3, got 2"),
    ("sweep", with_leaf(with_leaf(VALID["sweep"], ("kernels", "post", "dim"), 2), ("models",), NO_MODEL),
     "kernels.post.dim must equal kernels.pre.dim = 3, got 2"),
    ("sweep", with_leaf(with_leaf(_without(VALID["sweep"], ("kernels", "post")), ("models",), NO_MODEL),
                        ("stream", "law"), "post"),
     "stream.law = post requires kernels.post"),
    ("sweep", with_leaf(_without(VALID["sweep"], ("kernels", "pre")), ("stream", "law"), "post"),
     "models.pre = closed_form requires kernels.pre"),
]


@pytest.mark.parametrize("command, payload, message", CROSS_FIELD,
                         ids=[f"{c}-{m}" for c, _, m in CROSS_FIELD])
def test_cross_field_rule_is_rejected_by_the_loader(command, payload, message):
    with pytest.raises(ValueError) as err:
        load_config(command, payload)
    assert str(err.value) == message


@pytest.mark.parametrize("command, key, value, message", [
    ("sweep", ("stream", "law"), "x", 'stream.law must be "pre" or "post", got "x"'),
    ("train", ("training", "optimizer"), "x", "training: optimizer must be 'adam' or 'sgd'"),
    ("detect", ("models", "pre"), 5, 'models.pre must be a string, got 5'),
    ("sweep", ("bounds", "delta"), "x", 'bounds.delta must be a number or "empirical", got "x"'),
    ("simulate", ("change_point",), "inf",
     'change_point must be an integer or "infinity" or null, got "inf"'),
    ("train", ("training", "epochs"), 1.5, "training.epochs must be an integer, got 1.5"),
    ("train", ("training", "epochs"), 2.0, "training.epochs must be an integer, got 2.0"),
    ("bounds", ("mu",), {}, "give exactly one of mu.heuristic and mu.doeblin, got neither"),
    ("bounds", ("thresholds", 1), "x", 'thresholds[1] must be a number, got "x"'),
    ("simulate", ("bogus",), 1, "unknown config key 'bogus'"),
    ("detect", ("kernels", "pre", "bogus"), 1, "unknown config key 'kernels.pre.bogus'"),
])
def test_messages_name_the_dotted_key(tmp_path, capsys, command, key, value, message):
    code, _ = run(tmp_path, command, with_leaf(VALID[command], key, value))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.strip() == f"error: {message}"


@pytest.mark.parametrize("command, key", [("simulate", "seed"), ("train", "data.seed")])
def test_negative_seed_flag_exits_2_naming_the_first_seed(tmp_path, capsys, command, key):
    code, out = run(tmp_path, command, VALID[command], extra=("--seed", "-3"))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.strip() == f"error: {key} must be >= 0, got -3"
    assert not out.exists()


@pytest.mark.parametrize("length", [0, 1])
def test_simulate_writes_streams_too_short_to_score(tmp_path, length):
    payload = {"kernel": KERNEL, "length": length}
    code, out = run(tmp_path, "simulate", payload)
    assert code == EXIT_OK
    assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + length


def test_missing_required_key_named(tmp_path, capsys):
    code, _ = run(tmp_path, "sweep", {"stream": {"length": 10}, "kernels": {"pre": {"dim": 2}}})
    assert code == EXIT_USAGE
    assert "missing required config key 'kernels.pre.alpha'" in capsys.readouterr().err


def test_root_must_be_an_object(tmp_path, capsys):
    code, _ = run(tmp_path, "bounds", [1.0])
    assert code == EXIT_USAGE
    assert "config must be an object" in capsys.readouterr().err


def test_allocation_beyond_memory_exits_5_without_traceback(tmp_path, capsys):
    # 10^16 states of dimension 3 would take 213 PiB: the allocation fails at once
    code, out = run(tmp_path, "simulate", {"kernel": KERNEL, "length": 10000000000000000})
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and "Traceback" not in err
    assert not (out / "trajectory.csv").exists()


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

LEAVES = [(command, path, original)
          for command, payload in VALID.items() for path, original in leaves(payload)]
OBJECTS = [(command, path) for command, payload in VALID.items() for path in objects(payload)]


@st.composite
def mutated_configs(draw):
    """(command, payload): one leaf of a valid config made wrong, or an unknown key added."""
    if draw(st.booleans()):
        command, path, original = draw(st.sampled_from(LEAVES))
        value = draw(wrong_values(command, path, original))
    else:
        command, parent = draw(st.sampled_from(OBJECTS))
        path, value = (*parent, "bogus_" + draw(st.text(max_size=5))), draw(st.integers())
    return command, with_leaf(VALID[command], path, value)


@settings(max_examples=300, deadline=None)
@given(mutated_configs())
def test_any_wrong_leaf_or_unknown_key_exits_2(case):
    command, payload = case
    with tempfile.TemporaryDirectory() as tmp:
        code, _ = run(tmp, command, payload)
    assert code == EXIT_USAGE


@pytest.mark.parametrize("command", sorted(VALID))
def test_valid_configs_run_and_echo_every_given_value(tmp_path, command):
    code, out = run(tmp_path, command, VALID[command])
    assert code == EXIT_OK
    echoed = json.loads((out / "manifest.json").read_text())["config"]
    for path, value in leaves(VALID[command]):
        node = echoed
        for key in path:
            node = node[key]
        assert node == value and type(node) is type(value), dotted(path)


def test_integers_are_echoed_as_integers(tmp_path):
    payload = with_leaf(VALID["detect"], ("detector", "threshold"), 500)
    code, out = run(tmp_path, "detect", payload)
    assert code == EXIT_OK
    assert '"threshold": 500,' in (out / "manifest.json").read_text()
    assert json.loads((out / "alarms.json").read_text())["threshold"] == 500


def test_seed_flag_overrides_defaulted_seeds(tmp_path):
    payload = {"data": {"kernel": KERNEL, "pairs": 64}, "architecture": {"hidden_widths": [4]},
               "training": {"epochs": 1, "batch_size": 32}}
    code, out = run(tmp_path, "train", payload, extra=("--seed", "9"))
    assert code == EXIT_OK
    echoed = json.loads((out / "manifest.json").read_text())["config"]
    assert echoed["data"]["seed"] == echoed["training"]["seed"] == 9


@pytest.mark.parametrize("key, value", [("pairs", 5), ("seed", 9), ("burn_in", 3)])
def test_simulation_keys_beside_a_csv_source_exit_2(tmp_path, capsys, key, value):
    # a csv source is read whole, so these keys would be echoed and ignored
    payload = {"data": {"csv": str(tmp_path / "unread.csv"), key: value},
               "architecture": {"hidden_widths": [4]}, "training": {"epochs": 1, "batch_size": 16}}
    code, out = run(tmp_path, "train", payload)
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.strip() == (
        f"error: data.{key} applies only with data.kernel, which is not given")
    assert not out.exists()


@pytest.mark.parametrize("extra", [(), ("--seed", "9")])
def test_csv_source_trains_and_echoes_no_simulation_keys(tmp_path, extra):
    # --seed sets every seed without the config naming data.seed; the manifest
    # echoed pairs, seed and burn_in, which no part of the run used
    (tmp_path / "sim").mkdir()
    code, sim = run(tmp_path / "sim", "simulate", {"kernel": KERNEL, "length": 40, "seed": 1})
    assert code == EXIT_OK
    payload = {"data": {"csv": str(sim / "trajectory.csv")}, "architecture": {"hidden_widths": [4]},
               "training": {"epochs": 1, "batch_size": 16}}
    code, out = run(tmp_path, "train", payload, extra=extra)
    assert code == EXIT_OK
    assert json.loads((out / "metrics.json").read_text())["pairs"] == 39
    echoed = json.loads((out / "manifest.json").read_text())["config"]
    assert echoed["data"] == {"kernel": None, "csv": str(sim / "trajectory.csv")}
    assert echoed["training"]["seed"] == (9 if extra else 0)
    assert load_config("train", echoed)[1] == echoed


@pytest.mark.parametrize("declared, simulated, message", [
    (400, 20, "change_point = 400 contradicts data.simulate.change_point = 20"),
    ("infinity", 20, 'change_point = "infinity" contradicts data.simulate.change_point = 20'),
    (20, "infinity", 'change_point = 20 contradicts data.simulate.change_point = "infinity"'),
    (20, None, "change_point = 20 contradicts data.simulate.change_point = null"),
])
def test_declared_change_point_contradicting_the_simulated_one_exits_2(
        tmp_path, capsys, declared, simulated, message):
    # the stream changes at data.simulate.change_point: alarms.json would
    # count false alarms and delays from another time
    payload = with_leaf(with_leaf(VALID["detect"], ("change_point",), declared),
                        ("data", "simulate", "change_point"), simulated)
    code, out = run(tmp_path, "detect", payload)
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not out.exists()


@pytest.mark.parametrize("declared, simulated",
                         [("infinity", None), ("infinity", "infinity"), (None, 20)])
def test_declared_change_point_equal_to_the_simulated_one_runs(tmp_path, declared, simulated):
    payload = with_leaf(with_leaf(VALID["detect"], ("change_point",), declared),
                        ("data", "simulate", "change_point"), simulated)
    code, out = run(tmp_path, "detect", payload)
    assert code == EXIT_OK
    expected = None if simulated in ("infinity", None) else simulated
    assert json.loads((out / "alarms.json").read_text())["change_point"] == expected


# ---------------------------------------------------------------------------
# committed configs and golden manifests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.name)
def test_committed_configs_load(path):
    command = path.stem.split("_")[0]
    config, echo = load_config(command, json.loads(path.read_text()))
    assert isinstance(config, SCHEMAS[command])
    assert json.loads(json.dumps(echo)) == echo


def _refuse(token):
    raise ValueError(f"{token} is not standard JSON")


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.name)
def test_committed_configs_write_strict_json(tmp_path, monkeypatch, path):
    # NaN and Infinity are Python's tokens, not JSON's; a strict parser refuses them
    command = path.stem.split("_")[0]
    payload = json.loads(path.read_text())
    if command == "train":  # its settings but a small fit: the full one takes a minute
        payload = with_leaf(with_leaf(payload, ("data", "pairs"), 256), ("training", "epochs"), 1)
    monkeypatch.chdir(ROOT)  # the mocap config names its clips relative to the root
    code, out = run(tmp_path, command, payload)
    assert code == EXIT_OK
    written = sorted(out.glob("*.json"))
    assert "manifest.json" in [p.name for p in written]
    for output in written:
        json.loads(output.read_text(), parse_constant=_refuse)


def test_library_dataclasses_are_the_sections():
    config, _ = load_config("train", VALID["train"])
    assert isinstance(config.training, scorenet.TrainConfig)
    assert isinstance(config.data.kernel, markov.GaussianKernelSpec)
    assert config.architecture.hidden_widths == (4,)


# manifest bytes written before the loader replaced the schema dicts
GOLDEN_RUNS = {
    "simulate": ("simulate", "configs/simulate_change.json"),
    "detect": ("detect", "configs/detect_closed_form.json"),
    "sweep_false_alarm": ("sweep", "configs/sweep_false_alarm.json"),
    "sweep_delay": ("sweep", "configs/sweep_delay.json"),
    "bounds": ("bounds", "configs/bounds.json"),
    "mocap": ("mocap", "configs/mocap_fixture.json"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_manifest_matches_golden(tmp_path, monkeypatch, name):
    command, config = GOLDEN_RUNS[name]
    monkeypatch.chdir(ROOT)  # the mocap config names its clips relative to the root
    out = tmp_path / name
    assert main([command, "--config", config, "--out", str(out)]) == EXIT_OK
    assert (out / "manifest.json").read_bytes() == (GOLDEN / f"manifest_{name}.json").read_bytes()


def test_train_manifest_matches_golden(tmp_path):
    # the payload of test_cli.py's trained model
    payload = {
        "data": {"kernel": KERNEL, "pairs": 2000, "seed": 5, "burn_in": 100},
        "architecture": {"hidden_widths": [16, 16]},
        "training": {"epochs": 4, "batch_size": 64, "seed": 7},
    }
    code, out = run(tmp_path, "train", payload)
    assert code == EXIT_OK
    assert (out / "manifest.json").read_bytes() == (GOLDEN / "manifest_train.json").read_bytes()
