import contextlib
import copy
import io
import json
from dataclasses import asdict, dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xvec import data
from xvec.cli import main
from xvec.config import from_json
from xvec.errors import ConfigError
from xvec.model import FrameLayerSpec, ModelConfig
from xvec.train import TrainConfig

# Every field of every section, with a value of the right JSON type; floats
# are written as floats so that the type of each value names the field's.
BASE = {
    "model": {
        "input_dim": 3,
        "frame_layers": [{"offsets": [-1, 0, 1], "width": 6}, {"offsets": [0], "width": 8}],
        "pooling": "multihead",
        "key_layer": 1,
        "compat": [4],
        "heads": 2,
        "utterance_layers": [7],
        "num_speakers": 3,
        "embedding_tap": 0,
    },
    "synth": {
        "train": {"num_speakers": 3, "utts_per_speaker": 2, "min_frames": 12, "max_frames": 14,
                  "dim": 3, "p_stay_on": 0.9, "p_stay_off": 0.9, "scale": 1.0, "sigma": 0.5, "seed": 1},
        "eval": {"num_speakers": 3, "utts_per_speaker": 2, "min_frames": 12, "max_frames": 14,
                 "dim": 3, "p_stay_on": 0.9, "p_stay_off": 0.9, "scale": 1.0, "sigma": 0.5, "seed": 2},
    },
    "trials": {"enroll_per_speaker": 1, "seed": 3},
    "train": {"optimizer": "adam", "lr": 0.01, "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8,
              "momentum": 0.9, "weight_decay": 0.0, "clip_norm": 5.0, "batch_size": 4,
              "chunk_len": 10, "epochs": 1, "seed": 0},
}
NULLABLE = {("model",), ("synth",), ("synth", "eval")}
JSON_TYPES = {int: (int,), float: (int, float), str: (str,), list: (list,), dict: (dict,)}


def paths(value, prefix=()):
    """Every (path, value) below a decoded JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, sub in items:
        yield prefix + (key,), sub
        yield from paths(sub, prefix + (key,))


FIELDS = sorted(paths(BASE), key=repr)


def dotted(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]


def replaced(path, value) -> dict:
    cfg = copy.deepcopy(BASE)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("config")
    data.write_dataset(data.gen_synthetic(from_json(data.SynthConfig, BASE["synth"]["train"], "synth config")), root / "ds")
    return root


def run_train(workdir, cfg):
    """Run `xvec train` on cfg, a dict or its JSON text; returns (exit code,
    stderr lines, config path)."""
    path = workdir / "run.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["train", "--config", str(path), "--data", str(workdir / "ds"),
                   "--out-dir", str(workdir / "out")])
    return rc, err.getvalue().splitlines(), path


class TestFromJson:
    def test_int_takes_integers_only(self):
        assert from_json(int, 3, "x") == 3
        for value, got in ((3.0, "a number"), (True, "a boolean"), ("3", "a string"), (None, "null")):
            with pytest.raises(ConfigError, match=f"^x: expected an integer, got {got}$"):
                from_json(int, value, "x")

    def test_float_widens_integers(self):
        value = from_json(float, 1, "x")
        assert value == 1.0 and type(value) is float
        with pytest.raises(ConfigError, match="expected a number, got a boolean"):
            from_json(float, False, "x")
        with pytest.raises(ConfigError, match="x: number out of range"):
            from_json(float, 10**400, "x")
        for text in ("NaN", "Infinity", "-Infinity", "1e999"):
            with pytest.raises(ConfigError, match="^x: expected a finite number$"):
                from_json(float, json.loads(text), "x")

    def test_nested_paths(self):
        d = {"input_dim": 3, "frame_layers": [{"offsets": [0], "width": 4}, {"offsets": [0, "1"], "width": 4}]}
        with pytest.raises(ConfigError, match=r"^run.json: model.frame_layers\[1\].offsets\[1\]: "
                                              r"expected an integer, got a string$"):
            from_json(ModelConfig, d, "run.json: model")

    def test_builds_annotated_containers(self):
        d = {"input_dim": 3, "frame_layers": [{"offsets": [-1, 0], "width": 4}], "compat": [5]}
        cfg = from_json(ModelConfig, d, "m")
        assert cfg.frame_layers == (FrameLayerSpec((-1, 0), 4),)
        assert cfg.compat == [5] and cfg.utterance_layers == [512]

    def test_unknown_and_missing_keys(self):
        with pytest.raises(ConfigError, match="^m: unknown key 'width2'$"):
            from_json(FrameLayerSpec, {"offsets": [0], "width": 1, "width2": 2}, "m")
        with pytest.raises(ConfigError, match="^m: missing key 'width'$"):
            from_json(FrameLayerSpec, {"offsets": [0]}, "m")

    def test_optional(self):
        @dataclass
        class Section:
            inner: FrameLayerSpec | None = None

        assert from_json(Section, {"inner": None}, "s") == Section()
        with pytest.raises(ConfigError, match="^s: inner: expected an object, got an array$"):
            from_json(Section, {"inner": []}, "s")

    def test_validation_errors_name_the_section(self):
        with pytest.raises(ConfigError, match="^run.json: train: epochs: must be >= 1"):
            from_json(TrainConfig, {"epochs": 0}, "run.json: train")

    def test_integer_lr_widens_to_float(self):
        assert asdict(from_json(TrainConfig, {"lr": 1}, "train config"))["lr"] == 1.0


class TestRunConfigErrors:
    @pytest.mark.parametrize("path, value, message", [
        (("model", "frame_layers"), [5], "model.frame_layers[0]: expected an object, got an integer"),
        (("model", "heads"), "x", "model.heads: expected an integer, got a string"),
        (("model", "frame_layers", 0, "width"), "w", "model.frame_layers[0].width: expected an integer"),
        (("model", "key_layer"), None, "model.key_layer: expected an integer, got null"),
        (("model", "utterance_layers"), 3, "model.utterance_layers: expected an array, got an integer"),
        (("model",), [1, 2], "model: expected an object, got an array"),
        (("synth",), {"train": [1]}, "synth.train: expected an object, got an array"),
        (("synth", "train", "num_speakers"), "many", "synth.train.num_speakers: expected an integer"),
        (("trials", "enroll_per_speaker"), "x", "trials.enroll_per_speaker: expected an integer"),
        (("train", "lr"), "fast", "train.lr: expected a number, got a string"),
        (("train", "epochs"), 1.5, "train.epochs: expected an integer, got a number"),
        (("train", "lr"), float("nan"), "train.lr: expected a finite number"),
        (("train", "clip_norm"), float("nan"), "train.clip_norm: expected a finite number"),
        (("train", "weight_decay"), float("inf"), "train.weight_decay: expected a finite number"),
        (("synth", "train", "sigma"), float("-inf"), "synth.train.sigma: expected a finite number"),
    ])
    def test_wrong_type_is_one_error_line(self, workdir, path, value, message):
        rc, lines, cfg = run_train(workdir, replaced(path, value))
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith(f"error: {cfg}: {message}")

    def test_overflowing_literal_is_one_error_line(self, workdir):
        # json.dumps cannot write 1e999, which Python's json reads as inf
        text = json.dumps(replaced(("train", "clip_norm"), 0.125)).replace("0.125", "1e999")
        rc, lines, cfg = run_train(workdir, text)
        assert rc == 1
        assert lines == [f"error: {cfg}: train.clip_norm: expected a finite number"]

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(field=st.sampled_from(FIELDS), pick=st.data())
    def test_any_wrongly_typed_field(self, workdir, field, pick):
        path, good = field
        accepted = JSON_TYPES[type(good)] + ((type(None),) if path in NULLABLE else ())
        json_values = st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
            max_leaves=6)
        value = pick.draw(json_values.filter(lambda v: isinstance(v, bool) or not isinstance(v, accepted)))
        rc, lines, cfg = run_train(workdir, replaced(path, value))
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith(f"error: {cfg}: {dotted(path)}: expected ")
