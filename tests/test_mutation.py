"""A mutation property over the pipeline's inputs. A micro multihead
pipeline runs once per module; each example then makes one mutation of one
of its input files (truncate it, flip, insert or delete a byte, duplicate a
line or swap two) and runs, through main, a command that reads that file.
The command exits 0, or 1 or 2 with exactly one "error:" line that names
the mutated file, and main's last-resort handler is never reached."""

import contextlib
import copy
import io
import json
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xvec import cli
from xvec.cli import main
from xvec.model import load_model, save_model

CONFIG = {
    "model": {"frame_layers": [{"offsets": [-1, 0, 1], "width": 6}, {"offsets": [0], "width": 8}],
              "pooling": "multihead", "key_layer": 1, "compat": [5, 4], "heads": 2, "utterance_layers": [7]},
    "synth": {"train": {"num_speakers": 3, "utts_per_speaker": 2, "min_frames": 12, "max_frames": 16, "dim": 4,
                        "seed": 11},
              "eval": {"num_speakers": 3, "utts_per_speaker": 2, "min_frames": 12, "max_frames": 16, "dim": 4,
                       "seed": 12}},
    "trials": {"enroll_per_speaker": 1, "seed": 7},
    "train": {"lr": 0.01, "epochs": 1, "batch_size": 4, "chunk_len": 10, "seed": 0},
}


# Commands as argv templates: {r} is the pipeline's root, {o} an output
# directory and {c} the run config.
GEN_DATA = ("gen-data", "--config", "{c}", "--out-dir", "{o}/corpus")
TRAIN = ("train", "--config", "{c}", "--data", "{r}/corpus/train", "--out-dir", "{o}/run")
EXTRACT = {split: ("extract", "--model", "{r}/run/model.xvm", "--data", f"{{r}}/corpus/{split}",
                   "--out", f"{{o}}/{split}.xve") for split in ("train", "eval")}
ATTN = ("attn", "--model", "{r}/run/model.xvm", "--utt", "{r}/corpus/eval/feats/eval-s0000-u0000.xvf",
        "--out", "{o}/attn.tsv")
SCORE = ("score", "--embeddings", "{r}/eval.xve", "--trials", "{r}/corpus/trials.tsv",
         "--enroll-map", "{r}/corpus/enroll.tsv", "--out", "{o}/scores.tsv")
EVAL = ("eval", "--scores", "{r}/scores.tsv", "--trials", "{r}/corpus/trials.tsv", "--out", "{o}/metrics.json")
# each mutated file and a command that reads it
READERS = [
    ("run.json", TRAIN),
    ("corpus/train/manifest.tsv", EXTRACT["train"]),
    ("corpus/train/gates.tsv", EXTRACT["train"]),
    ("corpus/train/feats/train-s0000-u0000.xvf", EXTRACT["train"]),
    ("run/model.xvm", EXTRACT["eval"]),
    ("run/model.xvm", ATTN),
    ("corpus/eval/feats/eval-s0000-u0000.xvf", ATTN),
    ("eval.xve", SCORE),
    ("corpus/enroll.tsv", SCORE),
    ("corpus/trials.tsv", SCORE),
    ("corpus/trials.tsv", EVAL),
    ("scores.tsv", EVAL),
]


def fill(argv, root, out, config=None):
    return [arg.format(r=root, o=out, c=config or root / "run.json") for arg in argv]


def run(argv):
    """main's exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutation")
    (root / "run.json").write_text(json.dumps(CONFIG, indent=1))
    for argv in (GEN_DATA, TRAIN, EXTRACT["eval"], SCORE):
        assert run(fill(argv, root, root)) == (0, "")
    for _, reader in READERS:  # every command reads its pristine file
        with tempfile.TemporaryDirectory() as out:
            assert run(fill(reader, root, out)) == (0, "")
    return root


@st.composite
def mutations(draw, blob: bytes) -> bytes:
    kind = draw(st.sampled_from(["truncate", "flip", "insert", "delete", "duplicate", "swap"]))
    at = draw(st.integers(0, len(blob) - 1))
    if kind == "truncate":
        return blob[:at]
    if kind == "flip":
        return blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1:]
    if kind == "insert":
        return blob[:at] + bytes([draw(st.integers(0, 255))]) + blob[at:]
    if kind == "delete":
        return blob[:at] + blob[at + 1:]
    lines = blob.split(b"\n")
    i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
    if kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return b"\n".join(lines)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), name_reader=st.sampled_from(READERS))
def test_a_mutated_input_fails_as_one_line_naming_it(pipeline, monkeypatch, data, name_reader):
    name, reader = name_reader
    faults = []
    monkeypatch.setattr(cli.log, "debug", lambda *args, **kwargs: faults.append(args))
    path = pipeline / name
    pristine = path.read_bytes()
    path.write_bytes(data.draw(mutations(pristine)))
    try:
        with tempfile.TemporaryDirectory() as out:
            code, err = run(fill(reader, pipeline, out))
    finally:
        path.write_bytes(pristine)
    assert faults == []
    if code:
        assert code in (1, 2)
        # one line, though an id in it may hold a character str.splitlines() breaks at
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n") and str(path) in err, err


def test_a_nul_byte_in_a_manifest_path_names_its_line(pipeline):
    """A path no file system takes fails as a malformed row, not as a fault
    of the file open."""
    manifest = pipeline / "corpus/train/manifest.tsv"
    pristine = manifest.read_bytes()
    manifest.write_bytes(pristine.replace(b"\tfeats/", b"\t\0feats/", 1))
    try:
        with tempfile.TemporaryDirectory() as out:
            result = run(fill(EXTRACT["train"], pipeline, out))
    finally:
        manifest.write_bytes(pristine)
    assert result == (2, f"error: {manifest}:1: expected 'utt_id<TAB>speaker<TAB>path'\n")


@pytest.mark.parametrize("part, scale", [("utt_affines", 1e40), ("frame_blocks", 1e200)])
def test_an_embedding_beyond_float32_names_the_model_and_the_utterance(pipeline, tmp_path, part, scale):
    """Finite weights can give an embedding float32 cannot hold: beyond its
    range (1e40), or past float64's through an overflow in pooling (1e200)."""
    model = load_model(pipeline / "run/model.xvm")
    layer = getattr(model, part)[0]
    (layer if part == "utt_affines" else layer.affine).weight.value[...] *= scale
    save_model(model, tmp_path / "huge.xvm")
    manifest = pipeline / "corpus/eval/manifest.tsv"
    result = run(["extract", "--model", str(tmp_path / "huge.xvm"), "--data", str(pipeline / "corpus/eval"),
                  "--out", str(tmp_path / "x.xve")])
    assert result == (2, f"error: {manifest}:1: the embedding of {pipeline}/corpus/eval/feats/eval-s0000-u0000.xvf "
                         f"under {tmp_path / 'huge.xvm'} is beyond float32's range\n")
    assert not (tmp_path / "x.xve").exists()


def test_attention_under_a_checkpoint_that_overflows(pipeline, tmp_path):
    """attn runs the forward with overflow warnings off: attention that
    stays finite is written (frame0 scaled by 1e200 overflows only the
    pooled variance), and attention that does not is refused naming the
    model and the utterance (the compatibility output and the query each
    scaled by 1e160 overflow the logits)."""
    utt = pipeline / "corpus/eval/feats/eval-s0000-u0000.xvf"
    model = load_model(pipeline / "run/model.xvm")
    model.frame_blocks[0].affine.weight.value[...] *= 1e200
    save_model(model, tmp_path / "frames.xvm")
    model = load_model(pipeline / "run/model.xvm")
    model.pool.net.blocks[-1][0].weight.value[...] *= 1e160
    model.pool.query.value[...] *= 1e160
    save_model(model, tmp_path / "logits.xvm")

    assert run(["attn", "--model", str(tmp_path / "frames.xvm"), "--utt", str(utt),
                "--out", str(tmp_path / "frames.tsv")]) == (0, "")
    assert np.isfinite(np.loadtxt(tmp_path / "frames.tsv", skiprows=1)).all()
    assert run(["attn", "--model", str(tmp_path / "logits.xvm"), "--utt", str(utt),
                "--out", str(tmp_path / "logits.tsv")]) == (
        2, f"error: {utt}: the attention under {tmp_path / 'logits.xvm'} is not finite\n")
    assert not (tmp_path / "logits.tsv").exists()


COSTS = {"--p-target": "0.01", "--c-miss": "10", "--c-fa": "1"}


def costs(flag, value):
    return tuple(arg for f, v in COSTS.items() for arg in (f, value if f == flag else v))


# (command, the config key it is given -1 in, the error it must print)
BAD_NUMBERS = [
    (GEN_DATA + ("--seed", "-1"), None, "--seed: seed: must be >= 0, got -1"),
    (TRAIN + ("--seed", "-1"), None, "--seed: seed: must be >= 0, got -1"),
    (TRAIN + ("--epochs", "-1"), None, "--epochs: epochs: must be >= 1, got -1"),
    (TRAIN + ("--heads", "-1"), None, "--heads: heads: must be >= 1, got -1"),
    (TRAIN + ("--key-layer", "-1"), None, "--key-layer: key_layer: must be in [0, 2], 0 = the last layer, got -1"),
    (("gradcheck", "--seed", "-1"), None, "--seed: must be >= 0, got -1"),
    (("gradcheck", "--frames", "-1"), None, "--frames: must be >= 2, got -1"),
    (GEN_DATA, ("synth", "train", "seed"), "{c}: synth.train: seed: must be >= 0, got -1"),
    (GEN_DATA, ("synth", "eval", "seed"), "{c}: synth.eval: seed: must be >= 0, got -1"),
    (GEN_DATA, ("trials", "seed"), "{c}: trials: seed: must be >= 0, got -1"),
    (TRAIN, ("train", "seed"), "{c}: train: seed: must be >= 0, got -1"),
    *[(EVAL + costs("--p-target", value), None,
       f"--p-target, --c-miss, --c-fa: p_target: must be in (0, 1), got {float(value)}")
      for value in ("nan", "inf", "-1")],
    *[(EVAL + costs("--c-miss", value), None,
       f"--p-target, --c-miss, --c-fa: costs must be finite and > 0, got c_miss={float(value)}, c_fa=1.0")
      for value in ("nan", "inf", "-1")],
    *[(EVAL + costs("--c-fa", value), None,
       f"--p-target, --c-miss, --c-fa: costs must be finite and > 0, got c_miss=10.0, c_fa={float(value)}")
      for value in ("nan", "inf", "-1")],
    (EVAL + ("--p-target", "5e-324", "--c-miss", "1e-10", "--c-fa", "1"), None,
     "--p-target, --c-miss, --c-fa: min(c_miss * p_target, c_fa * (1 - p_target)) underflows to 0, "
     "got p_target=5e-324, c_miss=1e-10, c_fa=1.0"),
]


@pytest.mark.parametrize("argv, key, message", BAD_NUMBERS)
def test_a_bad_number_names_its_flag_or_key(pipeline, tmp_path, monkeypatch, argv, key, message):
    """Numbers the mutation property cannot reach: each fails with exit 1
    and one line naming its flag or key, and writes nothing."""
    faults = []
    monkeypatch.setattr(cli.log, "debug", lambda *args, **kwargs: faults.append(args))
    config, out = pipeline / "run.json", tmp_path / "out"
    if key is not None:
        edited = copy.deepcopy(CONFIG)
        section = edited
        for name in key[:-1]:
            section = section[name]
        section[key[-1]] = -1
        config = tmp_path / "run.json"
        config.write_text(json.dumps(edited))
    out.mkdir()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(fill(argv, pipeline, out, config))
    assert (code, stderr.getvalue(), stdout.getvalue()) == (1, f"error: {message.format(c=config)}\n", "")
    assert faults == [] and list(out.iterdir()) == []
