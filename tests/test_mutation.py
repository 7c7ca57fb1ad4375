"""A mutation property over the pipeline's inputs. A micro multihead
pipeline runs once per module; each example then makes one mutation of one
of its input files (truncate it, flip, insert or delete a byte, duplicate a
line or swap two) and runs, through main, a command that reads that file.
The command exits 0, or 1 or 2 with exactly one "error:" line that names
the mutated file, and main's last-resort handler is never reached."""

import contextlib
import io
import json
import tempfile

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

# mutated file -> the command that reads it, given the pipeline's root and a
# fresh output directory
READERS = {
    "run.json": lambda r, o: ["train", "--config", f"{r}/run.json", "--data", f"{r}/corpus/train", "--out-dir", o],
    "corpus/train/manifest.tsv": lambda r, o: ["extract", "--model", f"{r}/run/model.xvm",
                                               "--data", f"{r}/corpus/train", "--out", f"{o}/x.xve"],
    "corpus/train/gates.tsv": lambda r, o: ["extract", "--model", f"{r}/run/model.xvm",
                                            "--data", f"{r}/corpus/train", "--out", f"{o}/x.xve"],
    "corpus/train/feats/train-s0000-u0000.xvf": lambda r, o: ["extract", "--model", f"{r}/run/model.xvm",
                                                               "--data", f"{r}/corpus/train", "--out", f"{o}/x.xve"],
    "run/model.xvm": lambda r, o: ["extract", "--model", f"{r}/run/model.xvm",
                                   "--data", f"{r}/corpus/eval", "--out", f"{o}/x.xve"],
    "corpus/eval/feats/eval-s0000-u0000.xvf": lambda r, o: ["attn", "--model", f"{r}/run/model.xvm",
                                                             "--utt", f"{r}/corpus/eval/feats/eval-s0000-u0000.xvf",
                                                             "--out", f"{o}/attn.tsv"],
    "eval.xve": lambda r, o: ["score", "--embeddings", f"{r}/eval.xve", "--trials", f"{r}/corpus/trials.tsv",
                              "--enroll-map", f"{r}/corpus/enroll.tsv", "--out", f"{o}/scores.tsv"],
    "corpus/enroll.tsv": lambda r, o: ["score", "--embeddings", f"{r}/eval.xve", "--trials", f"{r}/corpus/trials.tsv",
                                       "--enroll-map", f"{r}/corpus/enroll.tsv", "--out", f"{o}/scores.tsv"],
    "corpus/trials.tsv": lambda r, o: ["eval", "--scores", f"{r}/scores.tsv", "--trials", f"{r}/corpus/trials.tsv",
                                       "--out", f"{o}/metrics.json"],
    "scores.tsv": lambda r, o: ["eval", "--scores", f"{r}/scores.tsv", "--trials", f"{r}/corpus/trials.tsv",
                                "--out", f"{o}/metrics.json"],
}


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
    steps = [
        ["gen-data", "--config", f"{root}/run.json", "--out-dir", f"{root}/corpus"],
        READERS["run.json"](root, f"{root}/run"),
        READERS["run/model.xvm"](root, str(root))[:-1] + [f"{root}/eval.xve"],
        READERS["eval.xve"](root, str(root)),
    ]
    for argv in steps:
        assert run(argv) == (0, "")
    for name in READERS:  # every command reads its pristine file
        with tempfile.TemporaryDirectory() as out:
            assert run(READERS[name](root, out)) == (0, "")
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
@given(data=st.data(), name=st.sampled_from(sorted(READERS)))
def test_a_mutated_input_fails_as_one_line_naming_it(pipeline, monkeypatch, data, name):
    faults = []
    monkeypatch.setattr(cli.log, "debug", lambda *args, **kwargs: faults.append(args))
    path = pipeline / name
    pristine = path.read_bytes()
    path.write_bytes(data.draw(mutations(pristine)))
    try:
        with tempfile.TemporaryDirectory() as out:
            code, err = run(READERS[name](pipeline, out))
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
            result = run(READERS["corpus/train/manifest.tsv"](pipeline, out))
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
