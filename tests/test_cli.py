import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xvec
from xvec import cli, data
from xvec.cli import main, parse_compat
from xvec.errors import ConfigError
from xvec.model import FrameLayerSpec, ModelConfig, build_model, load_model, save_model


def write_config(tmp_path, name="run.json", **sections):
    path = tmp_path / name
    path.write_text(json.dumps(sections, indent=2))
    return str(path)


def micro_config(tmp_path, pooling="attention", **train_overrides):
    """A config small enough that the whole pipeline runs in seconds."""
    model = {
        "frame_layers": [
            {"offsets": [-1, 0, 1], "width": 6},
            {"offsets": [0], "width": 8},
        ],
        "pooling": pooling,
        "key_layer": 2,
        "compat": [5, 4],
        "heads": 2 if pooling == "multihead" else 1,
        "utterance_layers": [7],
    }
    if pooling == "stats":
        model["key_layer"] = 0
        model["compat"] = []
        model["heads"] = 1
    synth = {
        "train": {"num_speakers": 3, "utts_per_speaker": 4,
                  "min_frames": 12, "max_frames": 16, "dim": 4, "seed": 11},
        "eval": {"num_speakers": 3, "utts_per_speaker": 3,
                 "min_frames": 12, "max_frames": 16, "dim": 4, "seed": 12},
    }
    train = {"lr": 1e-2, "epochs": 2, "batch_size": 4, "chunk_len": 10, "seed": 0}
    train.update(train_overrides)
    return write_config(tmp_path, model=model, synth=synth,
                        trials={"enroll_per_speaker": 1, "seed": 7}, train=train)


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestHelpers:
    def test_parse_compat(self):
        assert parse_compat("500") == [500]
        assert parse_compat("100-500") == [100, 500]
        with pytest.raises(ConfigError, match="integers"):
            parse_compat("100-big")
        with pytest.raises(ConfigError, match="positive"):
            parse_compat("0")

    def test_import_leaves_scipy_unloaded(self):
        # xvec needs no scipy (only the tests compare against it), and
        # importing scipy.stats costs over a second of start-up
        code = "import sys, xvec.cli; print('scipy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(xvec.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestUsageAndConfigErrors:
    def test_missing_required_flag(self, capsys):
        assert main(["train", "--config", "x.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_top_level_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bogus={})
        assert main(["gen-data", "--config", cfg, "--out-dir", str(tmp_path / "d")]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_unknown_synth_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, synth={"train": {"speakers": 3}})
        assert main(["gen-data", "--config", cfg, "--out-dir", str(tmp_path / "d")]) == 1
        assert "speakers" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["gen-data", "--config", str(path), "--out-dir", str(tmp_path / "d")]) == 1
        assert "JSON" in capsys.readouterr().err

    def test_deeply_nested_json_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert main(["gen-data", "--config", str(path), "--out-dir", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: invalid JSON: "), err

    def test_deeply_nested_model_config_is_one_error_line(self, tmp_path, capsys):
        config = b"[" * 100_000
        bad = tmp_path / "deep.xvm"
        bad.write_bytes(b"XVM1" + struct.pack("<Q", len(config)) + config)
        rc = main(["attn", "--model", str(bad), "--utt", str(tmp_path / "u.xvf"), "--out", str(tmp_path / "t.tsv")])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: invalid config JSON at byte 12: "), err

    def test_unexpected_fault_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def fault(path):
            raise RuntimeError("no handler of its own")
        monkeypatch.setattr(cli, "load_run_config", fault)
        assert main(["gen-data", "--config", "run.json", "--out-dir", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err.strip().splitlines() == ["error: RuntimeError: no handler of its own"]

    def test_trials_without_eval_split(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            synth={"train": {"num_speakers": 2, "utts_per_speaker": 1,
                             "min_frames": 10, "max_frames": 12, "dim": 2}},
            trials={"enroll_per_speaker": 1},
        )
        assert main(["gen-data", "--config", cfg, "--out-dir", str(tmp_path / "d")]) == 1
        assert "eval" in capsys.readouterr().err
        assert not (tmp_path / "d" / "train").exists()

    def test_max_frames_beyond_feature_format(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            synth={"train": {"num_speakers": 2, "utts_per_speaker": 1,
                             "min_frames": 10, "max_frames": 10**20, "dim": 2}},
        )
        assert main(["gen-data", "--config", cfg, "--out-dir", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "max_frames" in err[0]
        assert not (tmp_path / "d").exists()

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        assert main(["extract", "--model", str(tmp_path / "no.xvm"),
                     "--data", str(tmp_path / "no-data"),
                     "--out", str(tmp_path / "e.xve")]) == 2

    def test_mixed_length_embeddings_are_exit_2(self, tmp_path, capsys):
        emb = tmp_path / "mixed.xve"
        data.write_embeddings(emb, {"a": np.ones(3), "b": np.ones(4)})
        trials = tmp_path / "trials.tsv"
        trials.write_text("a\tb\ttarget\n")
        rc = main(["score", "--embeddings", str(emb), "--trials", str(trials),
                   "--out", str(tmp_path / "s.tsv")])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 2
        # b's length field follows the header (8), a's record (2+1+4+12) and b's id (2+1)
        assert err == [f"error: {emb}: vector 'b' at byte 30 has 4 values, the first record has 3"]

    def test_corrupt_model_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.xvm"
        bad.write_bytes(b"not a model at all")
        assert main(["attn", "--model", str(bad),
                     "--utt", str(tmp_path / "u.xvf"),
                     "--out", str(tmp_path / "t.tsv")]) == 2
        assert "bad.xvm" in capsys.readouterr().err


class TestNonUtf8Text:
    """Every text reader turns bytes that are not UTF-8 into exit 2 and one
    error line naming the file and the byte."""

    BOM = b"\xff\xfe"  # a UTF-16 byte order mark: never valid UTF-8

    def corrupt(self, path):
        path.write_bytes(self.BOM + path.read_bytes())
        return path

    def assert_one_error(self, rc, capsys, path):
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 2
        assert len(err) == 1, err
        assert err[0] == f"error: {path}: not UTF-8 at byte 0 (0xff)"

    @pytest.mark.parametrize("name", ["manifest.tsv", "gates.tsv"])
    def test_extract_dataset_files(self, pipeline, tmp_path, capsys, name):
        shutil.copytree(pipeline["corpus"] / "eval", tmp_path / "eval")
        bad = self.corrupt(tmp_path / "eval" / name)
        rc = main(["extract", "--model", str(pipeline["run"] / "model.xvm"),
                   "--data", str(tmp_path / "eval"), "--out", str(tmp_path / "e.xve")])
        self.assert_one_error(rc, capsys, bad)

    @pytest.mark.parametrize("name", ["trials.tsv", "enroll.tsv"])
    def test_score_inputs(self, pipeline, tmp_path, capsys, name):
        files = {n: tmp_path / n for n in ("trials.tsv", "enroll.tsv")}
        for n, path in files.items():
            shutil.copy(pipeline["corpus"] / n, path)
        bad = self.corrupt(files[name])
        rc = main(["score", "--embeddings", str(pipeline["emb"]), "--trials", str(files["trials.tsv"]),
                   "--enroll-map", str(files["enroll.tsv"]), "--out", str(tmp_path / "s.tsv")])
        self.assert_one_error(rc, capsys, bad)

    def test_eval_scores(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "scores.tsv"
        shutil.copy(pipeline["scores"], bad)
        self.corrupt(bad)
        rc = main(["eval", "--scores", str(bad), "--trials", str(pipeline["corpus"] / "trials.tsv")])
        self.assert_one_error(rc, capsys, bad)


class TestBinaryReadErrors:
    """A bad .xvf or .xve exits 2 with one error line naming the file and the byte."""

    def assert_one_error(self, rc, capsys, expected):
        assert rc == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {expected}"]

    def score(self, tmp_path, emb):
        trials = tmp_path / "trials.tsv"
        trials.write_text("a\tb\ttarget\n")
        return main(["score", "--embeddings", str(emb), "--trials", str(trials),
                     "--out", str(tmp_path / "s.tsv")])

    def test_extract_non_finite_features(self, pipeline, tmp_path, capsys):
        shutil.copytree(pipeline["corpus"] / "eval", tmp_path / "eval")
        bad = sorted((tmp_path / "eval" / "feats").glob("*.xvf"))[1]
        blob = bytearray(bad.read_bytes())
        blob[32:36] = np.array(np.inf, dtype="<f4").tobytes()  # the sixth value, after the 12-byte header
        bad.write_bytes(bytes(blob))
        rc = main(["extract", "--model", str(pipeline["run"] / "model.xvm"),
                   "--data", str(tmp_path / "eval"), "--out", str(tmp_path / "e.xve")])
        self.assert_one_error(rc, capsys, f"{bad}: non-finite value in features at byte 32")

    def test_score_truncated_header(self, tmp_path, capsys):
        emb = tmp_path / "short.xve"
        emb.write_bytes(b"XVE1\x01")
        self.assert_one_error(self.score(tmp_path, emb), capsys, f"{emb}: truncated header at byte 5")

    def test_score_id_not_utf8(self, tmp_path, capsys):
        emb = tmp_path / "id.xve"
        data.write_embeddings(emb, {"ab": np.ones(2)})
        emb.write_bytes(emb.read_bytes().replace(b"ab", b"a\xff"))  # the id starts at byte 10
        self.assert_one_error(self.score(tmp_path, emb), capsys, f"{emb}: id is not UTF-8 at byte 11 (0xff)")


class TestGenData:
    def test_deterministic_bytes(self, tmp_path, capsys):
        cfg = micro_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--config", cfg, "--out-dir", str(a)]) == 0
        assert main(["gen-data", "--config", cfg, "--out-dir", str(b)]) == 0
        ta, tb = tree_bytes(a), tree_bytes(b)
        assert set(ta) == set(tb)
        assert all(ta[k] == tb[k] for k in ta)
        out = capsys.readouterr().out
        assert "trials.tsv" in out

    def test_seed_override_changes_data(self, tmp_path):
        cfg = micro_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--config", cfg, "--out-dir", str(a)]) == 0
        assert main(["gen-data", "--config", cfg, "--out-dir", str(b), "--seed", "99"]) == 0
        ta, tb = tree_bytes(a), tree_bytes(b)
        assert any(ta[k] != tb[k] for k in ta if k.suffix == ".xvf")

    def test_layout(self, tmp_path):
        cfg = micro_config(tmp_path)
        out = tmp_path / "corpus"
        assert main(["gen-data", "--config", cfg, "--out-dir", str(out)]) == 0
        assert (out / "train" / "manifest.tsv").exists()
        assert (out / "eval" / "manifest.tsv").exists()
        assert (out / "trials.tsv").exists()
        assert (out / "enroll.tsv").exists()
        ds = data.load_dataset(out / "train")
        assert len(ds.utterances) == 12


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data -> train -> extract -> score -> eval, attention pooling."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = micro_config(root)
    corpus = root / "corpus"
    run = root / "run"
    assert main(["gen-data", "--config", cfg, "--out-dir", str(corpus)]) == 0
    assert main(["train", "--config", cfg, "--data", str(corpus / "train"),
                 "--out-dir", str(run)]) == 0
    emb = root / "eval.xve"
    assert main(["extract", "--model", str(run / "model.xvm"),
                 "--data", str(corpus / "eval"), "--out", str(emb)]) == 0
    scores = root / "scores.tsv"
    assert main(["score", "--embeddings", str(emb),
                 "--trials", str(corpus / "trials.tsv"),
                 "--enroll-map", str(corpus / "enroll.tsv"),
                 "--out", str(scores)]) == 0
    return {"root": root, "cfg": cfg, "corpus": corpus, "run": run,
            "emb": emb, "scores": scores}


class TestPipeline:
    def test_train_outputs(self, pipeline):
        run = pipeline["run"]
        assert (run / "model.xvm").exists()
        assert (run / "train_log.jsonl").exists()
        assert (run / "epoch-001.xvm").exists()
        first = json.loads((run / "train_log.jsonl").read_text().splitlines()[0])
        assert set(first) == {"step", "loss", "lr", "epoch"}

    def test_embeddings_cover_eval_set(self, pipeline):
        embeddings = data.read_embeddings(pipeline["emb"])
        eval_set = data.load_dataset(pipeline["corpus"] / "eval")
        assert set(embeddings) == {u.utt_id for u in eval_set.utterances}

    def test_eval_metrics_json(self, pipeline, capsys):
        out = pipeline["root"] / "metrics.json"
        assert main(["eval", "--scores", str(pipeline["scores"]),
                     "--trials", str(pipeline["corpus"] / "trials.tsv"),
                     "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads(out.read_text())
        assert printed == saved
        assert set(saved) == {"eer", "min_dcf08", "min_dcf10",
                              "num_trials", "num_target", "num_nontarget"}
        assert 0.0 <= saved["eer"] <= 1.0
        assert saved["num_trials"] == saved["num_target"] + saved["num_nontarget"]

    def test_eval_custom_dcf(self, pipeline, capsys):
        args = ["eval", "--scores", str(pipeline["scores"]),
                "--trials", str(pipeline["corpus"] / "trials.tsv")]
        assert main(args + ["--p-target", "0.5"]) == 1
        assert "together" in capsys.readouterr().err
        assert main(args + ["--p-target", "0.5", "--c-miss", "1", "--c-fa", "1"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert "min_dcf_custom" in parsed
        assert 0.0 <= parsed["min_dcf_custom"] <= 1.0 + 1e-12

    def test_attn_trajectory_file(self, pipeline, capsys):
        corpus = pipeline["corpus"]
        eval_set = data.load_dataset(corpus / "eval")
        utt = eval_set.utterances[0]
        feat = corpus / "eval" / "feats" / f"{utt.utt_id}.xvf"
        out = pipeline["root"] / "traj.tsv"
        assert main(["attn", "--model", str(pipeline["run"] / "model.xvm"),
                     "--utt", str(feat), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "frame\tweight"
        weights = np.array([float(l.split("\t")[1]) for l in lines[1:]])
        assert weights.shape[0] == utt.features.shape[0]
        assert np.all(weights > 0.0)


class TestTrainFlags:
    def test_pooling_override(self, tmp_path):
        cfg = micro_config(tmp_path, pooling="stats")
        corpus = tmp_path / "corpus"
        assert main(["gen-data", "--config", cfg, "--out-dir", str(corpus)]) == 0
        run = tmp_path / "run"
        assert main(["train", "--config", cfg, "--data", str(corpus / "train"),
                     "--out-dir", str(run), "--pooling", "att",
                     "--key-layer", "2", "--compat", "5-4",
                     "--epochs", "1"]) == 0
        model = load_model(run / "model.xvm")
        assert model.config.pooling == "attention"
        assert model.config.compat == [5, 4]

    def test_same_seed_same_model_bytes(self, tmp_path):
        cfg = micro_config(tmp_path)
        corpus = tmp_path / "corpus"
        assert main(["gen-data", "--config", cfg, "--out-dir", str(corpus)]) == 0
        outs = []
        for name in ("r1", "r2"):
            run = tmp_path / name
            assert main(["train", "--config", cfg, "--data", str(corpus / "train"),
                         "--out-dir", str(run), "--epochs", "1"]) == 0
            outs.append((run / "model.xvm").read_bytes())
        assert outs[0] == outs[1]

    def test_out_model_flag(self, tmp_path):
        cfg = micro_config(tmp_path, pooling="stats")
        corpus = tmp_path / "corpus"
        assert main(["gen-data", "--config", cfg, "--out-dir", str(corpus)]) == 0
        target = tmp_path / "elsewhere" / "final.xvm"
        target.parent.mkdir()
        assert main(["train", "--config", cfg, "--data", str(corpus / "train"),
                     "--out-dir", str(tmp_path / "run"), "--epochs", "1",
                     "--out-model", str(target)]) == 0
        assert target.exists()
        load_model(target)

    def test_heads_must_divide(self, tmp_path, capsys):
        cfg = micro_config(tmp_path, pooling="multihead")
        corpus = tmp_path / "corpus"
        assert main(["gen-data", "--config", cfg, "--out-dir", str(corpus)]) == 0
        assert main(["train", "--config", cfg, "--data", str(corpus / "train"),
                     "--out-dir", str(tmp_path / "run"), "--heads", "3"]) == 1
        assert "heads" in capsys.readouterr().err


class TestAttnErrors:
    def test_stats_model_refused(self, tmp_path, capsys):
        cfg = ModelConfig(input_dim=3, frame_layers=(FrameLayerSpec((0,), 4),),
                          pooling="stats", utterance_layers=[5], num_speakers=2)
        model_path = tmp_path / "m.xvm"
        save_model(build_model(cfg, seed=0), model_path)
        feat_path = tmp_path / "u.xvf"
        data.write_features(feat_path, np.zeros((6, 3)))
        assert main(["attn", "--model", str(model_path),
                     "--utt", str(feat_path), "--out", str(tmp_path / "t.tsv")]) == 1
        assert "stats" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_all_poolings_pass(self, capsys):
        assert main(["gradcheck", "--frames", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3
        for name in ("stats", "att", "multihead"):
            assert f"{name}:" in out

    def test_single_pooling(self, capsys):
        assert main(["gradcheck", "--pooling", "stats", "--frames", "4"]) == 0
        assert capsys.readouterr().out.count("[PASS]") == 1

    # seeds whose central-difference step once straddled a leaky-ReLU kink
    @pytest.mark.parametrize("pooling,seed", [("multihead", 46), ("stats", 261),
                                              ("att", 261), ("multihead", 261)])
    def test_kink_seeds_pass(self, pooling, seed, capsys):
        assert main(["gradcheck", "--pooling", pooling, "--seed", str(seed)]) == 0
        assert capsys.readouterr().out.count("[PASS]") == 1

    @pytest.mark.parametrize("frames", ["-1", "0", "1"])
    def test_too_few_frames_is_a_usage_error(self, frames, capsys):
        assert main(["gradcheck", "--frames", frames]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: --frames: must be >= 2, got {frames}"]

    def test_config_model(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model={
            "input_dim": 3,
            "frame_layers": [{"offsets": [-1, 0, 1], "width": 5},
                             {"offsets": [0], "width": 6}],
            "pooling": "multihead",
            "key_layer": 2,
            "compat": [4],
            "heads": 2,
            "utterance_layers": [5],
            "num_speakers": 2,
        })
        assert main(["gradcheck", "--config", str(cfg), "--frames", "5"]) == 0
        assert "[PASS]" in capsys.readouterr().out
