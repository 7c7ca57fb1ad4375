import json
import os
import re
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

    def test_eval_leaves_numpy_ma_unloaded(self):
        # numpy.ma loaded in the middle of eval pins the memory eval frees,
        # so a later command in the same process peaks higher
        code = ("import sys, numpy as np; from xvec.evaluation import compute_metrics; "
                "compute_metrics(np.array([0.1, 0.4, 0.4, 0.9]), np.array([0, 1, 0, 1])); "
                "print('numpy.ma' in sys.modules)")
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
        data.write_embeddings(emb, {"a": np.ones(3), "b": np.ones(3)})  # the writer refuses two lengths
        # b's length field follows the header (8), a's record (2+1+4+12) and b's id (2+1)
        blob = emb.read_bytes()
        emb.write_bytes(blob[:30] + struct.pack("<I", 4) + blob[34:] + struct.pack("<f", 1.0))
        trials = tmp_path / "trials.tsv"
        trials.write_text("a\tb\ttarget\n")
        rc = main(["score", "--embeddings", str(emb), "--trials", str(trials),
                   "--out", str(tmp_path / "s.tsv")])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 2
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
        assert set(first) == {"step", "loss", "grad_norm", "grad_norm_theta_f", "grad_norm_theta_k",
                              "grad_norm_query", "grad_norm_theta_u", "clipped", "lr", "epoch"}

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
        assert model.config.compat == (5, 4)

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
        out = tmp_path / "t.tsv"
        assert main(["attn", "--model", str(model_path), "--utt", str(feat_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {model_path}: pooling 'stats' produces no attention weights"]
        assert not out.exists()


class TestErrorsNameTheirFiles:
    """A dataset, trial or score file at fault fails with its exit code and
    one error line naming the files involved, and the line where one row is
    at fault, before anything is written."""

    def _refused(self, argv, code, message, out, capsys):
        assert main(argv) == code
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.fixture
    def eval_copy(self, pipeline, tmp_path):
        shutil.copytree(pipeline["corpus"] / "eval", tmp_path / "eval")
        return tmp_path / "eval"

    def _extract(self, pipeline, eval_dir, out):
        return ["extract", "--model", str(pipeline["run"] / "model.xvm"), "--data", str(eval_dir), "--out", str(out)]

    def test_gate_short_of_its_frames(self, pipeline, eval_copy, tmp_path, capsys):
        gates = eval_copy / "gates.tsv"
        lines = gates.read_text().splitlines()
        utt, bits = lines[2].split("\t")
        lines[2] = f"{utt}\t{bits[:-3]}"
        gates.write_text("\n".join(lines) + "\n")
        manifest_line = [row.split("\t")[0] for row in (eval_copy / "manifest.tsv").read_text().splitlines()].index(utt) + 1
        out = tmp_path / "e.xve"
        self._refused(self._extract(pipeline, eval_copy, out), 2,
                      f"{gates}:3: {len(bits) - 3} gate values for {utt}, but feats/{utt}.xvf "
                      f"({eval_copy / 'manifest.tsv'}:{manifest_line}) has {len(bits)} frames", out, capsys)

    def test_feature_file_missing(self, pipeline, eval_copy, tmp_path, capsys):
        rel = (eval_copy / "manifest.tsv").read_text().splitlines()[3].split("\t")[2]
        (eval_copy / rel).unlink()
        out = tmp_path / "e.xve"
        self._refused(self._extract(pipeline, eval_copy, out), 2,
                      f"{eval_copy / 'manifest.tsv'}:4: cannot read {eval_copy / rel}: No such file or directory",
                      out, capsys)

    def _score(self, pipeline, tmp_path, field, line, value, name="trials.tsv"):
        """score with one field of one line of the trials or enrollment map replaced."""
        files = {n: tmp_path / n for n in ("trials.tsv", "enroll.tsv")}
        for n, path in files.items():
            shutil.copy(pipeline["corpus"] / n, path)
        rows = [row.split("\t") for row in files[name].read_text().splitlines()]
        rows[line - 1][field] = value
        files[name].write_text("".join("\t".join(row) + "\n" for row in rows))
        return files, ["score", "--embeddings", str(pipeline["emb"]), "--trials", str(files["trials.tsv"]),
                       "--enroll-map", str(files["enroll.tsv"]), "--out", str(tmp_path / "s.tsv")]

    def test_score_test_segment_without_embedding(self, pipeline, tmp_path, capsys):
        files, argv = self._score(pipeline, tmp_path, 1, 5, "ghost")
        self._refused(argv, 2, f"{files['trials.tsv']}:5: test segment 'ghost' has no embedding in {pipeline['emb']}",
                      tmp_path / "s.tsv", capsys)

    def test_score_enroll_id_nowhere(self, pipeline, tmp_path, capsys):
        files, argv = self._score(pipeline, tmp_path, 0, 7, "nobody")
        self._refused(argv, 2, f"{files['trials.tsv']}:7: enroll id 'nobody' is in neither "
                      f"{files['enroll.tsv']} nor {pipeline['emb']}", tmp_path / "s.tsv", capsys)
        # without an enrollment map, a speaker id is an enroll id the embeddings lack
        speaker = files["trials.tsv"].read_text().split("\t", 1)[0]
        self._refused(argv[:-4] + argv[-2:], 2, f"{files['trials.tsv']}:1: enroll id '{speaker}' is not in "
                      f"{pipeline['emb']}", tmp_path / "s.tsv", capsys)

    def test_score_enrollment_segment_without_embedding(self, pipeline, tmp_path, capsys):
        files, argv = self._score(pipeline, tmp_path, 1, 2, "nope", name="enroll.tsv")
        speaker = files["enroll.tsv"].read_text().splitlines()[1].split("\t")[0]
        self._refused(argv, 2, f"{files['enroll.tsv']}:2: segment 'nope' of speaker '{speaker}' has no embedding "
                      f"in {pipeline['emb']}", tmp_path / "s.tsv", capsys)

    def test_eval_trial_without_score(self, pipeline, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        lines = pipeline["scores"].read_text().splitlines(keepends=True)
        scores.write_text("".join(lines[:5] + lines[6:]))
        trials = pipeline["corpus"] / "trials.tsv"
        enroll, test = trials.read_text().splitlines()[5].split("\t")[:2]
        out = tmp_path / "m.json"
        self._refused(["eval", "--scores", str(scores), "--trials", str(trials), "--out", str(out)], 2,
                      f"{trials}:6: trial ({enroll}, {test}) has no score in {scores}", out, capsys)

    def test_eval_trials_of_one_class(self, pipeline, tmp_path, capsys):
        trials = tmp_path / "trials.tsv"
        targets = [row for row in (pipeline["corpus"] / "trials.tsv").read_text().splitlines(keepends=True)
                   if row.endswith("\ttarget\n")]
        trials.write_text("".join(targets))
        out = tmp_path / "m.json"
        self._refused(["eval", "--scores", str(pipeline["scores"]), "--trials", str(trials), "--out", str(out)], 2,
                      f"{trials}: need at least one target and one nontarget trial, "
                      f"got {len(targets)} targets and 0 nontargets", out, capsys)


class TestOutputWithNowhereToGo:
    """An output file whose directory does not exist, or that is a
    directory, and an output directory that is a file or lies under one,
    fail with exit 2 and one error line naming them, before any work and
    with nothing written."""

    def test_train_out_model(self, tmp_path, capsys):
        cfg = micro_config(tmp_path, epochs=1)
        corpus, run = tmp_path / "corpus", tmp_path / "run"
        assert main(["gen-data", "--config", cfg, "--out-dir", str(corpus)]) == 0
        capsys.readouterr()
        out = tmp_path / "missing" / "m.xvm"
        assert main(["train", "--config", cfg, "--data", str(corpus / "train"), "--out-dir", str(run),
                     "--out-model", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {out}: {out.parent} is not a directory"]
        assert not run.exists() and not out.parent.exists()

    @pytest.mark.parametrize("command", ["extract", "score", "eval", "attn"])
    def test_out(self, pipeline, tmp_path, capsys, command):
        corpus = pipeline["corpus"]
        out = tmp_path / "missing" / "out"
        argv = {
            "extract": ["--model", str(pipeline["run"] / "model.xvm"), "--data", str(corpus / "eval")],
            "score": ["--embeddings", str(pipeline["emb"]), "--trials", str(corpus / "trials.tsv")],
            "eval": ["--scores", str(pipeline["scores"]), "--trials", str(corpus / "trials.tsv")],
            "attn": ["--model", str(pipeline["run"] / "model.xvm"),
                     "--utt", str(next((corpus / "eval" / "feats").glob("*.xvf")))],
        }[command]
        assert main([command, *argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [f"error: {out}: {out.parent} is not a directory"]
        assert captured.out == "" and not out.parent.exists()
        out.mkdir(parents=True)
        assert main([command, *argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [f"error: {out}: is a directory"]
        assert captured.out == "" and not any(out.iterdir())

    def test_train_out_dir_is_a_file(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "F"
        out.write_text("keep")
        monkeypatch.setattr(data, "load_dataset", None)  # the command must fail before it loads anything
        assert main(["train", "--config", micro_config(tmp_path), "--data", str(tmp_path / "corpus"),
                     "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [f"error: {out}: is not a directory"]
        assert captured.out == "" and out.read_text() == "keep"

    def test_gen_data_out_dir_under_a_file(self, tmp_path, capsys, monkeypatch):
        parent = tmp_path / "F"
        parent.write_text("keep")
        out = parent / "sub"
        monkeypatch.setattr(data, "gen_synthetic", None)  # nor draw anything
        assert main(["gen-data", "--config", micro_config(tmp_path), "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [f"error: {out}: {parent} is not a directory"]
        assert captured.out == "" and parent.read_text() == "keep"


class TestRefusedBeforeWork:
    """A config value or a flag at fault fails before any work, with exit 1,
    one error line naming its source and nothing written."""

    def _refused(self, argv, message, out, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [f"error: {message}"]
        assert captured.out == "" and not out.exists()

    @pytest.fixture
    def corpus(self, tmp_path, capsys):  # 3 speakers, 4 feature columns
        assert main(["gen-data", "--config", micro_config(tmp_path), "--out-dir", str(tmp_path / "corpus")]) == 0
        capsys.readouterr()
        return tmp_path / "corpus" / "train"

    def test_one_frame_chunks(self, tmp_path, capsys):
        # 9 utterances in batches of 4: the last batch would be one frame
        cfg = json.loads(Path(micro_config(tmp_path)).read_text())
        cfg["synth"]["train"]["utts_per_speaker"] = 3
        corpus, run = tmp_path / "corpus", tmp_path / "run"
        assert main(["gen-data", "--config", write_config(tmp_path, **cfg), "--out-dir", str(corpus)]) == 0
        capsys.readouterr()
        cfg["train"]["chunk_len"] = 1
        path = write_config(tmp_path, "one-frame.json", **cfg)
        self._refused(["train", "--config", path, "--data", str(corpus / "train"), "--out-dir", str(run)],
                      f"{path}: train: chunk_len: must be >= 2, got 1", run, capsys)

    def test_negative_trial_count(self, tmp_path, capsys):
        cfg = json.loads(Path(micro_config(tmp_path)).read_text())
        cfg["trials"]["enroll_per_speaker"] = -2
        path, out = write_config(tmp_path, **cfg), tmp_path / "corpus"
        self._refused(["gen-data", "--config", path, "--out-dir", str(out)],
                      f"{path}: trials: enroll_per_speaker: must be >= 0, got -2", out, capsys)

    def test_trial_count_leaves_no_test_segments(self, tmp_path, capsys):
        cfg = json.loads(Path(micro_config(tmp_path)).read_text())
        cfg["trials"]["enroll_per_speaker"] = 3  # the eval split has 3 utterances per speaker
        path, out = write_config(tmp_path, **cfg), tmp_path / "corpus"
        self._refused(["gen-data", "--config", path, "--out-dir", str(out)],
                      f"{path}: trials.enroll_per_speaker (3) must be below synth.eval.utts_per_speaker (3) "
                      "to leave test segments", out, capsys)

    def test_gen_data_checks_the_train_section(self, tmp_path, capsys):
        path, out = micro_config(tmp_path, epochs=0), tmp_path / "corpus"
        self._refused(["gen-data", "--config", path, "--out-dir", str(out)],
                      f"{path}: train: epochs: must be >= 1, got 0", out, capsys)

    @pytest.mark.parametrize("flags, message", [
        (["--epochs", "0"], "--epochs: epochs: must be >= 1, got 0"),
        (["--heads", "0"], "--heads: heads: must be >= 1, got 0"),
        (["--key-layer", "9"], "--key-layer: key_layer: must be in [0, 2], 0 = the last layer, got 9"),
        (["--seed", "3", "--pooling", "multihead", "--heads", "5"],
         "--pooling, --heads: heads: 5 does not divide the value dimension 8"),
    ])
    def test_a_bad_flag_is_named(self, corpus, tmp_path, capsys, flags, message, monkeypatch):
        monkeypatch.setattr(data, "load_dataset", None)  # the model is settled before the corpus is read
        run = tmp_path / "run"
        self._refused(["train", "--config", micro_config(tmp_path, pooling="multihead"), "--data", str(corpus),
                       "--out-dir", str(run), *flags], message, run, capsys)

    def test_flags_do_not_complete_the_model_section(self, corpus, tmp_path, capsys):
        cfg = json.loads(Path(micro_config(tmp_path, pooling="multihead")).read_text())
        cfg["model"]["heads"] = 3
        path, run = write_config(tmp_path, **cfg), tmp_path / "run"
        self._refused(["train", "--config", path, "--data", str(corpus), "--out-dir", str(run), "--heads", "2"],
                      f"{path}: model: heads: 3 does not divide the value dimension 8", run, capsys)


class TestModelDataMismatch:
    """A model and data that do not fit fail with exit 2 and one error line
    naming both sources, before anything is written."""

    @pytest.fixture
    def corpus(self, tmp_path):  # 3 speakers, 5 feature columns
        rng = np.random.default_rng(0)
        data.write_dataset([data.Utterance(f"u{i}", f"s{i % 3}", rng.standard_normal((12, 5)))
                            for i in range(6)], tmp_path / "corpus")
        return tmp_path / "corpus"

    def _four_input_model(self, tmp_path):
        cfg = ModelConfig(input_dim=4, frame_layers=(FrameLayerSpec((0,), 4),), pooling="attention",
                          key_layer=1, compat=[3], utterance_layers=[5], num_speakers=3)
        path = tmp_path / "m.xvm"
        save_model(build_model(cfg, seed=0), path)
        return str(path)

    def _assert_refused(self, argv, message, out, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_extract(self, corpus, tmp_path, capsys):
        model, out = self._four_input_model(tmp_path), tmp_path / "e.xve"
        self._assert_refused(["extract", "--model", model, "--data", str(corpus), "--out", str(out)],
                             f"{corpus}: 5 feature columns, but {model} expects 4", out, capsys)

    def test_attn(self, corpus, tmp_path, capsys):
        model, out, utt = self._four_input_model(tmp_path), tmp_path / "t.tsv", corpus / "feats" / "u0.xvf"
        self._assert_refused(["attn", "--model", model, "--utt", str(utt), "--out", str(out)],
                             f"{utt}: 5 feature columns, but {model} expects 4", out, capsys)

    @pytest.mark.parametrize("key,value,what,have", [("input_dim", 7, "feature columns", 5),
                                                     ("num_speakers", 4, "speakers", 3)])
    def test_train(self, corpus, tmp_path, capsys, key, value, what, have):
        cfg = json.loads(Path(micro_config(tmp_path)).read_text())
        cfg["model"][key] = value
        cfg = write_config(tmp_path, **cfg)
        run = tmp_path / "run"
        self._assert_refused(["train", "--config", cfg, "--data", str(corpus), "--out-dir", str(run)],
                             f"{corpus}: {have} {what}, but {cfg}: model expects {value}", run, capsys)


class TestGradcheckCommand:
    def test_all_poolings_pass(self, capsys):
        assert main(["gradcheck", "--seed", "0", "--frames", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3
        for name in ("stats", "att", "multihead"):
            # the error it measured, not a floor it skipped to
            err = float(re.search(rf"^{name}: max rel err (\S+) ", out, re.M).group(1))
            assert 0.0 < err < 1e-4

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
