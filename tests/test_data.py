import json
import struct
from dataclasses import asdict

import numpy as np
import pytest
from helpers import sample_gate_loop

from xvec import data
from xvec.cli import main
from xvec.config import from_json
from xvec.data import (
    Dataset,
    FEATURE_MAGIC,
    SynthConfig,
    Utterance,
    chunk_utterance,
    gen_synthetic,
    load_dataset,
    make_batches,
    read_embeddings,
    read_features,
    stationary_on_fraction,
    write_dataset,
    write_embeddings,
    write_features,
)
from xvec.errors import ConfigError, DataError, FormatError


def small_config(**overrides):
    kwargs = dict(num_speakers=4, utts_per_speaker=3, min_frames=20,
                  max_frames=30, dim=5, sigma=0.5, seed=123)
    kwargs.update(overrides)
    return SynthConfig(**kwargs)


class TestSynthConfig:
    def test_validation(self):
        cases = [
            (dict(num_speakers=1), "num_speakers"),
            (dict(utts_per_speaker=0), "utts_per_speaker"),
            (dict(min_frames=5), "min_frames"),
            (dict(max_frames=10), "max_frames"),
            (dict(dim=0), "dim"),
            (dict(p_stay_on=1.0), "p_stay_on"),
            (dict(p_stay_off=0.0), "p_stay_off"),
            (dict(sigma=0.0), "sigma"),
        ]
        for overrides, field in cases:
            with pytest.raises(ConfigError, match=field):
                small_config(**overrides).validate()

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="speakers"):
            from_json(SynthConfig, {"speakers": 4}, "synth config")

    def test_round_trip(self):
        cfg = small_config()
        assert from_json(SynthConfig, asdict(cfg), "synth config") == cfg


class TestStationaryFraction:
    def test_symmetric_chain(self):
        assert stationary_on_fraction(0.9, 0.9) == 0.5

    def test_hand_value(self):
        # p_on = 1 - 0.8 = 0.2, p_off = 1 - 0.95 = 0.05 -> 0.2 / 0.25
        np.testing.assert_allclose(stationary_on_fraction(0.95, 0.8), 0.8, rtol=1e-12)

    def test_sampled_gates_match(self):
        cfg = small_config(num_speakers=2, utts_per_speaker=4,
                           min_frames=4000, max_frames=4100,
                           p_stay_on=0.85, p_stay_off=0.7)
        ds = Dataset.from_utterances(gen_synthetic(cfg))
        on = np.concatenate([u.gate for u in ds.utterances]).mean()
        expect = stationary_on_fraction(0.85, 0.7)
        assert abs(on - expect) <= 0.05 * expect


class TestGenSynthetic:
    def test_shapes_and_labels(self):
        ds = Dataset.from_utterances(gen_synthetic(small_config()))
        assert len(ds.utterances) == 12
        assert ds.speakers == sorted({u.speaker for u in ds.utterances})
        assert len(ds.speakers) == 4
        for u in ds.utterances:
            t, d = u.features.shape
            assert 20 <= t <= 30 and d == 5
            assert u.gate.shape == (t,)
            assert set(np.unique(u.gate)) <= {0, 1}
            assert 0 <= ds.label(u) < 4

    def test_deterministic(self):
        a = Dataset.from_utterances(gen_synthetic(small_config()))
        b = Dataset.from_utterances(gen_synthetic(small_config()))
        assert [u.utt_id for u in a.utterances] == [u.utt_id for u in b.utterances]
        for ua, ub in zip(a.utterances, b.utterances):
            np.testing.assert_array_equal(ua.features, ub.features)
            np.testing.assert_array_equal(ua.gate, ub.gate)

    def test_seed_changes_data(self):
        a = Dataset.from_utterances(gen_synthetic(small_config()))
        b = Dataset.from_utterances(gen_synthetic(small_config(seed=124)))
        assert not np.array_equal(a.utterances[0].features, b.utterances[0].features)

    def test_noiseless_limit(self):
        cfg = small_config(sigma=1e-12, scale=1.0, num_speakers=2, utts_per_speaker=1)
        ds = Dataset.from_utterances(gen_synthetic(cfg))
        # recover each speaker vector from the on-frames, then check both regimes
        for u in ds.utterances:
            on = u.features[u.gate == 1]
            off = u.features[u.gate == 0]
            if len(on):
                assert np.abs(on - on[0]).max() < 1e-10
                assert np.abs(on[0]).max() > 1e-3
            if len(off):
                np.testing.assert_allclose(off, 0.0, atol=1e-10)

    @pytest.mark.parametrize("p_stay_on, p_stay_off", [(0.9, 0.9), (0.95, 0.8), (0.0, 0.0), (0.0, 0.7),
                                                        (0.6, 0.0), (0.5, 0.999), (0.02, 0.03)])
    def test_gate_sampler_matches_the_loop(self, p_stay_on, p_stay_off):
        for seed in range(60):
            t = [1, 2, 3][seed] if seed < 3 else int(np.random.default_rng(seed).integers(1, 400))
            got = data._sample_gate(np.random.default_rng(seed), t, p_stay_on, p_stay_off)
            want = sample_gate_loop(np.random.default_rng(seed), t, p_stay_on, p_stay_off)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want, err_msg=f"seed {seed}, t {t}")

    def test_gen_data_writes_the_loop_sampler_corpus(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.json"
        synth = asdict(small_config(p_stay_on=0.8, p_stay_off=0.6))
        cfg.write_text(json.dumps({"synth": {"train": synth, "eval": synth}, "trials": {"enroll_per_speaker": 1}}))
        assert main(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path / "fast")]) == 0
        monkeypatch.setattr(data, "_sample_gate", sample_gate_loop)
        assert main(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path / "loop")]) == 0
        files = sorted(p.relative_to(tmp_path / "loop") for p in (tmp_path / "loop").rglob("*") if p.is_file())
        assert len(files) == 2 * 12 + 6  # features, then a manifest and gates per split, trials and enrollment
        for rel in files:
            assert (tmp_path / "fast" / rel).read_bytes() == (tmp_path / "loop" / rel).read_bytes(), rel

    def test_split_tag_in_ids(self):
        ds = Dataset.from_utterances(gen_synthetic(small_config(), split="eval"))
        assert all(u.utt_id.startswith("eval-") for u in ds.utterances)
        assert len({u.utt_id for u in ds.utterances}) == len(ds.utterances)


class TestFeatureFiles:
    def test_round_trip_is_exact_at_32_bits(self, tmp_path):
        x = np.random.default_rng(0).standard_normal((7, 3))
        path = tmp_path / "a.xvf"
        write_features(path, x)
        got = read_features(path)
        assert got.dtype == np.float32  # as on disk; the model widens exactly
        np.testing.assert_array_equal(got, x.astype(np.float32))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.xvf"
        path.write_bytes(b"")
        with pytest.raises(FormatError, match="byte"):
            read_features(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.xvf"
        path.write_bytes(b"NOPE" + struct.pack("<II", 1, 1) + b"\x00" * 4)
        with pytest.raises(FormatError, match="magic"):
            read_features(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.xvf"
        body = np.arange(5, dtype="<f4").tobytes()  # header claims 2x3 = 6 floats
        path.write_bytes(FEATURE_MAGIC + struct.pack("<II", 2, 3) + body)
        with pytest.raises(FormatError, match="byte"):
            read_features(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.xvf"
        write_features(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_features(path)

    def test_degenerate_shape(self, tmp_path):
        path = tmp_path / "zero.xvf"
        path.write_bytes(FEATURE_MAGIC + struct.pack("<II", 0, 3))
        with pytest.raises(FormatError, match="shape 0 x 3 in header at byte 4"):
            read_features(path)


class TestEmbeddingFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        embs = {"utt-a": rng.standard_normal(6), "utt-b": rng.standard_normal(6)}
        path = tmp_path / "e.xve"
        write_embeddings(path, embs)
        got = read_embeddings(path)
        assert set(got) == set(embs)
        for k in embs:
            np.testing.assert_array_equal(got[k], embs[k].astype(np.float32).astype(np.float64))

    def test_corrupt_record(self, tmp_path):
        path = tmp_path / "e.xve"
        write_embeddings(path, {"u": np.ones(4)})
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="byte"):
            read_embeddings(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "e.xve"
        write_embeddings(path, {f"u{i}": np.ones(4) for i in range(3)})
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(FormatError, match=f"7 trailing bytes at byte {size}"):
            read_embeddings(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "e.xve"
        write_embeddings(path, {"u": np.ones(4), "v": np.ones(4)})
        path.write_bytes(path.read_bytes().replace(b"v", b"u"))
        with pytest.raises(FormatError, match="duplicate id 'u' at byte 33"):
            read_embeddings(path)

    def test_an_id_holding_a_line_break_is_quoted_on_one_line(self, tmp_path):
        path = tmp_path / "e.xve"
        write_embeddings(path, {"u\nv": np.ones(4), "w": np.ones(4)})
        path.write_bytes(path.read_bytes().replace(b"\x01\x00w", b"\x03\x00u\nv"))
        with pytest.raises(FormatError) as e:
            read_embeddings(path)
        assert str(e.value) == f"{path}: duplicate id 'u\\nv' at byte 35"

    def test_overlong_id_rejected_before_writing(self, tmp_path):
        path = tmp_path / "e.xve"
        with pytest.raises(DataError, match="65535"):
            write_embeddings(path, {"u": np.ones(4), "x" * 65536: np.ones(4)})
        assert not path.exists()
        write_embeddings(path, {"x" * 65535: np.ones(4)})
        assert list(read_embeddings(path)) == ["x" * 65535]


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        ds = Dataset.from_utterances(gen_synthetic(small_config()))
        root = tmp_path / "out"
        write_dataset(ds.utterances, root)
        assert (root / "manifest.tsv").exists()
        assert (root / "gates.tsv").exists()
        back = load_dataset(root)
        assert back.speakers == ds.speakers
        assert [u.utt_id for u in back.utterances] == [u.utt_id for u in ds.utterances]
        for ua, ub in zip(ds.utterances, back.utterances):
            assert ub.speaker == ua.speaker
            np.testing.assert_array_equal(
                ub.features, ua.features.astype(np.float32).astype(np.float64)
            )
            np.testing.assert_array_equal(ub.gate, ua.gate)

    def test_load_without_gates(self, tmp_path):
        root = tmp_path / "out"
        write_dataset(gen_synthetic(small_config()), root)
        (root / "gates.tsv").unlink()
        back = load_dataset(root)
        assert all(u.gate is None for u in back.utterances)

    def test_gate_length_mismatch(self, tmp_path):
        root = tmp_path / "out"
        write_dataset(gen_synthetic(small_config()), root)
        lines = (root / "gates.tsv").read_text().splitlines()
        utt, gate = lines[0].split("\t")
        lines[0] = f"{utt}\t{gate[:-1]}"
        (root / "gates.tsv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=utt):
            load_dataset(root)

    def test_gate_must_be_binary(self, tmp_path):
        root = tmp_path / "out"
        write_dataset(gen_synthetic(small_config()), root)
        lines = (root / "gates.tsv").read_text().splitlines()
        utt, gate = lines[0].split("\t")
        lines[0] = f"{utt}\t2{gate[1:]}"
        (root / "gates.tsv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError):
            load_dataset(root)

    def test_failed_write_leaves_no_manifest(self, tmp_path):
        """Features are written as the utterances arrive and the manifest
        last, so a write that fails partway leaves no manifest naming files
        it did not write, not even one an earlier write left."""
        root = tmp_path / "out"
        write_dataset(gen_synthetic(small_config()), root)

        def fifth_is_bad():
            for k, utt in enumerate(gen_synthetic(small_config(seed=5), split="eval")):
                if k == 4:
                    utt.features[0, 0] = np.nan
                yield utt

        with pytest.raises(DataError, match="non-finite"):
            write_dataset(fifth_is_bad(), root)
        assert not (root / "manifest.tsv").exists() and not (root / "gates.tsv").exists()
        assert len(list((root / "feats").glob("eval-*.xvf"))) == 4

    def test_empty_manifest(self, tmp_path):
        root = tmp_path / "out"
        root.mkdir()
        (root / "manifest.tsv").write_text("")
        with pytest.raises(DataError, match="manifest"):
            load_dataset(root)

    def test_malformed_manifest_line(self, tmp_path):
        root = tmp_path / "out"
        root.mkdir()
        (root / "manifest.tsv").write_text("u1 only-one-field\n")
        with pytest.raises(FormatError, match="manifest.tsv:1"):
            load_dataset(root)

    def test_duplicate_utterance_id(self, tmp_path):
        root = tmp_path / "out"
        write_dataset(gen_synthetic(small_config()), root)
        lines = (root / "manifest.tsv").read_text().splitlines()
        utt, _, rel = lines[0].split("\t")
        lines.append(f"{utt}\ts0003\t{rel}")
        (root / "manifest.tsv").write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=rf"manifest.tsv:{len(lines)}: duplicate utterance id \({utt}\), first on line 1$"):
            load_dataset(root)

    def test_mixed_feature_dims(self, tmp_path):
        root = tmp_path / "out"
        write_dataset(gen_synthetic(small_config()), root)
        rel = (root / "manifest.tsv").read_text().splitlines()[2].split("\t")[2]
        write_features(root / rel, np.ones((25, 4)))
        with pytest.raises(DataError, match="manifest.tsv:3: .* has 4 feature columns, line 1 has 5"):
            load_dataset(root)


class TestChunking:
    def test_full_length_chunk_is_identity(self):
        x = np.arange(12, dtype=float).reshape(4, 3)
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(chunk_utterance(x, 4, rng), x)

    def test_chunk_is_contiguous_window(self):
        x = np.arange(40, dtype=float).reshape(20, 2)
        rng = np.random.default_rng(1)
        for _ in range(20):
            chunk = chunk_utterance(x, 5, rng)
            assert chunk.shape == (5, 2)
            start = int(chunk[0, 0] // 2)
            np.testing.assert_array_equal(chunk, x[start : start + 5])

    def test_short_utterance_padded_by_replication(self):
        x = np.arange(6, dtype=float).reshape(3, 2)
        chunk = chunk_utterance(x, 5, np.random.default_rng(2))
        np.testing.assert_array_equal(chunk[:3], x)
        np.testing.assert_array_equal(chunk[3], x[-1])
        np.testing.assert_array_equal(chunk[4], x[-1])

    def test_every_start_reachable(self):
        x = np.arange(8, dtype=float).reshape(8, 1)
        rng = np.random.default_rng(3)
        starts = {int(chunk_utterance(x, 4, rng)[0, 0]) for _ in range(200)}
        assert starts == {0, 1, 2, 3, 4}


class TestBatching:
    def test_epoch_covers_each_utterance_once(self):
        ds = Dataset.from_utterances(gen_synthetic(small_config()))
        batches = list(make_batches(ds, chunk_len=15, batch_size=5, seed=0))
        counts = [len(labels) for _, labels in batches]
        assert counts == [5, 5, 2]
        labels = np.concatenate([lab for _, lab in batches])
        expected = np.sort([ds.label(u) for u in ds.utterances])
        np.testing.assert_array_equal(np.sort(labels), expected)

    def test_shapes(self):
        ds = Dataset.from_utterances(gen_synthetic(small_config()))
        chunks, labels = next(iter(make_batches(ds, chunk_len=15, batch_size=4, seed=1)))
        assert len(chunks) == 4 and labels.shape == (4,)
        for c in chunks:
            assert c.shape == (15, 5)

    def test_deterministic(self):
        ds = Dataset.from_utterances(gen_synthetic(small_config()))
        a = list(make_batches(ds, chunk_len=10, batch_size=3, seed=7))
        b = list(make_batches(ds, chunk_len=10, batch_size=3, seed=7))
        for (ca, la), (cb, lb) in zip(a, b):
            np.testing.assert_array_equal(la, lb)
            for xa, xb in zip(ca, cb):
                np.testing.assert_array_equal(xa, xb)

    def test_seed_shuffles(self):
        ds = Dataset.from_utterances(gen_synthetic(small_config()))
        a = next(iter(make_batches(ds, chunk_len=10, batch_size=12, seed=0)))[1]
        b = next(iter(make_batches(ds, chunk_len=10, batch_size=12, seed=1)))[1]
        assert not np.array_equal(a, b)

    def test_oversized_chunk_pads_and_warns(self, caplog):
        ds = Dataset.from_utterances(gen_synthetic(small_config()))
        with caplog.at_level("WARNING"):
            batches = list(make_batches(ds, chunk_len=40, batch_size=4, seed=0))
        assert any("40" in rec.message for rec in caplog.records)
        for chunks, _ in batches:
            for c in chunks:
                assert c.shape == (40, 5)


class TestDatasetType:
    def test_label_lookup(self):
        u = Utterance("u0", "spk-b", np.ones((12, 2)), None)
        v = Utterance("u1", "spk-a", np.ones((12, 2)), None)
        ds = Dataset([u, v], ["spk-a", "spk-b"])
        assert ds.label(u) == 1 and ds.label(v) == 0

    def test_unknown_speaker_rejected(self):
        u = Utterance("u0", "spk-x", np.ones((12, 2)), None)
        with pytest.raises(DataError, match="spk-x"):
            Dataset([u], ["spk-a"])
