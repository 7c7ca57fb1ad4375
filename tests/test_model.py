import json
import struct
from dataclasses import asdict

import numpy as np
import pytest
from helpers import reference_forward

from xvec.config import from_json
from xvec.data import Dataset, Utterance
from xvec.errors import ConfigError, DataError, FormatError
from xvec.model import (
    CHECKPOINT_MAGIC,
    FrameLayerSpec,
    Model,
    ModelConfig,
    build_model,
    load_model,
    save_model,
)
from xvec.nn import BatchNorm
from xvec.pooling import StatsPool
from xvec.train import Optimizer, TrainConfig, check_model_gradients, classification_accuracy, train_step


def layers(*specs):
    return tuple(FrameLayerSpec(offsets=tuple(o), width=w) for o, w in specs)


def tiny_config(pooling="stats", **overrides):
    kwargs = dict(
        input_dim=4,
        frame_layers=layers(((-1, 0, 1), 6), ((-2, 0, 2), 6), ((0,), 8)),
        pooling=pooling,
        key_layer=2,
        compat=[5, 4],
        heads=2 if pooling == "multihead" else 1,
        utterance_layers=[7],
        num_speakers=3,
    )
    kwargs.update(overrides)
    return ModelConfig(**kwargs)


def plan_activations(model, x):
    """Each frame block's leaky ReLU output in an inference forward, run
    through the plan's layers; the block's own batch norm is not applied."""
    acts, h = [], x
    for block, affine in zip(model.frame_blocks, model.inference_plan().frame):
        h = block.act.forward(affine.forward(block.splice.forward(h)))
        acts.append(h)
    return acts


FULL_SCALE = dict(
    input_dim=60,
    frame_layers=layers(
        ((-2, -1, 0, 1, 2), 512),
        ((-2, 0, 2), 512),
        ((-3, 0, 3), 512),
        ((0,), 512),
        ((0,), 1500),
    ),
    utterance_layers=[512, 512],
    num_speakers=100,
)


class TestModelConfig:
    def test_full_scale_shapes(self):
        cfg = ModelConfig(pooling="stats", **FULL_SCALE)
        model = build_model(cfg, seed=0)
        shapes = dict((n, a.shape) for n, a in model.state_arrays())
        assert shapes["frame0.weight"] == (512, 300)
        assert shapes["frame1.weight"] == (512, 1536)
        assert shapes["frame2.weight"] == (512, 1536)
        assert shapes["frame3.weight"] == (512, 512)
        assert shapes["frame4.weight"] == (1500, 512)
        assert shapes["utt0.weight"] == (512, 3000)
        assert shapes["utt1.weight"] == (512, 512)
        assert shapes["classifier.weight"] == (100, 512)

    def test_heads_must_divide_value_dim(self):
        with pytest.raises(ConfigError, match="heads"):
            ModelConfig(
                input_dim=20,
                frame_layers=layers(
                    ((-2, -1, 0, 1, 2), 64), ((-2, 0, 2), 64), ((-3, 0, 3), 64),
                    ((0,), 64), ((0,), 192),
                ),
                pooling="multihead",
                key_layer=4,
                compat=[100],
                heads=10,
                utterance_layers=[64, 64],
                num_speakers=32,
            )

    def test_heads_must_divide_query_dim(self):
        with pytest.raises(ConfigError, match="heads"):
            tiny_config("multihead", compat=[5, 5], heads=2)

    def test_unknown_key_is_named(self):
        d = asdict(tiny_config())
        d["pooling_kind"] = "stats"
        with pytest.raises(ConfigError, match="pooling_kind"):
            from_json(ModelConfig, d, "model config")

    def test_unknown_frame_layer_key_is_named(self):
        d = asdict(tiny_config())
        d["frame_layers"][0]["with"] = 9
        with pytest.raises(ConfigError, match="with"):
            from_json(ModelConfig, d, "model config")

    def test_round_trip(self):
        for pooling in ("stats", "attention", "multihead"):
            cfg = tiny_config(pooling)
            assert from_json(ModelConfig, asdict(cfg), "model config") == cfg

    def test_key_layer_zero_means_last(self):
        assert tiny_config(key_layer=0).effective_key_layer == 3
        assert tiny_config(key_layer=2).effective_key_layer == 2

    @pytest.mark.parametrize("key_layer", [-1, 4])
    def test_key_layer_error_gives_the_range(self, key_layer):
        with pytest.raises(ConfigError, match=rf"key_layer: must be in \[0, 3\], 0 = the last layer, got {key_layer}$"):
            tiny_config("attention", key_layer=key_layer)

    def test_validation_names_fields(self):
        cases = [
            (dict(input_dim=0), "input_dim"),
            (dict(num_speakers=1), "num_speakers"),
            (dict(pooling="mean"), "pooling"),
            (dict(pooling="attention", compat=[]), "compat"),
            (dict(pooling="attention", heads=3), "heads"),
            (dict(pooling="multihead", key_layer=9), "key_layer"),
            (dict(pooling="multihead", heads=0), "heads"),
            (dict(embedding_tap=5), "embedding_tap"),
            (dict(utterance_layers=[]), "utterance_layers"),
        ]
        for overrides, field in cases:
            with pytest.raises(ConfigError, match=field):
                tiny_config(**overrides)


class TestBuild:
    def test_same_seed_bit_identical(self):
        a = build_model(tiny_config("multihead"), seed=7)
        b = build_model(tiny_config("multihead"), seed=7)
        for (name, xa), (_, xb) in zip(a.state_arrays(), b.state_arrays()):
            np.testing.assert_array_equal(xa, xb, err_msg=name)

    def test_different_seed_differs(self):
        a = build_model(tiny_config(), seed=0)
        b = build_model(tiny_config(), seed=1)
        assert any(not np.array_equal(xa, xb)
                   for (_, xa), (_, xb) in zip(a.state_arrays(), b.state_arrays()))

    def test_fresh_state(self):
        model = build_model(tiny_config("multihead"), seed=3)
        for block in model.frame_blocks:
            np.testing.assert_array_equal(block.affine.bias.value, 0.0)
            np.testing.assert_array_equal(block.bn.gamma.value, 1.0)
            np.testing.assert_array_equal(block.bn.beta.value, 0.0)
            np.testing.assert_array_equal(block.bn.running_mean, 0.0)
            np.testing.assert_array_equal(block.bn.running_var, 1.0)

    def test_query_init_scale(self):
        # q ~ N(0, 1/d_q): sample variance of a 100-dim draw should sit near 0.01
        cfg = tiny_config("multihead", compat=[10, 100], heads=2)
        draws = [build_model(cfg, seed=s).pool.query.value for s in range(30)]
        var = np.concatenate(draws).var()
        assert 0.007 < var < 0.013

    def test_parameter_groups_cover_everything(self):
        model = build_model(tiny_config("multihead"), seed=0)
        groups = model.parameter_groups()
        assert len(groups["theta_f"]) == 3 * 4
        assert len(groups["theta_k"]) == 2 * 4
        assert len(groups["query"]) == 1
        assert len(groups["theta_u"]) == 2 * 2
        stats_groups = build_model(tiny_config(), seed=0).parameter_groups()
        assert stats_groups["theta_k"] == [] and stats_groups["query"] == []


class TestForward:
    def test_posterior_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for pooling in ("stats", "attention", "multihead"):
            model = build_model(tiny_config(pooling), seed=1)
            trace = model.forward(rng.standard_normal((9, 4)))
            assert trace.posteriors.shape == (1, 3)
            np.testing.assert_allclose(trace.posteriors.sum(), 1.0, atol=1e-6)

    def test_stats_trace_has_no_attention(self):
        model = build_model(tiny_config(), seed=0)
        trace = model.forward(np.zeros((4, 4)))
        assert trace.attention is None
        assert trace.pooled.shape == (16,)

    def test_attention_trace_shape(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 4))
        trace = build_model(tiny_config("attention"), seed=0).forward(x)
        assert trace.attention.shape == (1, 6)
        trace = build_model(tiny_config("multihead"), seed=0).forward(x)
        assert trace.attention.shape == (2, 6)
        np.testing.assert_allclose(trace.attention.sum(axis=1), 1.0, atol=1e-9)

    def test_pooling_swap_keeps_shapes(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 4))
        dims = set()
        for pooling in ("stats", "attention", "multihead"):
            trace = build_model(tiny_config(pooling), seed=0).forward(x)
            dims.add((trace.pooled.shape, trace.posteriors.shape))
        assert len(dims) == 1

    def test_wrong_input_dim(self):
        model = build_model(tiny_config(), seed=0)
        with pytest.raises(DataError, match="columns"):
            model.forward(np.zeros((3, 5)))

    def test_infer_is_batch_independent(self):
        model = build_model(tiny_config("multihead"), seed=4)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 4))
        full = plan_activations(model, x)[0]
        half = plan_activations(model, x[:4])[0]
        np.testing.assert_array_equal(full[:3], half[:3])  # splice edge differs at row 3

    def test_duplicated_frames_stats_invariance(self):
        # point-context layers so splicing cannot see the duplication seam
        cfg = tiny_config(frame_layers=layers(((0,), 6), ((0,), 8)), key_layer=0)
        model = build_model(cfg, seed=5)
        x = np.random.default_rng(5).standard_normal((7, 4))
        once = model.forward(x).pooled
        twice = model.forward(np.repeat(x, 2, axis=0)).pooled
        np.testing.assert_allclose(twice, once, atol=1e-9)

    def test_key_layer_last_means_keys_are_values(self):
        x = np.random.default_rng(6).standard_normal((5, 4))
        explicit = build_model(tiny_config("multihead", key_layer=3), seed=2)
        default = build_model(tiny_config("multihead", key_layer=0), seed=2)
        np.testing.assert_array_equal(
            explicit.forward(x).posteriors, default.forward(x).posteriors
        )
        # the unfolded compatibility net on the values gives the attention
        values = explicit.frame_blocks[2].bn.forward(plan_activations(explicit, x)[2])
        _, (attention,), _ = explicit.pool.pool_from_compat(values[None], explicit.pool.net.forward(values)[None])
        np.testing.assert_allclose(explicit.forward(x).attention, attention, rtol=1e-12)

    def test_small_query_approaches_stats_pooling(self):
        # as the query shrinks the weights flatten and attention meets the
        # stats path; the stock initialization only bounds the gap loosely
        rng = np.random.default_rng(7)
        x = rng.standard_normal((40, 4))
        for pooling in ("attention", "multihead"):
            model = build_model(tiny_config(pooling), seed=7)
            model.pool.query.value *= 1e-3
            trace = model.forward(x)
            values = model.frame_blocks[-1].bn.forward(plan_activations(model, x)[-1])
            (reference,), _ = StatsPool().pool(values[None])
            rel = np.abs(trace.pooled - reference) / np.maximum(np.abs(reference), 1e-8)
            assert rel.max() < 1e-2
            assert trace.attention.max() < 0.5  # nothing collapses to one frame

    def test_fresh_attention_does_not_collapse(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((40, 4))
        for seed in range(5):
            trace = build_model(tiny_config("attention"), seed=seed).forward(x)
            assert trace.attention.max() < 0.5


def randomize_batch_norms(model, rng):
    """Give every batch norm a scale of either sign, a shift and running
    statistics far from the fresh 1/0/0/1, so no fold is near the identity."""
    for name, array in model.state_arrays():
        if name.endswith(".bn.running_var"):
            array[...] = rng.uniform(0.2, 3.0, array.shape)
        elif ".bn." in name:
            array[...] = rng.normal(0.0, 1.5, array.shape)


def assert_rel_close(got, ref, rtol=1e-12):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    err = float(np.abs(got - ref).max())
    assert err <= rtol * float(np.abs(ref).max()), f"max abs error {err:.3e}"


def assert_matches_reference(model, x):
    trace = model.forward(x)
    preacts, posteriors, attention = reference_forward(model, x)
    for got, ref in zip(trace.utterance_preactivations, preacts, strict=True):
        assert_rel_close(got, ref)
    assert_rel_close(trace.posteriors[0], posteriors)
    if attention is None:
        assert trace.attention is None
    else:
        assert_rel_close(trace.attention, attention)
    return trace


class TestFoldedForward:
    """The folded inference plan against the unfolded plain-NumPy forward."""

    CASES = {
        "stats": ("stats", {}),
        "attention-inner-key": ("attention", {}),
        "multihead-inner-key": ("multihead", {}),
        "attention-last-key": ("attention", {"key_layer": 3}),
        "multihead-last-key": ("multihead", {"key_layer": 0}),
        "multihead-first-key-one-compat-block": ("multihead", {"key_layer": 1, "compat": [4]}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("frames", [1, 2, 9, 40])  # receptive field 7: short ones clamp
    def test_matches_unfolded_reference(self, case, frames):
        pooling, overrides = self.CASES[case]
        model = build_model(tiny_config(pooling, utterance_layers=[7, 5], **overrides), seed=21)
        rng = np.random.default_rng(frames)
        randomize_batch_norms(model, rng)
        x = rng.standard_normal((frames, 4))
        trace = assert_matches_reference(model, x)
        emb = model.extract_embedding(x)
        assert_rel_close(emb, reference_forward(model, x)[0][0])
        given = model.forward(x, plan=model.inference_plan())
        np.testing.assert_array_equal(given.posteriors, trace.posteriors)
        np.testing.assert_array_equal(given.pooled, trace.pooled)

    @pytest.mark.parametrize("pooling", ["stats", "attention", "multihead"])
    @pytest.mark.parametrize("gamma", ["negative", "zero", "mixed"])
    @pytest.mark.parametrize("frames", [1, 2, 9, 40])
    def test_pooling_batch_norms_of_any_scale(self, pooling, gamma, frames):
        """The plan pools the values and the compatibility outputs before
        their batch norms, which then act on the pooled statistics and the
        query: a scale of either sign or zero must fold as well."""
        model = build_model(tiny_config(pooling), seed=25)
        rng = np.random.default_rng(frames)
        randomize_batch_norms(model, rng)
        norms = [model.frame_blocks[-1].bn]
        if pooling != "stats":
            norms.append(model.pool.net.blocks[-1][2])
        for bn in norms:
            g = bn.gamma.value
            if gamma == "zero":
                g[...] = 0.0
            else:
                g[...] = -np.abs(g)
                if gamma == "mixed":
                    g[::3] = 0.0
                    g[1::3] *= -1.0
        assert_matches_reference(model, rng.standard_normal((frames, 4)))

    @pytest.mark.parametrize("pooling", ["stats", "attention", "multihead"])
    def test_batch_norm_runs_on_the_pooled_mean_only(self, pooling, monkeypatch):
        model = build_model(tiny_config(pooling), seed=26)
        plan = model.inference_plan()
        rows = []
        forward = BatchNorm.forward

        def spy(bn, x, *args, **kwargs):
            rows.append(x.shape[0])
            return forward(bn, x, *args, **kwargs)

        monkeypatch.setattr(BatchNorm, "forward", spy)
        model.forward(np.random.default_rng(26).standard_normal((9, 4)), plan=plan)
        assert rows == [1]

    def test_follows_a_train_step(self):
        model = build_model(tiny_config("multihead"), seed=22)
        rng = np.random.default_rng(22)
        randomize_batch_norms(model, rng)
        x = rng.standard_normal((9, 4))
        before = model.forward(x).posteriors
        opt = Optimizer(model.parameter_groups(), TrainConfig(lr=1e-2))
        train_step(model, opt, rng.standard_normal((4, 6, 4)), np.array([0, 1, 2, 0]))
        after = assert_matches_reference(model, x).posteriors
        assert np.abs(after - before).max() > 1e-6

    @pytest.mark.parametrize("name", [
        "frame0.bn.running_mean", "frame0.bn.running_var", "frame0.bn.gamma", "frame1.weight",
        "frame1.bn.beta", "compat0.bn.running_var", "compat1.weight", "compat1.bn.gamma",
    ])
    def test_follows_in_place_edits(self, name):
        model = build_model(tiny_config("multihead"), seed=23)
        rng = np.random.default_rng(23)
        randomize_batch_norms(model, rng)
        x = rng.standard_normal((9, 4))
        before = model.forward(x).posteriors
        dict(model.state_arrays())[name][...] *= 1.7
        after = assert_matches_reference(model, x).posteriors
        assert np.abs(after - before).max() > 1e-9

    def test_accuracy_sweep_follows_in_place_edits(self):
        model = build_model(tiny_config("attention"), seed=24)
        rng = np.random.default_rng(24)
        randomize_batch_norms(model, rng)
        feats = [rng.standard_normal((int(rng.integers(5, 15)), 4)) for _ in range(30)]

        def predicted():
            return [int(np.argmax(reference_forward(model, f)[1])) for f in feats]

        speakers = ["a", "b", "c"]
        utts = [Utterance(f"u{i}", speakers[k], f) for i, (f, k) in enumerate(zip(feats, predicted()))]
        ds = Dataset(utts, speakers)
        assert classification_accuracy(model, ds) == 1.0
        dict(model.state_arrays())["frame0.bn.running_mean"][...] *= -1.0
        expected = np.mean([ds.label(u) == k for u, k in zip(utts, predicted())])
        assert expected < 1.0
        assert classification_accuracy(model, ds) == expected


class TestEmbedding:
    def test_embedding_is_preactivation(self):
        model = build_model(tiny_config(utterance_layers=[7, 5]), seed=0)
        x = np.random.default_rng(0).standard_normal((6, 4))
        trace = model.forward(x)
        emb = model.extract_embedding(x)
        assert emb.shape == (7,)
        np.testing.assert_array_equal(emb, trace.utterance_preactivations[0])
        affine = model.utt_affines[0]
        np.testing.assert_allclose(
            emb, affine.weight.value @ trace.pooled + affine.bias.value, rtol=1e-12
        )

    def test_embedding_tap_selects_layer(self):
        model = build_model(tiny_config(utterance_layers=[7, 5], embedding_tap=1), seed=0)
        x = np.random.default_rng(1).standard_normal((6, 4))
        emb = model.extract_embedding(x)
        assert emb.shape == (5,)
        np.testing.assert_array_equal(emb, model.forward(x).utterance_preactivations[1])

    def test_repeatable(self):
        model = build_model(tiny_config("multihead"), seed=0)
        x = np.random.default_rng(2).standard_normal((5, 4))
        np.testing.assert_array_equal(model.extract_embedding(x), model.extract_embedding(x))


class TestGradcheckFullModel:
    @pytest.mark.parametrize("pooling", ["stats", "attention", "multihead"])
    def test_tiny_model(self, pooling):
        model = build_model(tiny_config(pooling), seed=11)
        rng = np.random.default_rng(11)
        report = check_model_gradients(model, rng.standard_normal((5, 4)), label=2)
        assert report.passed, f"{pooling}: worst {report.worst} at {report.max_rel_err:.3e}"
        assert report.max_rel_err < 1e-4


class TestBatchedForward:
    def test_replicated_chunks_match_single_forward(self):
        for pooling in ("stats", "attention", "multihead"):
            model = build_model(tiny_config(pooling), seed=12)
            chunk = np.random.default_rng(12).standard_normal((6, 4))
            single = model.forward(chunk, train=True).posteriors[0]
            batched, _ = model.forward_batch(np.repeat(chunk[None], 3, axis=0), train=True)
            for row in batched:
                np.testing.assert_allclose(row, single, rtol=1e-9)

    def test_rejects_wrong_shapes(self):
        model = build_model(tiny_config(), seed=0)
        with pytest.raises(DataError, match="3-D"):
            model.forward_batch(np.zeros((5, 4)))
        with pytest.raises(DataError, match="columns"):
            model.forward_batch(np.zeros((2, 5, 3)))

    @pytest.mark.parametrize("pooling", ["stats", "attention", "multihead"])
    def test_gradients_match_finite_differences(self, pooling):
        self.assert_gradients_match(build_model(tiny_config(pooling), seed=13))

    @pytest.mark.parametrize("pooling", ["stats", "multihead"])
    def test_gradients_match_finite_differences_when_the_last_block_splices(self, pooling):
        # pooling's work array cannot share the splice buffer then
        frame_layers = layers(((-1, 0, 1), 6), ((-1, 0, 1), 8))
        self.assert_gradients_match(build_model(tiny_config(pooling, frame_layers=frame_layers, key_layer=1), seed=13))

    @staticmethod
    def assert_gradients_match(model):
        from helpers import assert_grads_close, numeric_grad
        from xvec.nn import cross_entropy, cross_entropy_backward

        feats = np.random.default_rng(13).standard_normal((3, 5, 4))
        labels = np.array([0, 2, 1])
        running = {n: a for n, a in model.state_arrays() if "running" in n}
        saved = {n: a.copy() for n, a in running.items()}

        def loss():
            for n, a in running.items():
                a[...] = saved[n]
            posteriors, _ = model.forward_batch(feats, train=True)
            return float(cross_entropy(posteriors, labels))

        model.zero_grad()
        posteriors, cache = model.forward_batch(feats, train=True)
        model.backward_batch(cross_entropy_backward(posteriors, labels), cache)
        for n, a in running.items():
            a[...] = saved[n]
        for p in model.parameters():
            assert_grads_close(p.grad, numeric_grad(loss, p.value), what=p.name)


class TestCheckpoint:
    def _model(self, tmp_path, pooling="multihead"):
        model = build_model(tiny_config(pooling), seed=9)
        # perturb running stats so the round trip covers non-initial state
        model.frame_blocks[0].bn.running_mean += 0.25
        path = tmp_path / "m.xvm"
        save_model(model, path)
        return model, path

    def test_layout(self):
        """The parameters in order, each batch norm's running statistics
        right after its beta, as the model's own arrays."""
        model = build_model(tiny_config("multihead"), seed=0)

        def block(name):
            return [f"{name}.{part}" for part in ("weight", "bias", "bn.gamma", "bn.beta",
                                                  "bn.running_mean", "bn.running_var")]

        assert [name for name, _ in model.state_arrays()] == (
            block("frame0") + block("frame1") + block("frame2") + block("compat0") + block("compat1")
            + ["query", "utt0.weight", "utt0.bias", "classifier.weight", "classifier.bias"])
        arrays = dict(model.state_arrays())
        assert arrays["frame1.bn.running_var"] is model.frame_blocks[1].bn.running_var
        assert arrays["compat1.bn.running_mean"] is model.pool.net.blocks[1][2].running_mean

    def test_round_trip_values(self, tmp_path):
        for pooling in ("stats", "attention", "multihead"):
            model, path = self._model(tmp_path, pooling)
            loaded = load_model(path)
            assert loaded.config == model.config
            for (name, xa), (_, xb) in zip(model.state_arrays(), loaded.state_arrays()):
                np.testing.assert_array_equal(xa, xb, err_msg=name)

    def test_round_trip_bytes(self, tmp_path):
        _, path = self._model(tmp_path)
        again = tmp_path / "again.xvm"
        save_model(load_model(path), again)
        assert path.read_bytes() == again.read_bytes()

    def test_forward_agrees_after_reload(self, tmp_path):
        model, path = self._model(tmp_path)
        x = np.random.default_rng(3).standard_normal((6, 4))
        np.testing.assert_array_equal(
            model.forward(x).posteriors, load_model(path).forward(x).posteriors
        )

    def test_bad_magic(self, tmp_path):
        _, path = self._model(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XVM9"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="byte 0"):
            load_model(path)

    def test_truncated_tensor(self, tmp_path):
        _, path = self._model(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError, match="truncated"):
            load_model(path)

    def test_trailing_bytes(self, tmp_path):
        _, path = self._model(tmp_path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            load_model(path)

    def test_count_mismatch(self, tmp_path):
        _, path = self._model(tmp_path)
        blob = bytearray(path.read_bytes())
        (config_len,) = struct.unpack_from("<Q", blob, 4)
        struct.pack_into("<Q", blob, 12 + config_len, 999)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=rf"999 elements.*\(count at byte {12 + config_len}\)$"):
            load_model(path)

    def test_wrongly_typed_config(self, tmp_path):
        _, path = self._model(tmp_path)
        blob = path.read_bytes()
        (config_len,) = struct.unpack_from("<Q", blob, 4)
        config = json.loads(blob[12 : 12 + config_len])
        config["heads"] = "x"
        text = json.dumps(config).encode()
        path.write_bytes(blob[:4] + struct.pack("<Q", len(text)) + text + blob[12 + config_len :])
        with pytest.raises(FormatError, match=r"m\.xvm: config\.heads: expected an integer.*byte 12"):
            load_model(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.xvm"
        path.write_bytes(CHECKPOINT_MAGIC + b"\x01")
        with pytest.raises(FormatError, match="truncated header at byte 5"):
            load_model(path)
