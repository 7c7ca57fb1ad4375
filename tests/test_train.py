import importlib
import json
from dataclasses import asdict

import numpy as np
import pytest
from helpers import assert_grads_close
from hypothesis import given, settings
from hypothesis import strategies as st

from xvec.config import from_json
from xvec.data import Dataset, SynthConfig, Utterance, gen_synthetic, make_batches
from xvec.errors import ConfigError, DataError, TrainingError
from xvec.model import FrameLayerSpec, ModelConfig, build_model, load_model
from xvec.nn import Parameter
from xvec.train import (
    GRADCHECK_THRESHOLD,
    Optimizer,
    TrainConfig,
    check_model_gradients,
    classification_accuracy,
    relative_error,
    train,
    train_step,
)

train_module = importlib.import_module("xvec.train")  # the name xvec.train is the train() function


def tiny_model(pooling="stats", num_speakers=3, seed=0, input_dim=4):
    cfg = ModelConfig(
        input_dim=input_dim,
        frame_layers=(
            FrameLayerSpec((-1, 0, 1), 6),
            FrameLayerSpec((0,), 8),
        ),
        pooling=pooling,
        key_layer=1,
        compat=[5, 4],
        heads=2 if pooling == "multihead" else 1,
        utterance_layers=[7],
        num_speakers=num_speakers,
    )
    return build_model(cfg, seed=seed)


def snapshot(model):
    return [(name, array.copy()) for name, array in model.state_arrays()]


def assert_state_equal(model, saved):
    for (name, array), (_, expect) in zip(model.state_arrays(), saved):
        np.testing.assert_array_equal(array, expect, err_msg=name)


def one_param(value, grad):
    p = Parameter("p", np.array(value, dtype=float))
    p.grad = np.array(grad, dtype=float)
    return p


class TestTrainConfig:
    def test_validation(self):
        cases = [
            (dict(optimizer="rmsprop"), "optimizer"),
            (dict(lr=-1e-3), "lr"),
            (dict(beta1=1.0), "beta1"),
            (dict(beta2=-0.1), "beta2"),
            (dict(momentum=1.5), "momentum"),
            (dict(adam_eps=0.0), "adam_eps"),
            (dict(weight_decay=-1.0), "weight_decay"),
            (dict(clip_norm=-0.5), "clip_norm"),
            (dict(batch_size=0), "batch_size"),
            (dict(chunk_len=1), "chunk_len"),
            (dict(epochs=0), "epochs"),
        ]
        for overrides, name in cases:
            with pytest.raises(ConfigError, match=name):
                TrainConfig(**overrides)

    def test_zero_lr_is_legal(self):
        TrainConfig(lr=0.0)

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            from_json(TrainConfig, {"learning_rate": 0.1}, "train config")

    def test_round_trip(self):
        cfg = TrainConfig(optimizer="sgd_momentum", lr=0.05, epochs=3)
        assert from_json(TrainConfig, asdict(cfg), "train config") == cfg


class TestOptimizer:
    def test_adam_single_step_hand_value(self):
        p = one_param([1.0], [2.0])
        cfg = TrainConfig(optimizer="adam", lr=0.1, clip_norm=0.0)
        Optimizer({"g": [p]}, cfg).step()
        m_hat = (0.1 * 2.0) / (1.0 - 0.9)
        v_hat = (0.001 * 4.0) / (1.0 - 0.999)
        expected = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(p.value, [expected], rtol=1e-15)

    def test_sgd_momentum_two_steps(self):
        p = one_param([1.0], [1.0])
        cfg = TrainConfig(optimizer="sgd_momentum", lr=0.1, momentum=0.9, clip_norm=0.0)
        opt = Optimizer({"g": [p]}, cfg)
        opt.step()
        np.testing.assert_allclose(p.value, [0.9], rtol=1e-15)
        p.grad = np.array([1.0])
        opt.step()
        # velocity 0.9*1 + 1 = 1.9
        np.testing.assert_allclose(p.value, [0.9 - 0.19], rtol=1e-14)

    def test_weight_decay_folds_into_gradient(self):
        p = one_param([2.0], [0.0])
        cfg = TrainConfig(optimizer="sgd_momentum", lr=0.1, momentum=0.0,
                          weight_decay=0.5, clip_norm=0.0)
        Optimizer({"g": [p]}, cfg).step()
        np.testing.assert_allclose(p.value, [1.9], rtol=1e-15)

    def test_clip_rescales_to_cap(self):
        p = one_param([0.0, 0.0], [3.0, 4.0])
        cfg = TrainConfig(optimizer="sgd_momentum", lr=1.0, momentum=0.0, clip_norm=1.0)
        measured = Optimizer({"g": [p]}, cfg).step()
        assert measured == {"grad_norm": 5.0, "grad_norm_g": 5.0, "clipped": True}  # the norms are pre-clip
        np.testing.assert_allclose(p.value, [-0.6, -0.8], rtol=1e-15)

    def test_clip_zero_disables(self):
        p = one_param([0.0, 0.0], [3.0, 4.0])
        cfg = TrainConfig(optimizer="sgd_momentum", lr=1.0, momentum=0.0, clip_norm=0.0)
        Optimizer({"g": [p]}, cfg).step()
        np.testing.assert_allclose(p.value, [-3.0, -4.0], rtol=1e-15)

    def test_update_norm_bounded_by_lr_times_cap(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            params = [one_param(rng.standard_normal(5), rng.standard_normal(5) * 10)
                      for _ in range(3)]
            before = [p.value.copy() for p in params]
            cfg = TrainConfig(optimizer="sgd_momentum", lr=0.01, momentum=0.0, clip_norm=2.0)
            Optimizer({"g": params}, cfg).step()
            update = np.sqrt(sum(np.sum((p.value - b) ** 2) for p, b in zip(params, before)))
            assert update <= 0.01 * 2.0 * (1 + 1e-12)

    def test_small_gradients_pass_unclipped(self):
        p = one_param([0.0], [0.5])
        cfg = TrainConfig(optimizer="sgd_momentum", lr=1.0, momentum=0.0, clip_norm=2.0)
        Optimizer({"g": [p]}, cfg).step()
        np.testing.assert_allclose(p.value, [-0.5], rtol=1e-15)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd_momentum"])
    def test_non_finite_gradient_names_group_parameter_and_step(self, optimizer):
        """The refusal comes before weight decay, the clip or any update:
        every parameter, gradient and moment and the step count stay."""
        model = tiny_model("multihead")
        groups = model.parameter_groups()
        opt = Optimizer(groups, TrainConfig(optimizer=optimizer, weight_decay=0.1, clip_norm=1e-3))
        rng = np.random.default_rng(6)
        for p in opt.params:
            p.grad = rng.standard_normal(p.value.shape)
        opt.step()
        bad = groups["theta_k"][1]
        bad.grad.flat[-1] = np.nan
        before = snapshot(model)
        grads = [p.grad.copy() for p in opt.params]
        moments = [m.copy() for m in opt._m + opt._v]
        with pytest.raises(TrainingError) as raised:
            opt.step()
        assert str(raised.value) == f"non-finite gradient in group 'theta_k' ({bad.name}) at step 2"
        assert_state_equal(model, before)
        for p, grad in zip(opt.params, grads):
            np.testing.assert_array_equal(p.grad, grad, err_msg=p.name)
        for m, saved in zip(opt._m + opt._v, moments):
            np.testing.assert_array_equal(m, saved)
        assert opt.t == 1


class TestTrainStep:
    def _batch(self, rng, n=2, t=8, d=4, k=3):
        feats = rng.standard_normal((n, t, d))
        labels = rng.integers(0, k, size=n)
        return feats, labels

    def test_zero_lr_leaves_parameters_unchanged(self):
        model = tiny_model()
        rng = np.random.default_rng(0)
        feats, labels = self._batch(rng)
        opt = Optimizer(model.parameter_groups(), TrainConfig(lr=0.0))
        before = [(n, a.copy()) for n, a in model.state_arrays()
                  if "running" not in n]
        loss, _ = train_step(model, opt, feats, labels)
        assert np.isfinite(loss) and loss > 0
        for (name, expect), (got_name, got) in zip(
            before, ((n, a) for n, a in model.state_arrays() if "running" not in n)
        ):
            np.testing.assert_array_equal(got, expect, err_msg=name)

    def test_loss_matches_single_chunk_on_replicated_batch(self):
        # B copies of one chunk leave the batch statistics equal to the
        # chunk statistics, so the batched loss must match the lone forward
        model = tiny_model()
        rng = np.random.default_rng(1)
        chunk = rng.standard_normal((8, 4))
        trace = model.forward(chunk, train=True)
        expected = -np.log(trace.posteriors[0, 2])
        opt = Optimizer(model.parameter_groups(), TrainConfig(lr=0.0))
        loss, _ = train_step(model, opt, np.repeat(chunk[None], 3, axis=0), np.array([2, 2, 2]))
        np.testing.assert_allclose(loss, expected, rtol=1e-12)

    def test_loss_averages_per_chunk_terms(self):
        model = tiny_model()
        rng = np.random.default_rng(12)
        feats, labels = self._batch(rng, n=3)
        posteriors, _ = model.forward_batch(feats, train=True)
        per_chunk = [-np.log(posteriors[i, labels[i]]) for i in range(3)]
        opt = Optimizer(model.parameter_groups(), TrainConfig(lr=0.0))
        loss, _ = train_step(model, opt, feats, labels)
        np.testing.assert_allclose(loss, np.mean(per_chunk), rtol=1e-12)

    def test_repeated_batch_descends(self):
        model = tiny_model()
        rng = np.random.default_rng(2)
        feats, labels = self._batch(rng, n=4)
        cfg = TrainConfig(optimizer="sgd_momentum", lr=1e-3, momentum=0.0)
        opt = Optimizer(model.parameter_groups(), cfg)
        losses = [train_step(model, opt, feats, labels)[0] for _ in range(10)]
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-6

    def test_single_utterance_overfit(self):
        model = tiny_model()
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((1, 12, 4))
        labels = np.array([2])
        opt = Optimizer(model.parameter_groups(), TrainConfig(lr=1e-2))
        loss = None
        for _ in range(200):
            loss, _ = train_step(model, opt, feats, labels)
            if loss < 0.01:
                break
        assert loss < 0.01

    def test_constant_frames_zero_query_gradient(self):
        for pooling in ("attention", "multihead"):
            model = tiny_model(pooling)
            rng = np.random.default_rng(4)
            frames = rng.standard_normal((2, 1, 4))
            feats = np.repeat(frames, 6, axis=1)  # every chunk one frame repeated
            opt = Optimizer(model.parameter_groups(), TrainConfig(lr=0.0))
            train_step(model, opt, feats, np.array([0, 1]))
            assert np.abs(model.pool.query.grad).max() < 1e-12
            assert np.abs(model.classifier.weight.grad).max() > 0

    def test_non_finite_loss_names_step(self):
        model = tiny_model()
        model.classifier.weight.value[...] = np.nan
        opt = Optimizer(model.parameter_groups(), TrainConfig())
        opt.t = 6  # six steps taken
        feats = np.zeros((1, 8, 4))
        with pytest.raises(TrainingError, match="step 7"):
            train_step(model, opt, feats, np.array([0]))


class TestTrainLoop:
    def _dataset(self, num_speakers=3, seed=5):
        cfg = SynthConfig(num_speakers=num_speakers, utts_per_speaker=2,
                          min_frames=12, max_frames=16, dim=4, seed=seed)
        return Dataset.from_utterances(gen_synthetic(cfg))

    def _cfg(self, **overrides):
        kwargs = dict(lr=1e-3, batch_size=4, chunk_len=10, epochs=2, seed=1)
        kwargs.update(overrides)
        return TrainConfig(**kwargs)

    def test_speaker_count_mismatch_fails_before_any_step(self):
        model = tiny_model(num_speakers=4)
        before = snapshot(model)
        with pytest.raises(DataError, match="speakers"):
            train(model, self._dataset(num_speakers=3), self._cfg())
        assert_state_equal(model, before)

    def test_deterministic_runs(self, tmp_path):
        ds = self._dataset()
        reports = []
        for run in ("a", "b"):
            model = tiny_model(seed=7)
            out = tmp_path / run
            out.mkdir()
            reports.append(train(model, ds, self._cfg(), checkpoint_dir=out,
                                 log_path=out / "log.jsonl"))
        a, b = reports
        assert a.step_losses == b.step_losses
        assert a.epoch_accuracies == b.epoch_accuracies
        assert (tmp_path / "a" / "epoch-002.xvm").read_bytes() == \
               (tmp_path / "b" / "epoch-002.xvm").read_bytes()
        assert (tmp_path / "a" / "log.jsonl").read_text() == \
               (tmp_path / "b" / "log.jsonl").read_text()

    def test_seed_changes_trajectory(self):
        ds = self._dataset()
        a = train(tiny_model(seed=7), ds, self._cfg(seed=1))
        b = train(tiny_model(seed=7), ds, self._cfg(seed=2))
        assert a.step_losses != b.step_losses

    def test_log_schema(self, tmp_path):
        ds = self._dataset()
        groups = [f"grad_norm_{g}" for g in ("theta_f", "theta_k", "query", "theta_u")]
        for pooling in ("stats", "multihead"):
            log_path = tmp_path / f"log-{pooling}.jsonl"
            report = train(tiny_model(pooling), ds, self._cfg(), log_path=log_path)
            lines = log_path.read_text().splitlines()
            assert len(lines) == len(report.step_losses)
            for i, line in enumerate(lines):
                rec = json.loads(line)
                assert set(rec) == {"step", "loss", "grad_norm", *groups, "clipped", "lr", "epoch"}
                assert rec["step"] == i + 1
                assert np.isfinite(rec["loss"])
                assert np.isfinite(rec["grad_norm"]) and rec["grad_norm"] > 0
                # the group norms split the global one: their squares sum to its square
                np.testing.assert_allclose(np.hypot.reduce([rec[g] for g in groups]), rec["grad_norm"], rtol=1e-12)
                assert (rec["grad_norm_theta_k"] == rec["grad_norm_query"] == 0.0) is (pooling == "stats")
                assert rec["clipped"] is (rec["grad_norm"] > 5.0)
                assert rec["lr"] == 1e-3
                assert rec["epoch"] in (0, 1)

    def test_log_records_the_pre_clip_norm(self, tmp_path):
        ds = self._dataset()
        records = {}
        for clip in (0.0, 1e-6):
            log_path = tmp_path / f"log-{clip}.jsonl"
            train(tiny_model(seed=3), ds, self._cfg(clip_norm=clip), log_path=log_path)
            records[clip] = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert not any(rec["clipped"] for rec in records[0.0])
        assert all(rec["clipped"] for rec in records[1e-6])
        # the first step starts from the same parameters, so its norm is the same
        assert records[0.0][0]["grad_norm"] == records[1e-6][0]["grad_norm"]
        model = tiny_model(seed=3)
        feats, labels = next(make_batches(ds, 10, 4, seed=[1, 0]))
        opt = Optimizer(model.parameter_groups(), TrainConfig(lr=0.0, clip_norm=0.0))
        _, measured = train_step(model, opt, feats, labels)
        assert measured == {k: v for k, v in records[0.0][0].items() if k.startswith("grad_norm") or k == "clipped"}

    def test_checkpoints_every_epoch(self, tmp_path):
        ds = self._dataset()
        train(tiny_model(), ds, self._cfg(), checkpoint_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["epoch-001.xvm", "epoch-002.xvm"]
        final = load_model(tmp_path / "epoch-002.xvm")
        assert final.config.num_speakers == 3

    def test_sweep_runs_in_the_step_workspace(self, monkeypatch):
        """Each accuracy sweep starts with the arrays the epoch's steps left
        in the model's workspace and neither adds nor replaces one."""
        model = tiny_model("multihead")
        kept = []

        def sweep(*args):
            before = dict(model._workspace._arrays)
            result = classification_accuracy(*args)
            arrays = model._workspace._arrays
            kept.append(bool(before) and arrays.keys() == before.keys()
                        and all(arrays[key] is a for key, a in before.items()))
            return result

        monkeypatch.setattr(train_module, "classification_accuracy", sweep)
        train(model, self._dataset(), self._cfg())
        assert kept == [True, True]

    def test_sweep_under_weights_that_overflow_names_the_utterance(self):
        """Finite weights can overflow the sweep's forward (frame0 scaled by
        1e200 overflows the pooled variance): it raises no RuntimeWarning,
        which the test settings make an error, and refuses the first
        utterance whose posteriors are not finite."""
        ds = self._dataset()
        model = tiny_model("multihead")
        model.frame_blocks[0].affine.weight.value[...] *= 1e200
        with pytest.raises(TrainingError, match=f"^the posteriors of utterance {ds.utterances[0].utt_id} "
                                                f"in the accuracy sweep are not finite$"):
            classification_accuracy(model, ds)

    def test_report_bookkeeping(self):
        ds = self._dataset()
        report = train(tiny_model(), ds, self._cfg())
        assert len(report.epoch_accuracies) == 2
        assert all(0.0 <= a <= 1.0 for a in report.epoch_accuracies)
        assert report.wall_time_s > 0
        assert report.final_loss == report.step_losses[-1]

    def test_accuracy_reaches_one_on_tiny_overfit(self):
        ds = self._dataset(num_speakers=2, seed=8)
        model = tiny_model(num_speakers=2)
        report = train(model, ds, self._cfg(lr=1e-2, epochs=60, chunk_len=12))
        assert report.epoch_accuracies[-1] == 1.0
        assert classification_accuracy(model, ds) == 1.0


class TestGradCheckHarness:
    def test_relative_error_formula(self):
        assert relative_error(1.0, 1.0) == 0.0
        np.testing.assert_allclose(relative_error(2.0, 1.0), 0.5)
        # the floor keeps tiny disagreements from blowing up
        np.testing.assert_allclose(relative_error(1e-12, 0.0), 1e-7)

    # Near zero: exact zeros, gaps a few ulps either side of 1e-9, and sizes a
    # few ulps either side of the floor.
    _near = st.builds(lambda base, ulps, sign: sign * base * (1 + ulps * 2.0 ** -52),
                      st.sampled_from([0.0, 5e-10, 1e-9, 2e-9, 5e-6, 1e-5, 2e-5, 1e-3]),
                      st.integers(-4, 4), st.sampled_from([-1.0, 1.0]))

    @settings(max_examples=500, deadline=None)
    @given(analytic=st.one_of(_near, st.floats(-1.0, 1.0)),
           gap=st.one_of(_near, st.floats(-1e-3, 1e-3)))
    def test_floor_keeps_the_verdicts_of_skip_and_floor(self, analytic, gap):
        # the rule before the floor: skip a gap under 1e-9, else divide by at least 1e-8
        numeric = analytic + gap
        diff = abs(analytic - numeric)
        old = diff < 1e-9 or diff / max(abs(analytic), abs(numeric), 1e-8) < GRADCHECK_THRESHOLD
        assert (relative_error(analytic, numeric) < GRADCHECK_THRESHOLD) == old

    def test_helper_returns_the_largest_error(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal(40) * np.logspace(-8, 0, 40)  # sizes either side of the floor
        n = a + rng.standard_normal(40) * 1e-10
        assert assert_grads_close(a, n) == np.max(relative_error(a, n)) > 0.0
        assert assert_grads_close(np.empty(0), np.empty(0)) == 0.0

    def test_helper_fails_a_nan_and_names_it(self):
        a = np.linspace(-1.0, 1.0, 6)
        n = a.copy()
        a[1] += 1e-3  # a failing element before the NaN: the NaN is the one named
        a[3] = np.nan
        with pytest.raises(AssertionError, match=r"^probe element 3: analytic .*nan.*, rel err nan$"):
            assert_grads_close(a, n, what="probe")

    def test_passes_on_clean_model(self):
        model = tiny_model("multihead")
        x = np.random.default_rng(9).standard_normal((5, 4))
        report = check_model_gradients(model, x, label=1)
        assert report.passed
        assert report.max_rel_err < 1e-4

    def test_detects_corrupted_gradient(self):
        model = tiny_model()
        x = np.random.default_rng(10).standard_normal((5, 4))
        original = model.backward_batch

        def corrupted(d_posteriors, cache):
            out = original(d_posteriors, cache)
            model.classifier.weight.grad *= 1.01
            return out

        model.backward_batch = corrupted
        report = check_model_gradients(model, x, label=0)
        assert not report.passed
        assert report.worst == "classifier.weight"

    @pytest.mark.parametrize("name", ["classifier.weight", "frame0.weight"])
    def test_nan_gradient_fails(self, name):
        model = tiny_model()
        x = np.random.default_rng(10).standard_normal((5, 4))
        param = {p.name: p for p in model.parameters()}[name]
        original = model.backward_batch

        def corrupted(d_posteriors, cache):
            out = original(d_posteriors, cache)
            param.grad.reshape(-1)[1] = np.nan
            return out

        model.backward_batch = corrupted
        report = check_model_gradients(model, x, label=0)
        assert np.isnan(report.errors[name])
        assert np.isnan(report.max_rel_err)
        assert not report.passed
        assert report.worst == name
        assert report.checked == sum(p.value.size for p in model.parameters())

    def test_restores_model_state(self):
        model = tiny_model("attention")
        before = snapshot(model)
        x = np.random.default_rng(11).standard_normal((5, 4))
        check_model_gradients(model, x, label=2)
        assert_state_equal(model, before)
