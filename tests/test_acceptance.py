"""Release gate: one test per acceptance criterion, tolerances pinned below.

Criterion 4 trains three toy models once (module-scoped fixture); its
thresholds were frozen after pilot runs, actuals printed by each test.
Run with -s to see the per-criterion summary lines.
"""

import json
import time

import numpy as np
import pytest
from helpers import (assert_grads_close, logit_pool, numeric_grad, oracle_eer,
                     oracle_min_dcf, random_score_set, reference_attention_pool)

from xvec.cli import main
from xvec.data import Dataset, SynthConfig, gen_synthetic
from xvec.evaluation import (DCF08, DCF10, attention_trajectory, compute_eer,
                             compute_min_dcf, join_scores_with_trials,
                             make_trials, mean_gate_correlation, score_trials)
from xvec.model import FrameLayerSpec, ModelConfig, build_model
from xvec.nn import Affine, BatchNorm, LeakyReLU, Parameter, Splice
from xvec.pooling import CompatibilityNet, MultiHeadPool, StatsPool
from xvec.train import TrainConfig, check_model_gradients, train

GRAD_THRESHOLD = 1e-4       # max FD relative error, every parameter
GRAD_TIME_LIMIT_S = 60.0
EQUIV_EXACT = 1e-12         # pooling equivalences
EQUIV_INVARIANT = 1e-9      # shift / permutation invariances
METRIC_TOL = 1e-9           # EER and minDCF vs the exact-rational oracle
METRIC_SETS = 200
ACC_FLOOR = 0.95            # toy train accuracy, all three pooling kinds
EER_SLACK = 0.02            # multihead EER may exceed stats EER by at most this
GATE_FLOOR = 0.3            # mean Spearman of attention weights vs true gates
TRAIN_TIME_LIMIT_S = 600.0  # per toy variant
TRACE_FLOOR = 0.90          # fraction of frames where multihead max >= single head
TRACE_UTTS = 10


# -- criterion 1: finite-difference gradients everywhere -----------------------


def grad_model(pooling, key_layer=0, heads=1, seed=5):
    """Five frame layers so every attention key placement is reachable;
    last width 20 and query width 10 so ten heads divide both."""
    return build_model(ModelConfig(
        input_dim=4,
        frame_layers=(
            FrameLayerSpec((-2, -1, 0, 1, 2), 6),
            FrameLayerSpec((-2, 0, 2), 6),
            FrameLayerSpec((-3, 0, 3), 6),
            FrameLayerSpec((0,), 6),
            FrameLayerSpec((0,), 20),
        ),
        pooling=pooling,
        key_layer=key_layer,
        compat=[] if pooling == "stats" else [10],
        heads=heads,
        utterance_layers=[7],
        num_speakers=3,
    ), seed=seed)


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0

    def track(analytic, numeric, what):
        nonlocal worst
        worst = max(worst, assert_grads_close(analytic, numeric, what=what))

    # affine
    x = rng.standard_normal((6, 4))
    aff = Affine.build(rng, 4, 5, "a")
    c = rng.standard_normal((6, 5))
    dx = aff.backward(c) if aff.forward(x, train=True) is not None else None
    track(aff.weight.grad, numeric_grad(lambda: float(np.sum(c * aff.forward(x))), aff.weight.value), "affine.weight")
    track(aff.bias.grad, numeric_grad(lambda: float(np.sum(c * aff.forward(x))), aff.bias.value), "affine.bias")
    track(dx, numeric_grad(lambda: float(np.sum(c * aff.forward(x))), x), "affine.x")

    # leaky relu, inputs kept clear of the kink
    x = rng.standard_normal((6, 5))
    x += np.sign(x) * 0.05
    act = LeakyReLU()
    act.forward(x, train=True)
    dx = act.backward(c)
    track(dx, numeric_grad(lambda: float(np.sum(c * act.forward(x))), x), "leaky_relu.x")

    # batch norm (train mode; the loss never reads the running statistics)
    x = rng.standard_normal((6, 5)) * 2.0 + 1.0
    bn = BatchNorm.build(5, "b")
    bn.gamma.value[:] = rng.uniform(0.5, 1.5, 5)
    bn.beta.value[:] = rng.standard_normal(5)
    bn.forward(x, train=True)
    dx = bn.backward(c)
    fn = lambda: float(np.sum(c * bn.forward(x, train=True)))
    track(bn.gamma.grad, numeric_grad(fn, bn.gamma.value), "batch_norm.gamma")
    track(bn.beta.grad, numeric_grad(fn, bn.beta.value), "batch_norm.beta")
    track(dx, numeric_grad(fn, x), "batch_norm.x")

    # splice, on a batch of one chunk
    x = rng.standard_normal((1, 6, 3))
    sp = Splice((-2, 0, 1))
    c_sp = rng.standard_normal((1, 6, 9))
    dx = sp.backward_batch(c_sp)
    track(dx, numeric_grad(lambda: float(np.sum(c_sp * sp.forward_batch(x))), x), "splice.x")

    # stats pooling, on a batch of one chunk
    values = rng.standard_normal((1, 7, 6))
    c_pool = rng.standard_normal((1, 12))
    pool = StatsPool()
    dv = pool.pool_backward(pool.pool(values)[1], c_pool)
    track(dv, numeric_grad(lambda: float(np.sum(c_pool * pool.pool(values)[0])), values), "stats_pool.values")

    # attention pooling over explicit logits: one head, query [1], the
    # logits as a one-column compatibility output
    logits = rng.standard_normal((1, 7))
    att = logit_pool()
    dv, d_compat = att.backward_from_compat(att.pool_from_compat(values, logits[..., None])[2], c_pool)
    fn = lambda: float(np.sum(c_pool * att.pool_from_compat(values, logits[..., None])[0]))
    track(dv, numeric_grad(fn, values), "attention.values")
    track(d_compat[..., 0], numeric_grad(fn, logits), "attention.logits")
    track(att.query.grad, numeric_grad(fn, att.query.value), "attention.query")

    # multihead pooling including its compatibility net and query
    keys = rng.standard_normal((7, 6))
    net = CompatibilityNet.build(rng, 6, [4])
    query = Parameter("q", rng.standard_normal(4) * 0.1)
    mh = MultiHeadPool(net, query, heads=2)
    dv, d_compat = mh.backward_from_compat(mh.pool_from_compat(values, net.forward(keys, train=True)[None])[2], c_pool)
    dk = net.backward(d_compat[0])
    fn = lambda: float(np.sum(c_pool * mh.pool_from_compat(values, net.forward(keys, train=True)[None])[0]))
    track(dv, numeric_grad(fn, values), "multihead.values")
    track(dk, numeric_grad(fn, keys), "multihead.keys")
    track(query.grad, numeric_grad(fn, query.value), "multihead.query")
    for param in net.parameters():
        track(param.grad, numeric_grad(fn, param.value), f"multihead.{param.name}")

    # full models: stats, every attention key placement, one/two/ten heads
    feats = rng.standard_normal((5, 4))
    checked = 0
    for name, model in [
        ("stats", grad_model("stats")),
        ("att-3", grad_model("attention", key_layer=3)),
        ("att-4", grad_model("attention", key_layer=4)),
        ("att-5", grad_model("attention", key_layer=5)),
        ("multihead-1", grad_model("multihead", key_layer=4, heads=1)),
        ("multihead-2", grad_model("multihead", key_layer=4, heads=2)),
        ("multihead-10", grad_model("multihead", key_layer=4, heads=10)),
    ]:
        report = check_model_gradients(model, feats, label=2)
        assert report.passed, f"{name}: worst {report.worst} at {report.max_rel_err:.3e}"
        worst = max(worst, report.max_rel_err)
        checked += report.checked

    elapsed = time.perf_counter() - start
    assert worst < GRAD_THRESHOLD
    assert elapsed < GRAD_TIME_LIMIT_S
    print(f"criterion 1 PASS: max rel err {worst:.3e} "
          f"({checked} model parameters plus primitives) in {elapsed:.1f}s")


# -- criterion 2: pooling equivalences and invariances --------------------------


def test_criterion_2_pooling_equivalences():
    rng = np.random.default_rng(1)
    values = rng.standard_normal((7, 6))
    keys = rng.standard_normal((7, 6))

    # single-head attention over given logits is the h=1 pool with query [1]
    def att(logits):
        return logit_pool().pool_from_compat(values[None], np.asarray(logits)[None, :, None])[0][0]

    att_const = att(np.full(7, 3.7))
    (stats,), _ = StatsPool().pool(values[None])
    np.testing.assert_allclose(att_const, stats, rtol=0, atol=EQUIV_EXACT)
    reference_const, _ = reference_attention_pool(values, np.full(7, 3.7))
    np.testing.assert_allclose(reference_const, stats, rtol=0, atol=EQUIV_EXACT)

    net = CompatibilityNet.build(rng, 6, [4])
    query = Parameter("q", rng.standard_normal(4) * 0.1)
    compat = net.forward(keys)
    (pooled_mh,), _, _ = MultiHeadPool(net, query, heads=1).pool_from_compat(values[None], compat[None])
    logits = compat @ query.value
    pooled_single, _ = reference_attention_pool(values, logits)
    np.testing.assert_allclose(pooled_mh, pooled_single, rtol=0, atol=EQUIV_EXACT)
    np.testing.assert_allclose(att(logits), pooled_single, rtol=0, atol=EQUIV_EXACT)

    base = att(logits)
    shifted = att(logits + 250.0)
    np.testing.assert_allclose(shifted, base, rtol=0, atol=EQUIV_INVARIANT)

    mh2 = MultiHeadPool(net, query, heads=2)
    (pooled_a,), _, _ = mh2.pool_from_compat(values[None], net.forward(keys)[None])
    perm = rng.permutation(7)
    (pooled_b,), _, _ = mh2.pool_from_compat(values[None, perm], net.forward(keys[perm])[None])
    np.testing.assert_allclose(pooled_b, pooled_a, rtol=0, atol=EQUIV_INVARIANT)

    print(f"criterion 2 PASS: equivalences within {EQUIV_EXACT:g}, "
          f"invariances within {EQUIV_INVARIANT:g}")


# -- criterion 3: detection metrics vs an exhaustive rational oracle ------------


def test_criterion_3_metric_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(METRIC_SETS):
        scores, labels = random_score_set(rng)
        want = oracle_eer(list(scores), list(labels))
        worst = max(worst, abs(compute_eer(scores, labels) - want))
        for p, cm, cf in (DCF08, DCF10):
            want = oracle_min_dcf(list(scores), list(labels), p, cm, cf)
            worst = max(worst, abs(compute_min_dcf(scores, labels, p, cm, cf) - want))
    assert worst < METRIC_TOL

    scores, labels = [0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]
    assert compute_eer(scores, labels) == 0.0
    assert compute_min_dcf(scores, labels, *DCF08) == 0.0
    assert compute_min_dcf(scores, labels, *DCF10) == 0.0

    print(f"criterion 3 PASS: worst |impl - oracle| {worst:.3e} "
          f"over {METRIC_SETS} score sets; perfect separation exact")


# -- criterion 4: toy end-to-end, three pooling variants -------------------------

TOY_SYNTH_TRAIN = SynthConfig(num_speakers=32, utts_per_speaker=20, min_frames=150,
                              max_frames=300, dim=20, sigma=0.5, seed=101)
TOY_SYNTH_EVAL = SynthConfig(num_speakers=32, utts_per_speaker=20, min_frames=150,
                             max_frames=300, dim=20, sigma=0.5, seed=102)
TOY_TRIALS_SEED = 103
TOY_SAMPLE_SEED = 104
TOY_OPT = dict(optimizer="adam", lr=1e-3, epochs=16, batch_size=32,
               chunk_len=150, seed=7)


def toy_model_config(kind):
    return ModelConfig(
        input_dim=20,
        frame_layers=(
            FrameLayerSpec((-2, -1, 0, 1, 2), 64),
            FrameLayerSpec((-2, 0, 2), 64),
            FrameLayerSpec((-3, 0, 3), 64),
            FrameLayerSpec((0,), 64),
            FrameLayerSpec((0,), 192),
        ),
        pooling=kind,
        key_layer=0 if kind == "stats" else 4,
        compat=[] if kind == "stats" else [100],
        heads=4 if kind == "multihead" else 1,
        utterance_layers=[64, 64],
        num_speakers=32,
        embedding_tap=1,
    )


@pytest.fixture(scope="module")
def toy():
    train_set = Dataset.from_utterances(gen_synthetic(TOY_SYNTH_TRAIN, split="train"))
    eval_set = Dataset.from_utterances(gen_synthetic(TOY_SYNTH_EVAL, split="eval"))
    trials, enroll_map = make_trials([(u.utt_id, u.speaker) for u in eval_set.utterances],
                                     enroll_per_speaker=3, seed=TOY_TRIALS_SEED)
    runs = {}
    for kind in ("stats", "attention", "multihead"):
        model = build_model(toy_model_config(kind), seed=TOY_OPT["seed"])
        start = time.perf_counter()
        report = train(model, train_set, TrainConfig(**TOY_OPT))
        wall = time.perf_counter() - start
        embeddings = {u.utt_id: model.extract_embedding(u.features)
                      for u in eval_set.utterances}
        scored = score_trials(embeddings, trials, enroll_map)
        values, labels = join_scores_with_trials(
            {(t.enroll, t.test): s for t, s in scored}, trials)
        runs[kind] = {
            "model": model,
            "accuracy": report.epoch_accuracies[-1],
            "eer": compute_eer(values, labels),
            "wall": wall,
        }
    return {"runs": runs, "eval_set": eval_set}


def test_criterion_4a_toy_train_accuracy(toy):
    for kind, run in toy["runs"].items():
        assert run["accuracy"] >= ACC_FLOOR, f"{kind}: accuracy {run['accuracy']:.4f}"
        assert run["wall"] < TRAIN_TIME_LIMIT_S, f"{kind}: took {run['wall']:.0f}s"
    summary = ", ".join(f"{k} {r['accuracy']:.4f} ({r['wall']:.0f}s)"
                        for k, r in toy["runs"].items())
    print(f"criterion 4a PASS: train accuracy {summary}")


def test_criterion_4b_toy_held_out_eer(toy):
    eer_stats = toy["runs"]["stats"]["eer"]
    eer_mh = toy["runs"]["multihead"]["eer"]
    assert eer_mh <= eer_stats + EER_SLACK, f"multihead {eer_mh:.4f} vs stats {eer_stats:.4f}"
    print(f"criterion 4b PASS: held-out EER stats {eer_stats:.4f}, "
          f"attention {toy['runs']['attention']['eer']:.4f}, multihead {eer_mh:.4f}")


def test_criterion_4c_toy_gate_correlation(toy):
    corr = mean_gate_correlation(toy["runs"]["attention"]["model"], toy["eval_set"])
    assert corr > GATE_FLOOR, f"mean Spearman {corr:.4f}"
    print(f"criterion 4c PASS: attention gate correlation {corr:.4f} > {GATE_FLOOR}")


# -- criterion 5: multihead max trace dominates the single-head trace ------------


def test_criterion_5_trajectory_dominance(toy):
    att_model = toy["runs"]["attention"]["model"]
    mh_model = toy["runs"]["multihead"]["model"]
    utts = toy["eval_set"].utterances
    rng = np.random.default_rng(TOY_SAMPLE_SEED)
    idx = rng.choice(len(utts), size=TRACE_UTTS, replace=False)
    wins = total = 0
    for i in idx:
        feats = utts[i].features
        att_max, _ = attention_trajectory(att_model, feats)
        mh_max, _ = attention_trajectory(mh_model, feats)
        wins += int(np.sum(mh_max >= att_max))
        total += feats.shape[0]
    fraction = wins / total
    assert fraction >= TRACE_FLOOR, f"{wins}/{total} = {fraction:.3f}"
    print(f"criterion 5 PASS: multihead max >= single-head on "
          f"{wins}/{total} frames = {fraction:.3f}")


# -- criterion 6: byte-level determinism of the whole pipeline -------------------


def test_criterion_6_determinism(tmp_path):
    config = {
        "model": {
            "frame_layers": [{"offsets": [-1, 0, 1], "width": 8},
                             {"offsets": [0], "width": 12}],
            "pooling": "multihead", "key_layer": 2, "compat": [6], "heads": 2,
            "utterance_layers": [8],
        },
        "synth": {
            "train": {"num_speakers": 4, "utts_per_speaker": 4, "min_frames": 20,
                      "max_frames": 30, "dim": 5, "seed": 21},
            "eval": {"num_speakers": 4, "utts_per_speaker": 3, "min_frames": 20,
                     "max_frames": 30, "dim": 5, "seed": 22},
        },
        "trials": {"enroll_per_speaker": 1, "seed": 23},
        "train": {"lr": 1e-2, "epochs": 2, "batch_size": 4, "chunk_len": 15, "seed": 3},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))

    artifacts = []
    for tag in ("first", "second"):
        base = tmp_path / tag
        corpus, run = base / "corpus", base / "run"
        assert main(["gen-data", "--config", str(cfg_path), "--out-dir", str(corpus)]) == 0
        assert main(["train", "--config", str(cfg_path), "--data", str(corpus / "train"),
                     "--out-dir", str(run)]) == 0
        emb = base / "emb.xve"
        assert main(["extract", "--model", str(run / "model.xvm"),
                     "--data", str(corpus / "eval"), "--out", str(emb)]) == 0
        scores = base / "scores.tsv"
        assert main(["score", "--embeddings", str(emb),
                     "--trials", str(corpus / "trials.tsv"),
                     "--enroll-map", str(corpus / "enroll.tsv"),
                     "--out", str(scores)]) == 0
        metrics = base / "metrics.json"
        assert main(["eval", "--scores", str(scores),
                     "--trials", str(corpus / "trials.tsv"),
                     "--out", str(metrics)]) == 0
        files = {p.relative_to(base): p.read_bytes()
                 for p in sorted(base.rglob("*")) if p.is_file()}
        artifacts.append(files)

    first, second = artifacts
    assert set(first) == set(second)
    for rel in first:
        assert first[rel] == second[rel], f"{rel} differs between identical runs"
    print(f"criterion 6 PASS: {len(first)} artifacts byte-identical across reruns")
