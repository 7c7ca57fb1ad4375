"""Buffer reuse and memory footprint: after a warm-up, a train step and a
plan forward allocate almost nothing; a plan forward after a step runs in
the step's arrays; a reused workspace gives the same bits as fresh arrays,
plan forwards between steps included, and holds only what the backward
pass reads; what a call hands back shares no memory with a later call; a
layer given out= buffers computes the same bits as without them; and
gen-data's memory does not grow with the corpus."""

import copy
import json
import tracemalloc

import numpy as np
import pytest
from helpers import assert_same_bits

from xvec import data, evaluation
from xvec.cli import main
from xvec.model import FrameLayerSpec, ModelConfig, build_model
from xvec.nn import Affine, BatchNorm, LeakyReLU, Parameter, Splice, cross_entropy_backward
from xvec.pooling import CompatibilityNet, MultiHeadPool, StatsPool
from xvec.train import Optimizer, TrainConfig, train_step

POOLINGS = ["stats", "attention", "multihead"]
# A train step on this model at (8, 128) handles frame arrays of up to
# 1024 x 48 float64 (384 KB), and a plan forward of 250 frames arrays of up
# to 250 x 48 (94 KB). What may still be allocated are vectors and rows the
# size of a column, a pooled batch, a weight matrix or a (B, h, T) weight
# array, and NumPy's ufunc buffers of up to 8192 elements per operand.
STEP_BUDGET = 320 * 1024
PLAN_BUDGET = 128 * 1024


def config(pooling):
    return ModelConfig(
        input_dim=4,
        frame_layers=(FrameLayerSpec((-1, 0, 1), 16), FrameLayerSpec((-2, 0, 2), 16), FrameLayerSpec((0,), 32)),
        pooling=pooling,
        key_layer=2,
        compat=[12, 8],
        heads=2 if pooling == "multihead" else 1,
        utterance_layers=[16],
        num_speakers=3,
    )


def peak_allocation(fn) -> int:
    """Bytes allocated by fn at its peak, above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def arrays(trace):
    out = [trace.posteriors, trace.pooled, trace.attention]
    return [a for a in out + trace.utterance_preactivations if a is not None]


@pytest.mark.parametrize("pooling", POOLINGS)
def test_steady_train_step_allocates_within_budget(pooling):
    model = build_model(config(pooling), seed=0)
    optimizer = Optimizer(model.parameters(), TrainConfig())
    rng = np.random.default_rng(0)
    feats = [rng.standard_normal((8, 128, 4)) for _ in range(2)]
    labels = rng.integers(0, 3, size=8)
    train_step(model, optimizer, feats[0], labels, step=1)
    assert peak_allocation(lambda: train_step(model, optimizer, feats[1], labels, step=2)) < STEP_BUDGET


@pytest.mark.parametrize("pooling", POOLINGS)
def test_plan_forward_of_a_shorter_utterance_allocates_within_budget(pooling):
    model = build_model(config(pooling), seed=1)
    plan = model.inference_plan()
    rng = np.random.default_rng(1)
    model.forward(rng.standard_normal((300, 4)).astype(np.float32), plan=plan)
    shorter = rng.standard_normal((250, 4)).astype(np.float32)
    assert peak_allocation(lambda: model.forward(shorter, plan=plan)) < PLAN_BUDGET


@pytest.mark.parametrize("pooling", POOLINGS)
def test_plan_forward_after_a_step_runs_in_the_step_arrays(pooling):
    """The first plan forward after a train step of B*T rows, on an
    utterance of B*T frames, takes prefixes of the step's arrays: it
    neither adds nor replaces one."""
    model = build_model(config(pooling), seed=1)
    optimizer = Optimizer(model.parameters(), TrainConfig())
    rng = np.random.default_rng(1)
    train_step(model, optimizer, rng.standard_normal((8, 32, 4)), rng.integers(0, 3, size=8), step=1)
    before = dict(model._workspace._arrays)
    plan = model.inference_plan()
    utterance = rng.standard_normal((8 * 32, 4))
    assert peak_allocation(lambda: model.forward(utterance, plan=plan)) < PLAN_BUDGET
    assert model._workspace._arrays.keys() == before.keys()
    assert all(model._workspace._arrays[key] is a for key, a in before.items())


@pytest.mark.parametrize("pooling", POOLINGS)
def test_float32_features_give_the_bits_of_their_float64_widening(pooling):
    model = build_model(config(pooling), seed=4)
    plan = model.inference_plan()
    rng = np.random.default_rng(4)
    model.forward(rng.standard_normal((60, 4)), plan=plan)  # a shared plan has run a longer utterance
    narrow = rng.standard_normal((40, 4)).astype(np.float32)
    for forward in (model.forward, lambda x: model.forward(x, plan=plan)):
        wide = forward(narrow.astype(np.float64))
        for a, b in zip(arrays(forward(narrow)), arrays(wide), strict=True):
            assert_same_bits(a, b)


@pytest.mark.parametrize("pooling", POOLINGS)
def test_posteriors_of_two_batches_share_no_memory(pooling):
    model = build_model(config(pooling), seed=2)
    rng = np.random.default_rng(2)
    first, _ = model.forward_batch(rng.standard_normal((3, 10, 4)))
    kept = first.copy()
    second, _ = model.forward_batch(rng.standard_normal((3, 10, 4)))
    assert not np.shares_memory(first, second)
    np.testing.assert_array_equal(first, kept)


@pytest.mark.parametrize("pooling", POOLINGS)
def test_two_traces_through_one_plan_share_no_memory(pooling):
    model = build_model(config(pooling), seed=3)
    plan = model.inference_plan()
    rng = np.random.default_rng(3)
    first = model.forward(rng.standard_normal((30, 4)), plan=plan)
    kept = [a.copy() for a in arrays(first)]
    second = model.forward(rng.standard_normal((30, 4)), plan=plan)
    for a in arrays(first):
        assert not any(np.shares_memory(a, b) for b in arrays(second))
    for a, b in zip(arrays(first), kept):
        np.testing.assert_array_equal(a, b)


class FreshArrays:
    """A stand-in for a model's workspace that hands out a new array, filled
    with NaN where it can be, on every call: nothing is shared or reused."""

    def __call__(self, key, rows, cols, dtype=np.float64):
        return np.full((rows, cols), np.nan if dtype == np.float64 else True, dtype)


def batch_step(model, feats, labels):
    """One forward and backward; returns the posteriors, every gradient and
    every batch norm's running statistics."""
    model.zero_grad()
    posteriors, cache = model.forward_batch(feats, train=True)
    model.backward_batch(cross_entropy_backward(posteriors, labels), cache)
    stats = [a for name, a in model.state_arrays() if ".running_" in name]
    return [posteriors.copy()] + [p.grad.copy() for p in model.parameters()] + [a.copy() for a in stats]


@pytest.mark.parametrize("pooling", POOLINGS)
def test_reused_workspace_matches_fresh_arrays_step_by_step(pooling):
    """A model steps on one batch, a new batch, then shorter chunks; each
    step matches a copy of the model that runs only that step on arrays of
    its own. Blocks that splice share one buffer, so the backward pass must
    splice each block's input again before its weight gradient. Between
    steps a plan forward of more frames than a step has rows grows the
    arrays the steps then run in."""
    model = build_model(config(pooling), seed=4)
    optimizer = Optimizer(model.parameters(), TrainConfig(lr=1e-2))
    rng = np.random.default_rng(4)
    for t in (16, 16, 9):
        feats, labels = rng.standard_normal((5, t, 4)), rng.integers(0, 3, size=5)
        reference = copy.deepcopy(model)
        reference._workspace = FreshArrays()
        for got, want in zip(batch_step(model, feats, labels), batch_step(reference, feats, labels), strict=True):
            assert_same_bits(got, want)
        optimizer.step()
        model.forward(rng.standard_normal((5 * t + 20, 4)))


@pytest.mark.parametrize("pooling", POOLINGS)
def test_workspace_holds_only_what_the_backward_pass_reads(pooling):
    cfg = config(pooling)
    model = build_model(cfg, seed=5)
    optimizer = Optimizer(model.parameters(), TrainConfig())
    rng = np.random.default_rng(5)
    b, t = 6, 20
    for step in (1, 2):
        train_step(model, optimizer, rng.standard_normal((b, t, 4)), rng.integers(0, 3, size=b), step)
    arrays = model._workspace._arrays
    n = b * t
    blocks = [(blk.act, blk.bn) for blk in model.frame_blocks]
    if pooling != "stats":
        blocks += [(act, bn) for _, act, bn in model.pool.net.blocks]
    expected = {"spliced"} | {key for act, bn in blocks for key in ((bn, "out"), (bn, "x_hat"), (act, "keep"))}
    # one buffer for the splices and pooling's work array
    widest = max([cfg.value_dim] + [blk.affine.din for blk in model.frame_blocks if blk.splice.width_multiplier > 1])
    size = n * widest * 8 + sum(n * bn.dim * (8 + 8 + 1) for _, bn in blocks)
    if pooling != "stats":
        expected.add((model.pool.net, "d_keys"))
        size += n * cfg.frame_layers[cfg.key_layer - 1].width * 8
    assert set(arrays) == expected
    assert sum(a.nbytes for a in arrays.values()) == size


# One utterance length, so that every block gen-data draws ahead of its
# writes holds as many utterances whatever the corpus size.
SPLIT = {"num_speakers": 4, "min_frames": 400, "max_frames": 400, "dim": 64}


def gen_data(out_dir, utts_per_speaker) -> int:
    """Run gen-data on two splits of SPLIT into out_dir; returns its peak allocation."""
    split = dict(SPLIT, utts_per_speaker=utts_per_speaker)
    config_path = out_dir / "run.json"
    out_dir.mkdir()
    config_path.write_text(json.dumps({"synth": {"train": dict(split, seed=1), "eval": dict(split, seed=2)},
                                       "trials": {"enroll_per_speaker": 2, "seed": 3}}))
    return peak_allocation(lambda: main(["gen-data", "--config", str(config_path), "--out-dir", str(out_dir / "corpus")]))


def test_gen_data_memory_does_not_grow_with_the_corpus(tmp_path):
    """Doubling the corpus moves gen-data's peak by less than one utterance's
    features, and the corpus is what the writers write from splits held in
    memory. The first call in a process also pays for one-time set-up, so one
    runs first."""
    gen_data(tmp_path / "warm", 5)
    small, large = (gen_data(tmp_path / f"utts{n}", n) for n in (5, 10))
    assert abs(large - small) < SPLIT["min_frames"] * SPLIT["dim"] * 8

    train_cfg, eval_cfg = (data.SynthConfig(**SPLIT, utts_per_speaker=5, seed=s) for s in (1, 2))
    want = tmp_path / "want"
    train_set = data.Dataset.from_utterances(data.gen_synthetic(train_cfg, split="train"))
    data.write_dataset(train_set.utterances, want / "train")
    eval_set = data.Dataset.from_utterances(data.gen_synthetic(eval_cfg, split="eval"))
    data.write_dataset(eval_set.utterances, want / "eval")
    trials, enroll_map = evaluation.make_trials([(u.utt_id, u.speaker) for u in eval_set.utterances], 2, 3)
    evaluation.write_trials(want / "trials.tsv", trials)
    evaluation.write_enroll_map(want / "enroll.tsv", enroll_map)
    got = tmp_path / "utts5" / "corpus"
    files = sorted(p.relative_to(want) for p in want.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(got) for p in got.rglob("*") if p.is_file())
    for rel in files:
        assert (got / rel).read_bytes() == (want / rel).read_bytes(), rel


def affine_pair(rng, din, dout):
    w, b = rng.standard_normal((dout, din)), rng.standard_normal(dout)
    return [Affine(Parameter("w", w.copy()), Parameter("b", b.copy())) for _ in range(2)]


def test_affine_out_matches():
    rng = np.random.default_rng(4)
    x, g = rng.standard_normal((20, 6)), rng.standard_normal((20, 5))
    fresh, buffered = affine_pair(rng, 6, 5)
    assert_same_bits(fresh.forward(x, train=True), buffered.forward(x, train=True, out=np.empty((20, 5))))
    assert_same_bits(fresh.backward(g), buffered.backward(g, out=np.empty((20, 6))))
    assert_same_bits(fresh.weight.grad, buffered.weight.grad)
    assert_same_bits(fresh.bias.grad, buffered.bias.grad)


def test_affine_out_may_be_the_cached_input():
    rng = np.random.default_rng(5)
    x, g = rng.standard_normal((20, 6)), rng.standard_normal((20, 5))
    fresh, buffered = affine_pair(rng, 6, 5)
    fresh.forward(x, train=True)
    x2 = x.copy()
    buffered.forward(x2, train=True)
    assert_same_bits(fresh.backward(g), buffered.backward(g, out=x2))
    assert_same_bits(fresh.weight.grad, buffered.weight.grad)


def test_affine_without_input_gradient():
    rng = np.random.default_rng(6)
    x, g = rng.standard_normal((20, 6)), rng.standard_normal((20, 5))
    fresh, skipped = affine_pair(rng, 6, 5)
    fresh.forward(x, train=True)
    skipped.forward(x, train=True)
    fresh.backward(g)
    assert skipped.backward(g, input_grad=False) is None
    assert_same_bits(fresh.weight.grad, skipped.weight.grad)
    assert_same_bits(fresh.bias.grad, skipped.bias.grad)


def test_leaky_relu_out_matches():
    rng = np.random.default_rng(7)
    x, g = rng.standard_normal((30, 4)), rng.standard_normal((30, 4))
    x[0, :2] = [0.0, -0.0]
    fresh, buffered = LeakyReLU(), LeakyReLU()
    assert_same_bits(fresh.forward(x, train=True),
                     buffered.forward(x, train=True, out=np.empty((30, 4)), keep=np.empty((30, 4), bool)))
    assert_same_bits(fresh.backward(g), buffered.backward(g, out=np.empty((30, 4))))


@pytest.mark.parametrize("train", [True, False])
def test_batch_norm_out_matches(train):
    rng = np.random.default_rng(8)
    x, g = rng.standard_normal((30, 4)) * 3 + 1, rng.standard_normal((30, 4))
    fresh, buffered = (BatchNorm.build(4, "bn") for _ in range(2))
    for bn in (fresh, buffered):
        bn.gamma.value[...] = [0.5, 1.5, -2.0, 1.0]
        bn.running_var[...] = [0.5, 2.0, 1.0, 3.0]
    y = fresh.forward(x, train=train)
    inplace = x.copy()  # out may be the input
    assert_same_bits(y, buffered.forward(inplace, train=train, out=inplace,
                                         x_hat=np.empty((30, 4)) if train else None))
    assert_same_bits(fresh.running_mean, buffered.running_mean)
    assert_same_bits(fresh.running_var, buffered.running_var)
    if train:
        assert_same_bits(fresh.backward(g), buffered.backward(g))
        assert_same_bits(fresh.gamma.grad, buffered.gamma.grad)


@pytest.mark.parametrize("offsets", [(-2, 0, 1), (0,)])
def test_splice_out_matches(offsets):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 7, 4))
    k = len(offsets)
    g = rng.standard_normal((3, 7, 4 * k))
    fresh, buffered = Splice(offsets), Splice(offsets)
    assert_same_bits(fresh.forward(x[0]), buffered.forward(x[0], out=np.empty((7, 4 * k))))
    assert_same_bits(fresh.forward_batch(x), buffered.forward_batch(x, out=np.empty((3, 7, 4 * k))))
    assert_same_bits(fresh.backward_batch(g), buffered.backward_batch(g, out=np.full((3, 7, 4), np.nan)))


def test_stats_pool_work_matches():
    rng = np.random.default_rng(10)
    values, g = rng.standard_normal((3, 9, 6)), rng.standard_normal((3, 12))
    pool = StatsPool()
    fresh, fresh_cache = pool.pool(values)
    buffered, cache = pool.pool(values, work=np.empty((27, 6)))
    assert_same_bits(fresh, buffered)
    assert_same_bits(pool.pool_backward(fresh_cache, g), pool.pool_backward(cache, g))


@pytest.mark.parametrize("heads", [1, 2])
def test_multihead_pool_buffers_match(heads):
    rng = np.random.default_rng(11)
    values, compat, g = rng.standard_normal((3, 9, 6)), rng.standard_normal((3, 9, 4)), rng.standard_normal((3, 12))
    pools = []
    for _ in range(2):
        net = CompatibilityNet.build(np.random.default_rng(0), 4, [4])
        pools.append(MultiHeadPool(net, Parameter("query", np.arange(4.0) - 1.5), heads))
    fresh, buffered = pools
    pooled, alpha, cache = fresh.pool_from_compat(values, compat)
    pooled_b, alpha_b, cache_b = buffered.pool_from_compat(values, compat.copy(), work=np.empty((27, 6)))
    assert_same_bits(pooled, pooled_b)
    assert_same_bits(alpha, alpha_b)
    d_values, d_compat = fresh.backward_from_compat(cache, g)
    d_values_b, d_compat_b = buffered.backward_from_compat(cache_b, g, out=np.empty((3, 9, 4)))
    assert_same_bits(d_values, d_values_b)
    assert_same_bits(d_compat, d_compat_b)
    assert_same_bits(fresh.query.grad, buffered.query.grad)
