"""Buffer reuse: after a warm-up, a train step and a plan forward allocate
almost nothing; what they hand back shares no memory with a later call; and
a layer given out= buffers computes the same bits as without them."""

import tracemalloc

import numpy as np
import pytest

from xvec.model import FrameLayerSpec, ModelConfig, build_model
from xvec.nn import Affine, BatchNorm, LeakyReLU, Parameter, Splice
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


def same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))


def affine_pair(rng, din, dout):
    w, b = rng.standard_normal((dout, din)), rng.standard_normal(dout)
    return [Affine(Parameter("w", w.copy()), Parameter("b", b.copy())) for _ in range(2)]


def test_affine_out_matches():
    rng = np.random.default_rng(4)
    x, g = rng.standard_normal((20, 6)), rng.standard_normal((20, 5))
    fresh, buffered = affine_pair(rng, 6, 5)
    same_bits(fresh.forward(x, train=True), buffered.forward(x, train=True, out=np.empty((20, 5))))
    same_bits(fresh.backward(g), buffered.backward(g, out=np.empty((20, 6))))
    same_bits(fresh.weight.grad, buffered.weight.grad)
    same_bits(fresh.bias.grad, buffered.bias.grad)


def test_affine_out_may_be_the_cached_input():
    rng = np.random.default_rng(5)
    x, g = rng.standard_normal((20, 6)), rng.standard_normal((20, 5))
    fresh, buffered = affine_pair(rng, 6, 5)
    fresh.forward(x, train=True)
    x2 = x.copy()
    buffered.forward(x2, train=True)
    same_bits(fresh.backward(g), buffered.backward(g, out=x2))
    same_bits(fresh.weight.grad, buffered.weight.grad)


def test_affine_without_input_gradient():
    rng = np.random.default_rng(6)
    x, g = rng.standard_normal((20, 6)), rng.standard_normal((20, 5))
    fresh, skipped = affine_pair(rng, 6, 5)
    fresh.forward(x, train=True)
    skipped.forward(x, train=True)
    fresh.backward(g)
    assert skipped.backward(g, input_grad=False) is None
    same_bits(fresh.weight.grad, skipped.weight.grad)
    same_bits(fresh.bias.grad, skipped.bias.grad)


def test_leaky_relu_out_matches():
    rng = np.random.default_rng(7)
    x, g = rng.standard_normal((30, 4)), rng.standard_normal((30, 4))
    x[0, :2] = [0.0, -0.0]
    fresh, buffered = LeakyReLU(), LeakyReLU()
    same_bits(fresh.forward(x, train=True),
              buffered.forward(x, train=True, out=np.empty((30, 4)), keep=np.empty((30, 4), bool)))
    same_bits(fresh.backward(g), buffered.backward(g, out=np.empty((30, 4))))


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
    same_bits(y, buffered.forward(inplace, train=train, out=inplace, x_hat=np.empty((30, 4)) if train else None))
    same_bits(fresh.running_mean, buffered.running_mean)
    same_bits(fresh.running_var, buffered.running_var)
    if train:
        same_bits(fresh.backward(g), buffered.backward(g))
        same_bits(fresh.gamma.grad, buffered.gamma.grad)


@pytest.mark.parametrize("offsets", [(-2, 0, 1), (0,)])
def test_splice_out_matches(offsets):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 7, 4))
    k = len(offsets)
    g = rng.standard_normal((3, 7, 4 * k))
    fresh, buffered = Splice(offsets), Splice(offsets)
    same_bits(fresh.forward(x[0]), buffered.forward(x[0], out=np.empty((7, 4 * k))))
    same_bits(fresh.forward_batch(x, train=True), buffered.forward_batch(x, train=True, out=np.empty((3, 7, 4 * k))))
    same_bits(fresh.backward_batch(g), buffered.backward_batch(g, out=np.full((3, 7, 4), np.nan)))


def test_stats_pool_work_matches():
    rng = np.random.default_rng(10)
    values, g = rng.standard_normal((3, 9, 6)), rng.standard_normal((3, 12))
    pool = StatsPool()
    fresh, fresh_cache = pool.pool(values)
    buffered, cache = pool.pool(values, work=np.empty((27, 6)))
    same_bits(fresh, buffered)
    same_bits(pool.pool_backward(fresh_cache, g), pool.pool_backward(cache, g))


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
    same_bits(pooled, pooled_b)
    same_bits(alpha, alpha_b)
    d_values, d_compat = fresh.backward_from_compat(cache, g)
    d_values_b, d_compat_b = buffered.backward_from_compat(cache_b, g, out=np.empty((3, 9, 4)))
    same_bits(d_values, d_values_b)
    same_bits(d_compat, d_compat_b)
    same_bits(fresh.query.grad, buffered.query.grad)
