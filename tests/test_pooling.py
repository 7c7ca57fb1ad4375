import numpy as np
import pytest
from helpers import assert_grads_close, logit_pool, numeric_grad, reference_attention_pool

from xvec.nn import Parameter, softmax_rows
from xvec.pooling import EPS_VAR, CompatibilityNet, MultiHeadPool, StatsPool


def stats_pool(values):
    """(B, T, d) -> (B, 2d)."""
    return StatsPool().pool(values)[0]


def attention_pool(values, logits):
    """Single-head pooling of (B, T, d) values over (B, T) logits; returns
    ((B, 2d) pooled, (B, 1, T) weights)."""
    out, weights, _ = logit_pool().pool_from_compat(values, np.asarray(logits, dtype=np.float64)[..., None])
    return out, weights


def attention_weights(keys, net, query):
    """Single-head weights softmax(compat(keys) @ query) of one T x d_k
    utterance, as MultiHeadPool computes them (infer mode); the values do
    not enter the weights."""
    pool = MultiHeadPool(net, Parameter("query", np.asarray(query, dtype=np.float64)), heads=1)
    return pool.pool_from_compat(np.zeros((1, keys.shape[0], 1)), net.forward(keys)[None])[1][0, 0]


def _identity_net(dim):
    """Single-block net that passes positive inputs through (up to the batch
    norm epsilon) when run in infer mode with fresh running stats."""
    rng = np.random.default_rng(0)
    net = CompatibilityNet.build(rng, dim, [dim])
    net.blocks[0][0].weight.value[...] = np.eye(dim)
    net.blocks[0][0].bias.value[...] = 0.0
    return net


class TestStatsPool:
    def test_hand_example(self):
        out = stats_pool(np.array([[[1.0, 2.0], [3.0, 4.0]],
                                   [[0.0, 0.0], [4.0, -2.0]]]))
        np.testing.assert_allclose(out[0, :2], [2.0, 3.0], rtol=1e-12)
        np.testing.assert_allclose(out[0, 2:], [1.0, 1.0], rtol=1e-9)
        np.testing.assert_allclose(out[1, :2], [2.0, -1.0], rtol=1e-12)
        np.testing.assert_allclose(out[1, 2:], [2.0, 1.0], rtol=1e-9)

    def test_single_frame(self):
        out = stats_pool(np.array([[[5.0, -2.0]]]))
        np.testing.assert_array_equal(out[0, :2], [5.0, -2.0])
        np.testing.assert_allclose(out[0, 2:], np.sqrt(EPS_VAR))

    def test_constant_frames_floor_the_std(self):
        out = stats_pool(np.tile([3.0, 4.0], (2, 6, 1)))
        np.testing.assert_allclose(out[:, 2:], [[np.sqrt(EPS_VAR)] * 2] * 2)

    def test_gradients(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            values = rng.standard_normal((3, 6, 4))
            r = rng.standard_normal((3, 8))
            pool = StatsPool()

            def loss():
                return float(np.sum(pool.pool(values)[0] * r))

            _, cache = pool.pool(values)
            d_values = pool.pool_backward(cache, r)
            assert_grads_close(d_values, numeric_grad(loss, values), what="values")

    def test_backward_uses_the_given_cache(self):
        # the pool keeps no state: pooling another input in between must not
        # change the gradient of the first
        rng = np.random.default_rng(10)
        a, b = rng.standard_normal((2, 5, 3)), rng.standard_normal((3, 4, 3))
        r = rng.standard_normal((2, 6))
        pool = StatsPool()
        _, cache_a = pool.pool(a)
        alone = pool.pool_backward(cache_a, r)
        _, cache_a = pool.pool(a)
        pool.pool(b)
        np.testing.assert_array_equal(pool.pool_backward(cache_a, r), alone)


class TestAttentionPool:
    def test_hand_example(self):
        # softmax([0, ln 3]) = [0.25, 0.75]; the second chunk's weights swap
        out, weights = attention_pool(np.array([[[0.0], [2.0]], [[0.0], [2.0]]]),
                                      np.array([[0.0, np.log(3.0)], [np.log(3.0), 0.0]]))
        np.testing.assert_allclose(weights, [[[0.25, 0.75]], [[0.75, 0.25]]], rtol=1e-12)
        np.testing.assert_allclose(out[:, 0], [1.5, 0.5], rtol=1e-12)
        std = np.sqrt(0.25 * 2.25 + 0.75 * 0.25 + EPS_VAR)
        np.testing.assert_allclose(out[:, 1], [std, std], rtol=1e-12)

    def test_one_hot_limit(self):
        out, _ = attention_pool(np.array([[[5.0], [9.0]]]), np.array([[40.0, -40.0]]))
        np.testing.assert_allclose(out[0, 0], 5.0, atol=1e-12)
        np.testing.assert_allclose(out[0, 1], np.sqrt(EPS_VAR), rtol=1e-3)

    def test_constant_logits_equal_stats_exactly(self):
        rng = np.random.default_rng(11)
        for t in (1, 2, 7):
            values = rng.standard_normal((3, t, 5))
            for c in (0.0, -3.5, 12.0):
                out, weights = attention_pool(values, np.full((3, t), c))
                np.testing.assert_array_equal(out, stats_pool(values))
                np.testing.assert_allclose(weights, np.full((3, 1, t), 1.0 / t), rtol=1e-15)

    def test_weights_normalized_and_open_interval(self):
        rng = np.random.default_rng(12)
        for seed in range(10):
            logits = np.random.default_rng(seed).standard_normal((2, 9)) * 5
            _, weights = attention_pool(rng.standard_normal((2, 9, 3)), logits)
            np.testing.assert_allclose(weights.sum(axis=2), np.ones((2, 1)), atol=1e-9)
            assert np.all(weights > 0) and np.all(weights < 1)

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(13)
        values = rng.standard_normal((2, 8, 4))
        logits = rng.standard_normal((2, 8))
        base, w0 = attention_pool(values, logits)
        for c in (1.0, -250.0, 3e3):
            out, w = attention_pool(values, logits + c)
            np.testing.assert_allclose(out, base, atol=1e-9)
            np.testing.assert_allclose(w, w0, atol=1e-9)

    def test_gradients(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            values = rng.standard_normal((3, 5, 3))
            logits = rng.standard_normal((3, 5))
            r = rng.standard_normal((3, 6))
            pool = logit_pool()

            def loss():
                return float(np.sum(attention_pool(values, logits)[0] * r))

            _, _, cache = pool.pool_from_compat(values, logits[..., None])
            d_values, d_compat = pool.backward_from_compat(cache, r)
            assert_grads_close(d_values, numeric_grad(loss, values), what="values")
            assert_grads_close(d_compat[..., 0], numeric_grad(loss, logits), what="logits")


class TestAttentionLogits:
    """The logits are compat(keys) @ query; they show in the weights."""

    def test_zero_query(self):
        net = _identity_net(3)
        weights = attention_weights(np.random.default_rng(0).uniform(1, 2, (4, 3)), net, np.zeros(3))
        np.testing.assert_array_equal(weights, np.full(4, 0.25))

    def test_identity_net_projects_first_key_column(self):
        net = _identity_net(3)
        keys = np.random.default_rng(1).uniform(0.5, 2.0, (5, 3))
        weights = attention_weights(keys, net, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(weights, softmax_rows(keys[:, 0]), rtol=1e-4)

    def test_matches_per_frame_recompute(self):
        rng = np.random.default_rng(2)
        net = CompatibilityNet.build(rng, 4, [6, 3])
        query = rng.standard_normal(3)
        keys = rng.standard_normal((3, 4))
        weights = attention_weights(keys, net, query)
        # infer-mode batch norm acts per column, so frame-by-frame agrees
        expected = [float(net.forward(keys[t : t + 1])[0] @ query) for t in range(3)]
        np.testing.assert_allclose(weights, softmax_rows(np.array(expected)), rtol=1e-12)


class TestMultiHeadPool:
    def _build(self, rng, d_k, widths, heads):
        net = CompatibilityNet.build(rng, d_k, widths)
        d_q = net.out_dim
        query = Parameter("query", rng.normal(0.0, np.sqrt(1.0 / d_q), d_q))
        return MultiHeadPool(net, query, heads)

    @staticmethod
    def _pool(pool, values, keys, train=False):
        """Compatibility net over the (B, T, d_k) keys, then head-split
        pooling of the (B, T, d_v) values."""
        b, t, d_k = keys.shape
        compat = pool.net.forward(keys.reshape(b * t, d_k), train)
        out, weights, _ = pool.pool_from_compat(values, compat.reshape(b, t, -1))
        return out, weights

    def test_single_head_equals_attention_pool(self):
        rng = np.random.default_rng(21)
        values = rng.standard_normal((3, 6, 4))
        keys = rng.standard_normal((3, 6, 3))
        pool = self._build(rng, 3, [5, 4], heads=1)
        out, weights = self._pool(pool, values, keys)
        for i in range(3):
            logits = pool.net.forward(keys[i]) @ pool.query.value
            expected, expected_w = reference_attention_pool(values[i], logits)
            np.testing.assert_allclose(out[i], expected, atol=1e-12)
            np.testing.assert_allclose(weights[i], expected_w[None, :], atol=1e-12)

    def test_constructed_heads(self):
        # head 1 uniform (zero query chunk), head 2 one-hot on frame 0
        values = np.array([[1.0, 2.0, 3.0, 4.0],
                           [5.0, 6.0, 7.0, 8.0],
                           [9.0, 10.0, 11.0, 12.0]])
        keys = np.array([[1.0, 1.0, 100.0, 100.0],
                         [1.0, 1.0, 0.5, 0.5],
                         [1.0, 1.0, 0.5, 0.5]])
        net = _identity_net(4)
        query = Parameter("query", np.array([0.0, 0.0, 1.0, 1.0]))
        (out,), (weights,) = self._pool(MultiHeadPool(net, query, heads=2), values[None], keys[None])
        np.testing.assert_allclose(weights[0], [1 / 3] * 3, rtol=1e-12)
        np.testing.assert_allclose(weights[1], [1.0, 0.0, 0.0], atol=1e-12)
        # compose the expectation from single-head pooling on each sub-vector
        (head1,), _ = attention_pool(values[None, :, :2], np.zeros((1, 3)))
        (head2,), _ = attention_pool(values[None, :, 2:], np.array([[200.0, -200.0, -200.0]]))
        np.testing.assert_allclose(out[:2], head1[:2], rtol=1e-9)
        np.testing.assert_allclose(out[2:4], head2[:2], rtol=1e-6)
        np.testing.assert_allclose(out[4:6], head1[2:], rtol=1e-9)
        np.testing.assert_allclose(out[6:8], head2[2:], rtol=1e-3)
        np.testing.assert_allclose(out[2:4], values[0, 2:], rtol=1e-6)

    def test_means_first_layout_and_length(self):
        rng = np.random.default_rng(22)
        values = rng.standard_normal((2, 5, 6))
        keys = rng.standard_normal((2, 5, 4))
        pool = self._build(rng, 4, [6], heads=3)
        out, weights = self._pool(pool, values, keys)
        assert out.shape == (2, 12)
        assert weights.shape == (2, 3, 5)
        np.testing.assert_allclose(weights.sum(axis=2), np.ones((2, 3)), atol=1e-9)
        # stds occupy the second half and respect the variance floor
        assert np.all(out[:, 6:] >= np.sqrt(EPS_VAR) * (1 - 1e-12))

    def test_time_permutation_invariance(self):
        rng = np.random.default_rng(23)
        values = rng.standard_normal((2, 7, 4))
        keys = rng.standard_normal((2, 7, 3))
        pool = self._build(rng, 3, [5, 4], heads=2)
        base, _ = self._pool(pool, values, keys)
        perm = rng.permutation(7)
        out, _ = self._pool(pool, values[:, perm], keys[:, perm])
        np.testing.assert_allclose(out, base, atol=1e-9)

    def test_gradients_h2(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            values = rng.standard_normal((1, 5, 4))
            keys = rng.standard_normal((1, 5, 3))
            pool = self._build(rng, 3, [6, 4], heads=2)
            r = rng.standard_normal((1, 8))
            bn_state = [(bn.running_mean.copy(), bn.running_var.copy())
                        for _, _, bn in pool.net.blocks]

            def loss():
                for (mean, var), (_, _, bn) in zip(bn_state, pool.net.blocks):
                    bn.running_mean[...], bn.running_var[...] = mean, var
                return float(np.sum(self._pool(pool, values, keys, train=True)[0] * r))

            for p in pool.net.parameters() + [pool.query]:
                p.zero_grad()
            _, _, cache = pool.pool_from_compat(values, pool.net.forward(keys[0], train=True)[None])
            d_values, d_compat = pool.backward_from_compat(cache, r)
            d_keys = pool.net.backward(d_compat[0])
            assert_grads_close(d_values, numeric_grad(loss, values), what="values")
            assert_grads_close(d_keys, numeric_grad(loss, keys), what="keys")
            assert_grads_close(pool.query.grad, numeric_grad(loss, pool.query.value), what="query")
            for p in pool.net.parameters():
                assert_grads_close(p.grad, numeric_grad(loss, p.value), what=p.name)



def _multihead(rng, d_q, heads):
    net = CompatibilityNet.build(rng, 1, [d_q])
    return MultiHeadPool(net, Parameter("query", rng.standard_normal(d_q)), heads)


class TestBatch:
    """One call pools a batch; every chunk pools as if alone."""

    @pytest.mark.parametrize("t", [1, 7])
    def test_stats_rows_equal_chunks_alone(self, t):
        rng = np.random.default_rng(30 + t)
        values = rng.standard_normal((3, t, 8))
        grad = rng.standard_normal((3, 16))
        pool = StatsPool()
        out, cache = pool.pool(values)
        d_values = pool.pool_backward(cache, grad)
        for i in range(3):
            out_i, cache_i = pool.pool(values[i : i + 1])
            np.testing.assert_array_equal(out[i : i + 1], out_i)
            np.testing.assert_array_equal(d_values[i : i + 1], pool.pool_backward(cache_i, grad[i : i + 1]))

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("t", [1, 7])
    def test_multihead_rows_equal_chunks_alone(self, heads, t):
        rng = np.random.default_rng(40 + 10 * heads + t)
        pool = _multihead(rng, 3 * heads, heads)
        values = rng.standard_normal((3, t, 2 * heads))
        compat = rng.standard_normal((3, t, 3 * heads))
        grad = rng.standard_normal((3, 4 * heads))
        out, weights, cache = pool.pool_from_compat(values, compat)
        d_values, d_compat = pool.backward_from_compat(cache, grad)
        assert weights.shape == (3, heads, t)
        for i in range(3):
            rows = slice(i, i + 1)
            out_i, weights_i, cache_i = pool.pool_from_compat(values[rows], compat[rows])
            d_values_i, d_compat_i = pool.backward_from_compat(cache_i, grad[rows])
            np.testing.assert_array_equal(out[rows], out_i)
            np.testing.assert_array_equal(weights[rows], weights_i)
            np.testing.assert_array_equal(d_values[rows], d_values_i)
            np.testing.assert_array_equal(d_compat[rows], d_compat_i)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_batch_gradients(self, heads):
        # central differences through values, compatibility outputs and query
        rng = np.random.default_rng(50 + heads)
        pool = _multihead(rng, 2 * heads, heads)
        values = rng.standard_normal((3, 5, 2 * heads))
        compat = rng.standard_normal((3, 5, 2 * heads))
        r = rng.standard_normal((3, 4 * heads))

        def loss():
            return float(np.sum(pool.pool_from_compat(values, compat)[0] * r))

        pool.query.zero_grad()
        d_values, d_compat = pool.backward_from_compat(pool.pool_from_compat(values, compat)[2], r)
        assert_grads_close(d_values, numeric_grad(loss, values), what="values")
        assert_grads_close(d_compat, numeric_grad(loss, compat), what="compat")
        assert_grads_close(pool.query.grad, numeric_grad(loss, pool.query.value), what="query")

class TestCompatibilityNet:
    def test_out_dim_tracks_last_width(self):
        net = CompatibilityNet.build(np.random.default_rng(0), 5, [7, 3])
        assert net.out_dim == 3
        assert net.forward(np.ones((4, 5))).shape == (4, 3)
