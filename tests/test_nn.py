import numpy as np
import pytest
from helpers import assert_grads_close, assert_same_bits, numeric_grad

from xvec.errors import ConfigError, DataError, TrainingError
from xvec.nn import (
    BN_EPSILON,
    BN_MOMENTUM,
    LEAKY_SLOPE,
    Affine,
    BatchNorm,
    LeakyReLU,
    Parameter,
    Softmax,
    Splice,
    as_matrix,
    cross_entropy,
    cross_entropy_backward,
    glorot_uniform,
    softmax_rows,
)


class TestAsMatrix:
    def test_promotes_vector_to_row(self):
        out = as_matrix([1.0, 2.0])
        assert out.shape == (1, 2)

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            as_matrix([[1.0, np.nan]])

    def test_rejects_higher_rank(self):
        with pytest.raises(ConfigError):
            as_matrix(np.zeros((2, 2, 2)))


class TestAffine:
    def test_identity(self):
        layer = Affine(Parameter("w", np.eye(2)), Parameter("b", np.zeros(2)))
        np.testing.assert_array_equal(layer.forward(np.array([[1.0, 2.0]])), [[1.0, 2.0]])

    def test_hand_example(self):
        # rows of x pick out columns of the weight, then the bias shifts
        layer = Affine(
            Parameter("w", np.array([[2.0, 3.0], [4.0, 5.0]])),
            Parameter("b", np.array([1.0, 1.0])),
        )
        out = layer.forward(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(out, [[3.0, 5.0], [4.0, 6.0]])

    def test_zero_weight_gives_bias_rows(self):
        layer = Affine(Parameter("w", np.zeros((2, 3))), Parameter("b", np.array([4.0, 7.0])))
        out = layer.forward(np.arange(12.0).reshape(4, 3))
        np.testing.assert_array_equal(out, np.tile([4.0, 7.0], (4, 1)))

    def test_shape_mismatch(self):
        layer = Affine(Parameter("w", np.zeros((2, 3))), Parameter("b", np.zeros(2)))
        with pytest.raises(ConfigError):
            layer.forward(np.zeros((4, 5)))

    def test_backward_requires_train_forward(self):
        layer = Affine(Parameter("w", np.eye(2)), Parameter("b", np.zeros(2)))
        layer.forward(np.ones((3, 2)), train=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((3, 2)))

    def test_gradients(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            layer = Affine.build(rng, 4, 3, "a")
            x = rng.standard_normal((5, 4))
            r = rng.standard_normal((5, 3))

            def loss():
                return float(np.sum(layer.forward(x, train=False) * r))

            layer.weight.zero_grad()
            layer.bias.zero_grad()
            out = layer.forward(x, train=True)
            dx = layer.backward(r)
            assert_grads_close(layer.weight.grad, numeric_grad(loss, layer.weight.value), what="weight")
            assert_grads_close(layer.bias.grad, numeric_grad(loss, layer.bias.value), what="bias")
            assert_grads_close(dx, numeric_grad(loss, x), what="input")
            assert out.shape == (5, 3)


class TestLeakyReLU:
    def test_definition(self):
        layer = LeakyReLU()
        np.testing.assert_allclose(layer.forward(np.array([[1.0, -1.0]])), [[1.0, -0.01]])

    def test_non_negative_is_identity(self):
        layer = LeakyReLU()
        x = np.array([[0.0, 2.0, 5.0]])
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_grad_at_negative_equals_slope(self):
        layer = LeakyReLU()
        layer.forward(np.array([[-2.0]]), train=True)
        np.testing.assert_allclose(layer.backward(np.array([[1.0]])), [[0.01]])

    def test_gradients(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            layer = LeakyReLU()
            # keep pre-activations away from the kink for clean differences
            x = rng.standard_normal((4, 3))
            x[np.abs(x) < 1e-3] = 0.5
            r = rng.standard_normal((4, 3))

            def loss():
                return float(np.sum(layer.forward(x, train=False) * r))

            layer.forward(x, train=True)
            dx = layer.backward(r)
            assert_grads_close(dx, numeric_grad(loss, x), what="input")


class TestBatchNorm:
    def test_normalized_input_passes_through(self):
        bn = BatchNorm.build(2, "bn")
        rng = np.random.default_rng(0)
        x = rng.standard_normal((200, 2))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        out = bn.forward(x, train=True)
        np.testing.assert_allclose(out, x, atol=1e-4)

    def test_gamma_zero_gives_beta(self):
        bn = BatchNorm.build(2, "bn")
        bn.gamma.value[...] = 0.0
        bn.beta.value[...] = [3.0, -1.0]
        out = bn.forward(np.random.default_rng(1).standard_normal((5, 2)), train=True)
        np.testing.assert_allclose(out, np.tile([3.0, -1.0], (5, 1)))

    def test_hand_example(self):
        # mean 2, biased variance 1
        bn = BatchNorm.build(1, "bn")
        out = bn.forward(np.array([[1.0], [3.0]]), train=True)
        expected = 1.0 / np.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out, [[-expected], [expected]], rtol=1e-12)

    def test_train_needs_two_rows(self):
        bn = BatchNorm.build(1, "bn")
        with pytest.raises(TrainingError):
            bn.forward(np.array([[1.0]]), train=True)

    def test_running_stats_update(self):
        bn = BatchNorm.build(1, "bn")
        bn.forward(np.array([[1.0], [3.0]]), train=True)
        np.testing.assert_allclose(bn.running_mean, [0.99 * 0.0 + 0.01 * 2.0])
        np.testing.assert_allclose(bn.running_var, [0.99 * 1.0 + 0.01 * 1.0])

    def test_infer_is_affine_per_column(self):
        bn = BatchNorm.build(1, "bn")
        bn.forward(np.array([[1.0], [3.0]]), train=True)
        a = bn.forward(np.array([[5.0], [100.0]]), train=False)
        b = bn.forward(np.array([[5.0], [-7.0]]), train=False)
        np.testing.assert_allclose(a[0], b[0])  # independent of batch composition

    def test_gradients(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            bn = BatchNorm.build(3, "bn")
            bn.gamma.value[...] = rng.uniform(0.5, 1.5, 3)
            bn.beta.value[...] = rng.standard_normal(3)
            x = rng.standard_normal((6, 3))
            r = rng.standard_normal((6, 3))
            saved = (bn.running_mean.copy(), bn.running_var.copy())

            def loss():
                bn.running_mean[...], bn.running_var[...] = saved
                return float(np.sum(bn.forward(x, train=True) * r))

            bn.gamma.zero_grad()
            bn.beta.zero_grad()
            bn.forward(x, train=True)
            dx = bn.backward(r)
            assert_grads_close(bn.gamma.grad, numeric_grad(loss, bn.gamma.value), what="gamma")
            assert_grads_close(bn.beta.grad, numeric_grad(loss, bn.beta.value), what="beta")
            assert_grads_close(dx, numeric_grad(loss, x), what="input")


class TestSplice:
    def test_identity_context(self):
        x = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(Splice((0,)).forward(x), x)

    def test_batch_matches_per_chunk(self):
        # the batched path must behave as if each chunk went through alone
        rng = np.random.default_rng(3)
        sp = Splice((-2, 0, 1))
        x3 = rng.standard_normal((4, 7, 3))
        out = sp.forward_batch(x3)
        for i in range(4):
            np.testing.assert_array_equal(out[i], sp.forward(x3[i]))
        g3 = rng.standard_normal(out.shape)
        dx = sp.backward_batch(g3)
        for i in range(4):
            np.testing.assert_array_equal(dx[i], sp.backward_batch(g3[i : i + 1])[0])

    @pytest.mark.parametrize("offsets", [(0,), (-2, 0, 1), (0, 4)])
    def test_backward_needs_no_forward(self, offsets):
        # the splice keeps no state: its backward reads the shape off the gradient
        rng = np.random.default_rng(4)
        x3 = rng.standard_normal((2, 5, 3))
        g3 = rng.standard_normal((2, 5, 3 * len(offsets)))
        fresh = Splice(offsets).backward_batch(g3)
        used = Splice(offsets)
        used.forward_batch(x3)
        assert_same_bits(fresh, used.backward_batch(g3))

    def test_single_frame_clamps(self):
        out = Splice((-2, 0, 2)).forward(np.array([[7.0, 8.0]]))
        np.testing.assert_array_equal(out, [[7.0, 8.0, 7.0, 8.0, 7.0, 8.0]])

    def test_hand_example(self):
        out = Splice((-1, 0, 1)).forward(np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_array_equal(out, [[1, 1, 2], [1, 2, 3], [2, 3, 3]])

    def test_row_count_preserved(self):
        for t in (1, 2, 5, 9):
            out = Splice((-3, -1, 0, 2)).forward(np.ones((t, 4)))
            assert out.shape == (t, 16)

    def test_offset_validation(self):
        with pytest.raises(ConfigError):
            Splice(())
        with pytest.raises(ConfigError):
            Splice((1, 0))
        with pytest.raises(ConfigError):
            Splice((-2, 2))

    def test_gradients(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            layer = Splice((-2, 0, 1))
            x = rng.standard_normal((2, 5, 2))
            r = rng.standard_normal((2, 5, 6))

            def loss():
                return float(np.sum(layer.forward_batch(x) * r))

            dx = layer.backward_batch(r)
            assert_grads_close(dx, numeric_grad(loss, x), what="input")


def clamped_index(t: int, offsets) -> np.ndarray:
    return np.clip(np.arange(t)[:, None] + np.asarray(offsets), 0, t - 1)


class TestKernelOracles:
    """The layers against the plain NumPy expressions they replace: forwards
    bit for bit, the splice backward against an np.add.at scatter."""

    @pytest.mark.parametrize("offsets", [(-5, 0, 1), (0, 4), (-2, -1, 0, 1, 2)])
    @pytest.mark.parametrize("t", [1, 2, 3, 150])
    def test_splice_backward_matches_scatter(self, offsets, t):
        rng = np.random.default_rng(t)
        b, d = 3, 4
        sp = Splice(offsets)
        g = rng.standard_normal((b, t, len(offsets) * d))
        expected = np.zeros((b, t, d))
        np.add.at(expected, (slice(None), clamped_index(t, offsets).ravel()),
                  g.reshape(b, t * len(offsets), d))
        np.testing.assert_allclose(sp.backward_batch(g), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("offsets", [(0,), (-5, 0, 1), (0, 4), (-3, 0, 3)])
    @pytest.mark.parametrize("t", [1, 2, 3, 150])
    def test_splice_forward_is_gather(self, offsets, t):
        rng = np.random.default_rng(t)
        sp = Splice(offsets)
        idx = clamped_index(t, offsets)
        x = rng.standard_normal((t, 5))
        assert_same_bits(sp.forward(x), x[idx].reshape(t, len(offsets) * 5))
        x3 = rng.standard_normal((3, t, 5))
        assert_same_bits(sp.forward_batch(x3), x3[:, idx, :].reshape(3, t, len(offsets) * 5))

    def test_affine_forward_bits(self):
        rng = np.random.default_rng(0)
        layer = Affine.build(rng, 60, 64, "a")
        layer.bias.value[...] = rng.standard_normal(64)
        x = rng.standard_normal((300, 60))
        expected = x @ layer.weight.value.T + layer.bias.value
        for train in (False, True):
            assert_same_bits(layer.forward(x, train), expected)

    def test_leaky_relu_forward_bits(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((200, 7))
        x[0] = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, -1e300]
        layer = LeakyReLU()
        expected = np.where(x >= 0.0, x, LEAKY_SLOPE * x)
        for train in (False, True):
            assert_same_bits(layer.forward(x, train), expected)
        layer.forward(x, train=True)
        g = rng.standard_normal(x.shape)
        assert_same_bits(layer.backward(g), np.where(x >= 0.0, g, LEAKY_SLOPE * g))

    def test_batch_norm_forward_bits(self):
        rng = np.random.default_rng(2)
        bn = BatchNorm.build(64, "bn")
        bn.gamma.value[...] = rng.uniform(0.5, 1.5, 64)
        bn.beta.value[...] = rng.standard_normal(64)
        bn.running_mean[...] = rng.standard_normal(64)
        bn.running_var[...] = rng.uniform(0.5, 2.0, 64)
        x = 3.0 + rng.standard_normal((4800, 64))
        gamma, beta, eps, m = bn.gamma.value, bn.beta.value, BN_EPSILON, BN_MOMENTUM

        inv_std = 1.0 / np.sqrt(bn.running_var + eps)
        assert_same_bits(bn.forward(x, train=False), gamma * (x - bn.running_mean) * inv_std + beta)

        mean, var = x.mean(axis=0), x.var(axis=0)
        running = (m * bn.running_mean + (1.0 - m) * mean, m * bn.running_var + (1.0 - m) * var)
        expected = gamma * ((x - mean) * (1.0 / np.sqrt(var + eps))) + beta
        assert_same_bits(bn.forward(x, train=True), expected)
        assert_same_bits(bn.running_mean, running[0])
        assert_same_bits(bn.running_var, running[1])

    def test_layers_leave_inputs_alone(self):
        rng = np.random.default_rng(3)
        x3 = rng.standard_normal((2, 20, 6))
        x = x3.reshape(40, 6)
        g = rng.standard_normal((40, 6))
        g3 = rng.standard_normal((2, 20, 18))
        kept = [a.copy() for a in (x3, g, g3)]
        sp = Splice((-2, 0, 3))
        for layer in (Affine.build(rng, 6, 6, "a"), LeakyReLU(), BatchNorm.build(6, "bn")):
            y = layer.forward(x, train=False)
            assert not np.shares_memory(y, x)
            layer.forward(x, train=True)
            layer.backward(g)
        sp.forward(x)
        sp.forward_batch(x3)
        sp.backward_batch(g3)
        for a, b in zip((x3, g, g3), kept):
            np.testing.assert_array_equal(a, b)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_constant_rows_are_uniform(self):
        for c in (-50.0, 0.0, 7.25):
            out = softmax_rows(np.full((1, 3), c))
            np.testing.assert_allclose(out, [[1 / 3] * 3], rtol=1e-15)

    def test_large_values_no_overflow(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = softmax_rows(rng.standard_normal((20, 7)) * 30)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(20), atol=1e-9)
        assert np.all(out >= 0)

    def test_gradients(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            layer = Softmax()
            x = rng.standard_normal((3, 4))
            r = rng.standard_normal((3, 4))

            def loss():
                return float(np.sum(layer.forward(x, train=False) * r))

            layer.forward(x, train=True)
            dx = layer.backward(r)
            assert_grads_close(dx, numeric_grad(loss, x), what="input")


class TestCrossEntropy:
    def test_one_hot_correct_is_zero(self):
        assert cross_entropy(np.array([[1.0, 0.0]]), [0]) == 0.0

    def test_uniform_is_log_k(self):
        np.testing.assert_allclose(cross_entropy(np.full((1, 4), 0.25), [2]), np.log(4.0))

    def test_hand_example(self):
        np.testing.assert_allclose(cross_entropy(np.array([[0.7, 0.3]]), [0]), -np.log(0.7))

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            cross_entropy(np.array([[0.5, 0.5]]), [2])

    def test_unnormalized_rows_rejected(self):
        with pytest.raises(DataError):
            cross_entropy(np.array([[0.6, 0.6]]), [0])

    def test_clamp_keeps_loss_finite(self):
        loss = cross_entropy(np.array([[1.0, 0.0]]), [1])
        np.testing.assert_allclose(loss, -np.log(1e-12))

    def test_softmax_cross_entropy_gradients(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            layer = Softmax()
            x = rng.standard_normal((4, 5))
            labels = rng.integers(0, 5, size=4)

            def loss():
                return cross_entropy(layer.forward(x, train=False), labels)

            p = layer.forward(x, train=True)
            dx = layer.backward(cross_entropy_backward(p, labels))
            assert_grads_close(dx, numeric_grad(loss, x), what="logits")
            # the classic closed form: (p - onehot) / N
            onehot = np.zeros_like(p)
            onehot[np.arange(4), labels] = 1.0
            np.testing.assert_allclose(dx, (p - onehot) / 4.0, atol=1e-12)


class TestGlorot:
    def test_bounds_and_determinism(self):
        w1 = glorot_uniform(np.random.default_rng(5), 30, 20)
        w2 = glorot_uniform(np.random.default_rng(5), 30, 20)
        np.testing.assert_array_equal(w1, w2)
        limit = np.sqrt(6.0 / 50.0)
        assert np.all(np.abs(w1) <= limit)
        assert w1.shape == (30, 20)
