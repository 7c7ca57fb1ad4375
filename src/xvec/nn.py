"""Dense numeric primitives with exact forward and backward passes.

Everything operates on float64 matrices whose rows index time and whose
columns index features. Layers cache the activations they need for the
backward pass only when ``train=True``; inference-mode forwards are pure.
The splice caches nothing: its backward reads the shape it needs off the
gradient.

The forwards and backwards of the frame layers (affine, leaky ReLU, batch
norm, splice) take an optional ``out=`` array for their result, and the
train-mode caches of leaky ReLU and batch norm take one too, so a caller
that holds its buffers (a _Workspace) runs without allocating. Without
them each call returns fresh arrays; either way the result has the same
bits and no input is modified.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError, TrainingError

LEAKY_SLOPE = 0.01
BN_EPSILON = 1e-5
BN_MOMENTUM = 0.99
PROB_FLOOR = 1e-12


def as_matrix(x) -> np.ndarray:
    """Coerce to a 2-D float64 array, validating finiteness."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ConfigError(f"expected a T x d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DataError("matrix contains non-finite entries")
    return a


class _Workspace:
    """Scratch arrays reused from call to call, one per key. A request for
    more rows or other columns than the key's array has replaces that array;
    fewer rows are a prefix of it. Callers copy what they hand out.

    Large arrays all start at the same offset within a 4 KB page, and an
    elementwise pass from one such array into another runs about a quarter
    slower (4K aliasing: the loads wait on stores they only seem to
    overlap). So the k-th array starts 7k cache lines into the page."""

    def __init__(self):
        self._arrays = {}

    def __call__(self, key, rows: int, cols: int, dtype=np.float64) -> np.ndarray:
        a = self._arrays.get(key)
        if a is None or a.shape[0] < rows or a.shape[1] != cols:
            raw = np.empty(rows * cols * np.dtype(dtype).itemsize + 4096, np.uint8)
            start = (448 * len(self._arrays) - raw.ctypes.data) % 4096
            a = self._arrays[key] = raw[start : start + raw.size - 4096].view(dtype).reshape(rows, cols)
        return a[:rows]


class Parameter:
    """A trainable array together with its accumulated gradient."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.value.shape})"


def glorot_uniform(rng: np.random.Generator, dout: int, din: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (din + dout))
    return rng.uniform(-limit, limit, size=(dout, din))


class Affine:
    """y[t] = weight @ x[t] + bias, with weight of shape (dout, din)."""

    def __init__(self, weight: Parameter, bias: Parameter):
        if weight.value.ndim != 2 or bias.value.ndim != 1:
            raise ConfigError("affine expects a 2-D weight and 1-D bias")
        if weight.value.shape[0] != bias.value.shape[0]:
            raise ConfigError(
                f"affine weight rows {weight.value.shape[0]} != bias length {bias.value.shape[0]}"
            )
        self.weight = weight
        self.bias = bias
        self._x = None

    @classmethod
    def build(cls, rng: np.random.Generator, din: int, dout: int, name: str) -> "Affine":
        return cls(
            Parameter(f"{name}.weight", glorot_uniform(rng, dout, din)),
            Parameter(f"{name}.bias", np.zeros(dout)),
        )

    @property
    def din(self) -> int:
        return self.weight.value.shape[1]

    @property
    def dout(self) -> int:
        return self.weight.value.shape[0]

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray, train: bool = False, out=None) -> np.ndarray:
        if x.shape[1] != self.din:
            raise ConfigError(
                f"affine {self.weight.name}: input has {x.shape[1]} columns, expected {self.din}"
            )
        if train:
            self._x = x
        y = np.matmul(x, self.weight.value.T, out=out)
        y += self.bias.value
        return y

    def backward(self, grad_out: np.ndarray, out=None, input_grad: bool = True):
        """Accumulate the parameter gradients and return the input gradient,
        or None when ``input_grad`` is false. ``out`` may be the cached
        input: the weight gradient has read it before out is written."""
        if self._x is None:
            raise RuntimeError("affine backward called before a train-mode forward")
        x, self._x = self._x, None
        self.weight.grad += grad_out.T @ x
        self.bias.grad += grad_out.sum(axis=0)
        return np.matmul(grad_out, self.weight.value, out=out) if input_grad else None


class LeakyReLU:
    def __init__(self):
        self._keep = None

    def forward(self, x: np.ndarray, train: bool = False, out=None, keep=None) -> np.ndarray:
        """``out`` must not be x; ``keep`` takes the train-mode x >= 0 mask."""
        # max(x, slope*x) picks x where x >= 0 and slope*x elsewhere, signed
        # zeros included, because 0 <= slope < 1.
        if train:
            self._keep = np.greater_equal(x, 0.0, out=keep)
        y = np.multiply(LEAKY_SLOPE, x, out=out)
        return np.maximum(x, y, out=y)

    def backward(self, grad_out: np.ndarray, out=None) -> np.ndarray:
        """``out`` must not be grad_out."""
        if self._keep is None:
            raise RuntimeError("leaky ReLU backward called before a train-mode forward")
        keep, self._keep = self._keep, None
        dx = np.empty(keep.shape) if out is None else out
        np.copyto(dx, keep)  # 1.0 where the input was kept, 0.0 elsewhere
        np.maximum(dx, LEAKY_SLOPE, out=dx)  # slope elsewhere
        dx *= grad_out
        return dx


class BatchNorm:
    """Per-column batch normalization with learned scale and shift.

    Train mode normalizes with the biased variance of the current batch and
    blends the batch statistics into the running ones; inference mode applies
    the frozen running statistics, which makes it a per-column affine map.
    """

    def __init__(self, gamma: Parameter, beta: Parameter):
        self.gamma = gamma
        self.beta = beta
        dim = gamma.value.shape[0]
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self._cache = None

    @classmethod
    def build(cls, dim: int, name: str) -> "BatchNorm":
        return cls(Parameter(f"{name}.gamma", np.ones(dim)), Parameter(f"{name}.beta", np.zeros(dim)))

    @property
    def dim(self) -> int:
        return self.gamma.value.shape[0]

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def forward(self, x: np.ndarray, train: bool = False, out=None, x_hat=None) -> np.ndarray:
        """``out`` may be x; ``x_hat`` takes the train-mode normalized batch,
        which the backward pass reads and then overwrites with its result."""
        if x.shape[1] != self.dim:
            raise ConfigError(
                f"batch norm {self.gamma.name}: input has {x.shape[1]} columns, expected {self.dim}"
            )
        if train:
            if x.shape[0] < 2:
                raise TrainingError(
                    f"batch norm {self.gamma.name} needs at least 2 rows in train mode, got {x.shape[0]}"
                )
            # The same arithmetic as x.mean(axis=0) and x.var(axis=0) (biased),
            # with the centred batch computed once: the einsum sums the squares
            # row by row, as the mean of a squares array would, without one.
            mean = x.mean(axis=0)
            x_hat = np.subtract(x, mean, out=x_hat)
            var = np.einsum("ij,ij->j", x_hat, x_hat) / x.shape[0]
            inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
            x_hat *= inv_std
            self.running_mean = BN_MOMENTUM * self.running_mean + (1.0 - BN_MOMENTUM) * mean
            self.running_var = BN_MOMENTUM * self.running_var + (1.0 - BN_MOMENTUM) * var
            self._cache = (x_hat, inv_std)
            y = np.multiply(self.gamma.value, x_hat, out=out)
        else:
            y = np.subtract(x, self.running_mean, out=out)
            y *= self.gamma.value
            y *= 1.0 / np.sqrt(self.running_var + BN_EPSILON)
        y += self.beta.value
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("batch norm backward called before a train-mode forward")
        (x_hat, inv_std), self._cache = self._cache, None
        n = grad_out.shape[0]
        dgamma = np.einsum("ij,ij->j", grad_out, x_hat)
        dbeta = grad_out.sum(axis=0)
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        # (grad_out * gamma) sums to gamma * dbeta over rows and, weighted by
        # x_hat, to gamma * dgamma; the cached x_hat becomes the result.
        dx = np.multiply(x_hat, dgamma / n, out=x_hat)
        np.subtract(grad_out, dx, out=dx)
        dx -= dbeta / n
        dx *= self.gamma.value * inv_std
        return dx


class Splice:
    """Temporal splicing: each output row concatenates the input rows at the
    configured offsets, with out-of-range indices clamped to the edges. The
    identity splice, offsets (0,), hands its input (or gradient) back as is."""

    def __init__(self, offsets):
        offsets = tuple(int(o) for o in offsets)
        if len(offsets) == 0:
            raise ConfigError("splice offsets must be non-empty")
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ConfigError(f"splice offsets must be strictly increasing, got {offsets}")
        if 0 not in offsets:
            raise ConfigError(f"splice offsets must contain 0, got {offsets}")
        self.offsets = offsets

    @property
    def width_multiplier(self) -> int:
        return len(self.offsets)

    def _blocks(self, t: int, d: int):
        """For each offset o: o, its output column slice and the output rows
        [lo, hi) whose source row, row + o, lies in [0, t). Rows below lo read
        row 0 and rows from hi on read row t - 1."""
        for k, o in enumerate(self.offsets):
            lo = min(max(-o, 0), t)
            hi = max(min(t - o, t), lo)
            yield o, slice(k * d, (k + 1) * d), lo, hi

    def _splice(self, x: np.ndarray, out=None) -> np.ndarray:
        if self.offsets == (0,):
            return x
        b, t, d = x.shape
        if out is None:
            out = np.empty((b, t, len(self.offsets) * d))
        for o, cols, lo, hi in self._blocks(t, d):
            out[:, lo:hi, cols] = x[:, lo + o:hi + o]
            if lo:
                out[:, :lo, cols] = x[:, :1]
            if hi < t:
                out[:, hi:, cols] = x[:, t - 1:]
        return out

    def forward(self, x: np.ndarray, out=None) -> np.ndarray:
        """Splice one T x d utterance into a (T, K*d) result; caches nothing
        (the backward pass is batched only)."""
        t, d = x.shape
        return self._splice(x[None], None if out is None else out[None]).reshape(t, len(self.offsets) * d)

    def forward_batch(self, x: np.ndarray, out=None) -> np.ndarray:
        """Splice a (B, T, d) stack of equal-length chunks into a (B, T, K*d)
        result, each clamped at its own edges so no frame leaks across chunk
        boundaries."""
        return self._splice(x, out)

    def backward_batch(self, grad_out: np.ndarray, out=None) -> np.ndarray:
        """(B, T, K*d) output gradient -> (B, T, d) input gradient."""
        if self.offsets == (0,):
            return grad_out
        b, t, kd = grad_out.shape
        d = kd // len(self.offsets)
        if out is None:
            dx = np.zeros((b, t, d))
        else:
            dx = out
            dx.fill(0.0)
        for o, cols, lo, hi in self._blocks(t, d):
            g = grad_out[:, :, cols]
            dx[:, lo + o:hi + o] += g[:, lo:hi]
            if lo > 0:
                dx[:, 0] += g[:, :lo].sum(axis=1)
            if hi < t:
                dx[:, t - 1] += g[:, hi:].sum(axis=1)
        return dx


def _block_forward(affine: Affine, act: LeakyReLU, bn: BatchNorm, x: np.ndarray, train: bool = False,
                   ws: _Workspace | None = None) -> np.ndarray:
    """Affine, leaky ReLU, then batch norm over (N, din) rows. With a
    workspace the block uses three arrays of its own: the affine result goes
    to the (bn, "x_hat") array, which the leaky ReLU reads before batch norm
    writes x_hat there; the output to (bn, "out"); the ReLU's mask to
    (act, "keep")."""
    if ws is None:
        return bn.forward(act.forward(affine.forward(x, train), train), train)
    n, w = x.shape[0], affine.dout
    x_hat = ws((bn, "x_hat"), n, w)
    y = act.forward(affine.forward(x, train, out=x_hat), train, out=ws((bn, "out"), n, w),
                    keep=ws((act, "keep"), n, w, bool))
    return bn.forward(y, train, out=y, x_hat=x_hat)


def _block_backward(affine: Affine, act: LeakyReLU, bn: BatchNorm, grad_out: np.ndarray,
                    ws: _Workspace | None = None, out=None, input_grad: bool = True):
    """Backward through _block_forward; the input gradient goes to ``out``,
    which may be the block's input. With a workspace the leaky ReLU's
    gradient overwrites ``grad_out``, which batch norm has read by then."""
    g = bn.backward(grad_out)
    g = act.backward(g, out=None if ws is None else grad_out)
    return affine.backward(g, out=out, input_grad=input_grad)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class Softmax:
    """Row-wise softmax layer with cached output for the backward pass."""

    def __init__(self):
        self._p = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        p = softmax_rows(x)
        if train:
            self._p = p
        return p

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._p is None:
            raise RuntimeError("softmax backward called before a train-mode forward")
        p, self._p = self._p, None
        return p * (grad_out - (grad_out * p).sum(axis=-1, keepdims=True))


def cross_entropy(posteriors: np.ndarray, labels) -> float:
    """Mean negative log posterior of the true class.

    Rows must already be normalized distributions; probabilities below
    ``PROB_FLOOR`` are clamped before the log.
    """
    p = np.asarray(posteriors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if p.ndim != 2 or labels.shape != (p.shape[0],):
        raise DataError(f"posteriors {p.shape} do not match {labels.shape[0] if labels.ndim else 0} labels")
    if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-6):
        raise DataError("posterior rows must sum to 1 within 1e-6")
    if np.any(labels < 0) or np.any(labels >= p.shape[1]):
        raise DataError(f"label out of range [0, {p.shape[1]})")
    picked = p[np.arange(p.shape[0]), labels]
    return float(np.mean(-np.log(np.maximum(picked, PROB_FLOOR))))


def cross_entropy_backward(posteriors: np.ndarray, labels) -> np.ndarray:
    """Gradient of cross_entropy w.r.t. the posteriors (zero inside the clamp)."""
    p = np.asarray(posteriors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    grad = np.zeros_like(p)
    rows = np.arange(p.shape[0])
    picked = p[rows, labels]
    live = picked >= PROB_FLOOR
    grad[rows[live], labels[live]] = -1.0 / (p.shape[0] * picked[live])
    return grad
