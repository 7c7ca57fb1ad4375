"""Temporal pooling layers: statistics, attention, and multi-head attention.

Each pools a batch in one call: a (B, T, d_v) stack of chunks becomes a
(B, 2*d_v) matrix whose row i holds chunk i's weighted per-dimension mean
followed by its weighted per-dimension standard deviation. Weights and
statistics are per chunk; no chunk sees another. Statistics pooling fixes
the weights at 1/T; the attention variants derive them from a softmax over
per-frame query/key compatibility scores. The multi-head variant splits
values, compatibility outputs and query into h contiguous sub-vectors,
pools each independently and concatenates means-first, so the output
layout and length match the single head case; single-head attention is the
multi-head pool with h=1. Heads are an axis of the arrays, not a loop.

Pooling is stateless: each pooling call returns a cache that the matching
backward call takes back. Inference pools one utterance as a batch of one.
A pooling call may be given a (B*T, d) ``work`` array, which it uses for
the centred values and which the backward call overwrites with the value
gradient it returns; without one, both allocate. Inference may also pass a
per-column variance scale (see _weighted_stats).
"""

from __future__ import annotations

import numpy as np

from .nn import Affine, BatchNorm, LeakyReLU, Parameter, _block_backward, _block_forward, softmax_rows

# Floor added to the weighted variance before the square root: sqrt(0) has an
# unbounded derivative, and constant inputs do occur (padded chunks, tests).
EPS_VAR = 1e-10


def _weighted_stats(values: np.ndarray, alpha: np.ndarray, work=None, var_scale=None):
    """Weighted mean and standard deviation over time, per chunk and head.

    values is (B, T, d) and alpha (B, h, T); head i pools the i-th of h
    contiguous d/h-column slices of the values with weights alpha[:, i].
    Returns the (B, 2d) pooled [means of every head; stds of every head]
    plus the cache the backward pass needs. Both stats and attention
    pooling funnel through here so the uniform-weights case reduces to
    statistics pooling bit-for-bit.

    A (d,) ``var_scale`` multiplies each column's variance before the floor
    is added: the variance of the values times s per column is the values'
    variance times s**2, so inference pools what a frozen batch norm reads
    and applies that batch norm to the pooled statistics. The backward pass
    takes no scale: training never passes one.
    """
    b, t, d = values.shape
    h = alpha.shape[1]
    v = values.reshape(b, t, h, d // h).transpose(0, 2, 1, 3)  # (B, h, T, d/h)
    a = alpha[:, :, None, :]  # (B, h, 1, T)
    mean = a @ v
    if work is not None:  # laid out as a new v - mean is: (B, T, h, d/h) in memory
        work = work.reshape(b, t, h, d // h).transpose(0, 2, 1, 3)
    squares = np.subtract(v, mean, out=work)
    squares *= squares  # in place: no second (B, h, T, d/h) array
    var = a @ squares
    if var_scale is not None:
        var *= var_scale.reshape(h, 1, d // h)
    std = np.sqrt(var + EPS_VAR)
    out = np.concatenate([mean.reshape(b, d), std.reshape(b, d)], axis=1)
    # no (B, T, d) array beyond the values and work: the backward recomputes v - mean
    return out, (alpha, v, mean, std, work)


def _weighted_stats_backward(cache, grad_out: np.ndarray, weights: bool = True):
    """Gradients of the (B, 2d) pooled output w.r.t. the (B, T, d) values
    and, when ``weights``, the (B, h, T) weights (else None).

    Uses sum_t alpha_t * centered_t = 0, which kills the indirect mean terms:
      d var / d v_t  = 2 alpha_t * centered_t
      d var / d a_t  = centered_t ** 2
    """
    alpha, v, mean, std, work = cache
    b, h, t, dh = v.shape
    d_mean, d_std = grad_out.reshape(b, 2, h, 1, dh).transpose(1, 0, 2, 3, 4)
    d_var = d_std / (2.0 * std)
    # one (B, h, T, d/h) array holds the squares of the centered values for
    # d_alpha, then d_values = alpha * (d_mean + 2 d_var * centered)
    work = np.subtract(v, mean, out=work)
    d_alpha = None
    if weights:
        work *= work
        d_alpha = (v @ d_mean.swapaxes(2, 3) + work @ d_var.swapaxes(2, 3))[..., 0]
        np.subtract(v, mean, out=work)
    work *= 2.0 * d_var
    work += d_mean
    work *= alpha[..., None]
    return work.transpose(0, 2, 1, 3).reshape(b, t, h * dh), d_alpha


class StatsPool:
    """Statistics pooling: uniform-weight mean and standard deviation."""

    def pool(self, values: np.ndarray, work=None, var_scale=None):
        """Pool a (B, T, d) batch; returns ((B, 2d) pooled, cache)."""
        b, t, _ = values.shape
        return _weighted_stats(values, np.full((b, 1, t), 1.0 / t), work, var_scale)

    def pool_backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """(B, 2d) output gradient -> (B, T, d) value gradient."""
        return _weighted_stats_backward(cache, grad_out, weights=False)[0]


class CompatibilityNet:
    """Fully-connected key transform: affine + leaky ReLU + batch norm blocks."""

    def __init__(self, blocks):
        self.blocks = blocks

    @classmethod
    def build(cls, rng: np.random.Generator, key_dim: int, widths) -> "CompatibilityNet":
        blocks = []
        din = key_dim
        for i, width in enumerate(widths):
            affine = Affine.build(rng, din, int(width), f"compat{i}")
            blocks.append((affine, LeakyReLU(), BatchNorm.build(int(width), f"compat{i}.bn")))
            din = int(width)
        return cls(blocks)

    @property
    def out_dim(self) -> int:
        return self.blocks[-1][0].dout

    def parameters(self) -> list[Parameter]:
        params = []
        for affine, _, bn in self.blocks:
            params.extend(affine.parameters())
            params.extend(bn.parameters())
        return params

    def forward(self, keys: np.ndarray, train: bool = False, ws=None) -> np.ndarray:
        """(N, key_dim) keys -> (N, d_q); with a _Workspace ``ws`` the result
        and caches live in it."""
        h = keys
        for affine, act, bn in self.blocks:
            h = _block_forward(affine, act, bn, h, train, ws)
        return h

    def backward(self, grad_out: np.ndarray, ws=None) -> np.ndarray:
        """With the forward's workspace, each block's input gradient
        overwrites the output of the block before, and the key gradient gets
        an array of its own: the keys are still to be read."""
        g = grad_out
        n = g.shape[0]
        for i in reversed(range(len(self.blocks))):
            affine, act, bn = self.blocks[i]
            out = None
            if ws is not None:
                out = ws((self, "d_keys") if i == 0 else (self.blocks[i - 1][2], "out"), n, affine.din)
            g = _block_backward(affine, act, bn, g, ws, out)
        return g


class MultiHeadPool:
    """Attention pooling with h parallel heads on contiguous sub-vectors.

    The compatibility net runs once on the full keys; its output, the query
    and the values are split into h pieces. With h=1 this is exactly single
    head attention pooling. ModelConfig checks, when built, that h divides
    d_v and d_q.
    """

    def __init__(self, net: CompatibilityNet, query: Parameter, heads: int):
        self.net = net
        self.query = query
        self.heads = heads

    def pool_from_compat(self, values: np.ndarray, compat: np.ndarray, work=None, var_scale=None):
        """Head-split pooling of (B, T, d_v) values against (B, T, d_q)
        precomputed compatibility outputs.

        Stateless: returns ((B, 2 d_v) pooled, (B, h, T) weights, cache), so
        a trainer can run the compatibility net once over a whole batch.
        """
        h = self.heads
        b, t, d_q = compat.shape
        c = compat.reshape(b, t, h, d_q // h).transpose(0, 2, 1, 3)  # (B, h, T, d_q/h)
        alpha = softmax_rows((c @ self.query.value.reshape(h, d_q // h, 1))[..., 0])
        pooled, ws_cache = _weighted_stats(values, alpha, work, var_scale)
        return pooled, alpha, (ws_cache, c)

    def backward_from_compat(self, cache, grad_out: np.ndarray, out=None):
        """Counterpart of pool_from_compat: accumulates the query gradient,
        returns ((B, T, d_v) d_values, (B, T, d_q) d_compat). ``out`` takes
        d_compat and may be the compatibility outputs, read before it is
        written."""
        ws_cache, c = cache
        alpha = ws_cache[0]
        b, h, t, dqh = c.shape
        d_values, d_alpha = _weighted_stats_backward(ws_cache, grad_out)
        d_logits = alpha * (d_alpha - (alpha[..., None, :] @ d_alpha[..., None])[..., 0])
        self.query.grad += (c.swapaxes(2, 3) @ d_logits[..., None]).sum(axis=0).reshape(h * dqh)
        d_compat = np.multiply(d_logits.transpose(0, 2, 1)[..., None], self.query.value.reshape(h, dqh),
                               out=None if out is None else out.reshape(b, t, h, dqh))
        return d_values, d_compat.reshape(b, t, h * dqh)
