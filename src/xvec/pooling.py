"""Temporal pooling layers: statistics, attention, and multi-head attention.

All three reduce a T x d_v value sequence to a single 2*d_v vector holding a
weighted per-dimension mean followed by a weighted per-dimension standard
deviation. Statistics pooling fixes the weights at 1/T; the attention
variants derive them from a softmax over per-frame query/key compatibility
scores. The multi-head variant splits values, compatibility outputs and
query into h contiguous sub-vectors, pools each independently and
concatenates means-first, so the output layout and length match the single
head case; single-head attention is the multi-head pool with h=1.

Pooling is stateless: each pooling call returns a cache that the matching
backward call takes back, so one pool serves every chunk of a batch.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .nn import Affine, BatchNorm, LeakyReLU, Parameter, softmax_rows

# Floor added to the weighted variance before the square root: sqrt(0) has an
# unbounded derivative, and constant inputs do occur (padded chunks, tests).
EPS_VAR = 1e-10


def _weighted_stats(values: np.ndarray, alpha: np.ndarray):
    """Weighted mean and standard deviation over time.

    Returns the pooled [mean; std] vector plus the cache the backward pass
    needs. Both stats and attention pooling funnel through here so the
    uniform-weights case reduces to statistics pooling bit-for-bit.
    """
    mean = alpha @ values
    centered = values - mean
    var = alpha @ (centered**2)
    std = np.sqrt(var + EPS_VAR)
    out = np.concatenate([mean, std])
    return out, (alpha, values, centered, std)


def _weighted_stats_backward(cache, d_mean: np.ndarray, d_std: np.ndarray):
    """Gradients of the pooled vector w.r.t. values and weights.

    Uses sum_t alpha_t * centered_t = 0, which kills the indirect mean terms:
      d var / d v_t  = 2 alpha_t * centered_t
      d var / d a_t  = centered_t ** 2
    """
    alpha, values, centered, std = cache
    d_var = d_std / (2.0 * std)
    d_values = alpha[:, None] * (d_mean + 2.0 * d_var * centered)
    d_alpha = values @ d_mean + (centered**2) @ d_var
    return d_values, d_alpha


class StatsPool:
    """Statistics pooling: uniform-weight mean and standard deviation."""

    def pool(self, values: np.ndarray):
        """Stateless pooling; returns (pooled, cache)."""
        t = values.shape[0]
        return _weighted_stats(values, np.full(t, 1.0 / t))

    def pool_backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        d = grad_out.shape[0] // 2
        d_values, _ = _weighted_stats_backward(cache, grad_out[:d], grad_out[d:])
        return d_values


class CompatibilityNet:
    """Fully-connected key transform: affine + leaky ReLU + batch norm blocks."""

    def __init__(self, blocks):
        if not blocks:
            raise ConfigError("compatibility net needs at least one layer")
        self.blocks = blocks

    @classmethod
    def build(cls, rng: np.random.Generator, key_dim: int, widths, name: str = "compat") -> "CompatibilityNet":
        blocks = []
        din = key_dim
        for i, width in enumerate(widths):
            affine = Affine.build(rng, din, int(width), f"{name}{i}")
            blocks.append((affine, LeakyReLU(), BatchNorm.build(int(width), f"{name}{i}.bn")))
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

    def forward(self, keys: np.ndarray, train: bool = False) -> np.ndarray:
        h = keys
        for affine, act, bn in self.blocks:
            h = bn.forward(act.forward(affine.forward(h, train), train), train)
        return h

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g = grad_out
        for affine, act, bn in reversed(self.blocks):
            g = affine.backward(act.backward(bn.backward(g)))
        return g


class MultiHeadPool:
    """Attention pooling with h parallel heads on contiguous sub-vectors.

    The compatibility net runs once on the full keys; its output, the query
    and the values are split into h pieces. With h=1 this is exactly single
    head attention pooling.
    """

    def __init__(self, net: CompatibilityNet, query: Parameter, heads: int):
        if heads < 1:
            raise ConfigError(f"heads must be >= 1, got {heads}")
        if query.value.shape != (net.out_dim,):
            raise ConfigError(
                f"query length {query.value.shape[0]} does not match compatibility output {net.out_dim}"
            )
        self.net = net
        self.query = query
        self.heads = heads

    def parameters(self) -> list[Parameter]:
        return self.net.parameters() + [self.query]

    def pool_from_compat(self, values: np.ndarray, compat: np.ndarray):
        """Head-split pooling against precomputed compatibility outputs.

        Stateless: returns (pooled, weights, cache) so a trainer can run the
        compatibility net once over a whole batch and still pool chunk by
        chunk.
        """
        h = self.heads
        d_v = values.shape[1]
        d_q = self.net.out_dim
        if d_v % h != 0:
            raise ConfigError(f"heads={h} does not divide the value dimension {d_v}")
        if d_q % h != 0:
            raise ConfigError(f"heads={h} does not divide the query dimension {d_q}")
        dvh, dqh = d_v // h, d_q // h
        means, stds, weights, head_caches = [], [], [], []
        for i in range(h):
            logits = compat[:, i * dqh : (i + 1) * dqh] @ self.query.value[i * dqh : (i + 1) * dqh]
            alpha = softmax_rows(logits[None, :])[0]
            out_i, ws_cache = _weighted_stats(values[:, i * dvh : (i + 1) * dvh], alpha)
            means.append(out_i[:dvh])
            stds.append(out_i[dvh:])
            weights.append(alpha)
            head_caches.append(ws_cache)
        cache = (head_caches, compat, values.shape, dvh, dqh)
        return np.concatenate(means + stds), np.stack(weights), cache

    def backward_from_compat(self, cache, grad_out: np.ndarray):
        """Counterpart of pool_from_compat: accumulates the query gradient,
        returns (d_values, d_compat)."""
        head_caches, compat, values_shape, dvh, dqh = cache
        d_v = values_shape[1]
        d_values = np.empty(values_shape)
        d_compat = np.empty_like(compat)
        for i, ws_cache in enumerate(head_caches):
            alpha = ws_cache[0]
            d_vals_i, d_alpha = _weighted_stats_backward(
                ws_cache, grad_out[i * dvh : (i + 1) * dvh],
                grad_out[d_v + i * dvh : d_v + (i + 1) * dvh])
            d_logits = alpha * (d_alpha - float(alpha @ d_alpha))
            d_values[:, i * dvh : (i + 1) * dvh] = d_vals_i
            q_i = self.query.value[i * dqh : (i + 1) * dqh]
            self.query.grad[i * dqh : (i + 1) * dqh] += compat[:, i * dqh : (i + 1) * dqh].T @ d_logits
            d_compat[:, i * dqh : (i + 1) * dqh] = np.outer(d_logits, q_i)
        return d_values, d_compat
