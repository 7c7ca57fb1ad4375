"""Shared test utilities: an independent central-difference gradient oracle,
a bit-equality assertion, an exact-rational detection-metric oracle, a
plain-NumPy single-head attention pooling reference, a plain-NumPy unfolded
inference forward and a frame-by-frame gate sampler, plus the package's
single-head pool over given logits that the pooling checks exercise.

The oracles are deliberately separate from the package's own
implementations so the two routes can vouch for each other.
"""

from fractions import Fraction

import numpy as np

from xvec.data import stationary_on_fraction
from xvec.nn import BN_EPSILON, LEAKY_SLOPE, Parameter
from xvec.pooling import EPS_VAR, CompatibilityNet, MultiHeadPool
from xvec.train import GRADCHECK_THRESHOLD, relative_error

FD_EPS = 1e-5


def numeric_grad(fn, array, eps=FD_EPS):
    """Elementwise central differences of the scalar fn() w.r.t. array,
    perturbing the array in place."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn()
        flat[i] = orig - eps
        lo = fn()
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * eps)
    return grad


def assert_grads_close(analytic, numeric, what=""):
    """The gradient checker's rule: every relative_error under
    GRADCHECK_THRESHOLD, a NaN failing. Returns the largest error, 0.0 for
    an empty pair; a failure names the worst element."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    assert a.shape == n.shape, f"{what}: shape {a.shape} vs {n.shape}"
    err = relative_error(a, n)
    worst = float(np.max(err, initial=0.0))  # a NaN stays NaN
    i = int(np.argmax(err)) if err.size else 0  # argmax finds the first NaN
    assert worst < GRADCHECK_THRESHOLD, (
        f"{what} element {i}: analytic {a[i]!r}, numeric {n[i]!r}, rel err {worst:.3e}")
    return worst


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    """Equal dtype, shape and raw bytes: unlike array_equal, tells -0.0
    from 0.0 and one NaN payload from another, for any dtype."""
    assert a.dtype == b.dtype and a.shape == b.shape, f"{a.dtype}{a.shape} vs {b.dtype}{b.shape}"
    np.testing.assert_array_equal(np.ascontiguousarray(a).view(np.uint8), np.ascontiguousarray(b).view(np.uint8))


# -- single-head attention pooling -------------------------------------------


def logit_pool():
    """Single-head attention pooling over given per-frame logits, as the
    package has it: MultiHeadPool with h=1 and the query [1]. Fed (B, T)
    logits as a (B, T, 1) compatibility array, compat @ query reproduces
    them exactly, and d_compat[..., 0] from backward_from_compat is the
    logit gradient."""
    net = CompatibilityNet.build(np.random.default_rng(0), 1, [1])
    return MultiHeadPool(net, Parameter("query", np.ones(1)), heads=1)


def reference_attention_pool(values, logits):
    """Plain-NumPy single-head pooling: softmax weights, then the weighted
    [mean; std] with the package's variance floor. Returns (pooled, weights)."""
    logits = np.asarray(logits, dtype=np.float64)
    w = np.exp(logits - logits.max())
    w = w / w.sum()
    mean = w @ values
    std = np.sqrt(w @ (values - mean) ** 2 + EPS_VAR)
    return np.concatenate([mean, std]), w


# -- unfolded inference forward -------------------------------------------------


def _leaky(z):
    return np.maximum(z, 0.0) + LEAKY_SLOPE * np.minimum(z, 0.0)


def _affine_leaky_norm(x, arrays, name):
    z = _leaky(x @ arrays[f"{name}.weight"].T + arrays[f"{name}.bias"])
    return (arrays[f"{name}.bn.gamma"] * (z - arrays[f"{name}.bn.running_mean"])
            / np.sqrt(arrays[f"{name}.bn.running_var"] + BN_EPSILON) + arrays[f"{name}.bn.beta"])


def reference_forward(model, feats):
    """Inference forward of one utterance read off the model's state arrays,
    with every batch norm applied as a batch norm: edge-clamped splice,
    affine, leaky ReLU and batch norm per frame block; h-head softmax
    pooling into [means; stds]; leaky-ReLU utterance layers and a softmax.
    Returns (utterance pre-activations, posteriors (K,), attention (h, T) or
    None)."""
    cfg = model.config
    arrays = dict(model.state_arrays())
    acts, h = [], np.asarray(feats, dtype=np.float64)
    for i, spec in enumerate(cfg.frame_layers):
        t = h.shape[0]
        spliced = np.hstack([h[np.clip(np.arange(t) + o, 0, t - 1)] for o in spec.offsets])
        h = _affine_leaky_norm(spliced, arrays, f"frame{i}")
        acts.append(h)
    t, d_v = h.shape
    attention = None
    if cfg.pooling == "stats":
        heads, weights = 1, np.full((1, t), 1.0 / t)
    else:
        heads = cfg.heads
        c = acts[cfg.effective_key_layer - 1]
        for i in range(len(cfg.compat)):
            c = _affine_leaky_norm(c, arrays, f"compat{i}")
        logits = np.einsum("thq,hq->ht", c.reshape(t, heads, -1), arrays["query"].reshape(heads, -1))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights = attention = e / e.sum(axis=1, keepdims=True)
    v = h.reshape(t, heads, d_v // heads)
    mean = np.einsum("ht,thd->hd", weights, v)
    var = np.einsum("ht,thd->hd", weights, (v - mean) ** 2)
    z = np.concatenate([mean.ravel(), np.sqrt(var + EPS_VAR).ravel()])
    preacts = []
    for i in range(len(cfg.utterance_layers)):
        z = arrays[f"utt{i}.weight"] @ z + arrays[f"utt{i}.bias"]
        preacts.append(z)
        z = _leaky(z)
    logits = arrays["classifier.weight"] @ z + arrays["classifier.bias"]
    e = np.exp(logits - logits.max())
    return preacts, e / e.sum(), attention


# -- gate sampler ---------------------------------------------------------------


def sample_gate_loop(rng, t, p_stay_on, p_stay_off):
    """The two-state gate chain one frame at a time, from the same t uniform
    draws as data._sample_gate."""
    gate = np.empty(t, dtype=np.int8)
    u = rng.random(t)
    gate[0] = 1 if u[0] < stationary_on_fraction(p_stay_on, p_stay_off) else 0
    for i in range(1, t):
        stay = p_stay_on if gate[i - 1] else p_stay_off
        gate[i] = gate[i - 1] if u[i] < stay else 1 - gate[i - 1]
    return gate


# -- detection-metric oracle (exact rational arithmetic) -----------------------


def oracle_points(scores, labels):
    """Every achievable (P_miss, P_fa) operating point, exact fractions,
    sweeping accept-all -> reject-all."""
    tar = [s for s, l in zip(scores, labels) if l == 1]
    non = [s for s, l in zip(scores, labels) if l == 0]
    pts = []
    for thr in sorted(set(scores)):
        pm = Fraction(sum(1 for s in tar if s < thr), len(tar))
        pf = Fraction(sum(1 for s in non if s >= thr), len(non))
        pts.append((pm, pf))
    pts.append((Fraction(1), Fraction(0)))
    return pts


def oracle_eer(scores, labels):
    pts = oracle_points(scores, labels)
    prev = None
    for pm, pf in pts:
        d = pm - pf
        if d == 0:
            return float(pm)
        if d > 0:
            pm1, pf1 = prev
            t = (pf1 - pm1) / ((pm - pm1) - (pf - pf1))
            return float(pm1 + t * (pm - pm1))
        prev = (pm, pf)
    raise AssertionError("no crossing found")


def oracle_min_dcf(scores, labels, p_target, c_miss, c_fa):
    p = Fraction(p_target)
    cm = Fraction(c_miss)
    cf = Fraction(c_fa)
    pts = oracle_points(scores, labels)
    best = min(cm * p * pm + cf * (1 - p) * pf for pm, pf in pts)
    return float(best / min(cm * p, cf * (1 - p)))


def random_score_set(rng, max_side=25):
    """Scores rounded to 3 decimals so ties across classes actually happen."""
    n_tar = int(rng.integers(1, max_side + 1))
    n_non = int(rng.integers(1, max_side + 1))
    scores = np.round(rng.normal(0, 1, n_tar + n_non), 3)
    labels = np.concatenate([np.ones(n_tar, dtype=int), np.zeros(n_non, dtype=int)])
    return scores, labels
