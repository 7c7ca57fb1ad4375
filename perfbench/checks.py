"""Output checks made apart from the program.

The file readers, the forward pass, cosine scoring and the detection
metrics below are written from the documented file formats and the method,
not from xvec's code, so a fault in the program cannot hide in its own
oracle. Only ``check_batched_gradients`` drives xvec objects: it compares
the batched backward pass that training runs against central differences
of the same model's loss.

Every check raises ``CheckError`` with a message naming what disagreed.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

LEAKY_SLOPE = 0.01
BN_EPSILON = 1e-5
VAR_FLOOR = 1e-10
DCF08 = (0.01, 10.0, 1.0)
DCF10 = (0.001, 1.0, 1.0)

SCORE_TOL = 1e-12
METRIC_TOL = 1e-9
# Embeddings are stored as float32: a recomputed float64 value must round
# to the stored one, so allow a few float32 ulps.
F32_RTOL = 2.0**-22

# A central difference whose step crosses a leaky-ReLU kink measures a
# blend of two slopes, so a coordinate that disagrees is retried with
# smaller steps; a wrong gradient disagrees at every step.
FD_STEPS = (1e-5, 1e-6, 1e-7)
FD_THRESHOLD = 1e-4
FD_ATOL = 1e-9  # central differences cannot resolve smaller gradients


class CheckError(Exception):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


# -- file readers ----------------------------------------------------------------


def read_features(path) -> np.ndarray:
    """.xvf: b"XVF1", u32 frames, u32 dim, float32 row-major payload."""
    blob = Path(path).read_bytes()
    require(blob[:4] == b"XVF1", f"{path}: bad magic")
    t, d = struct.unpack_from("<II", blob, 4)
    require(len(blob) == 12 + 4 * t * d, f"{path}: size {len(blob)} does not match {t} x {d}")
    return np.frombuffer(blob, dtype="<f4", offset=12).astype(np.float64).reshape(t, d)


def feature_frames(path) -> int:
    with open(path, "rb") as f:
        head = f.read(12)
    require(head[:4] == b"XVF1", f"{path}: bad magic")
    return struct.unpack_from("<I", head, 4)[0]


def read_embeddings(path) -> dict:
    """.xve: b"XVE1", u32 count, then (u16 id length, id, u32 dim, float32 x dim)."""
    blob = Path(path).read_bytes()
    require(blob[:4] == b"XVE1", f"{path}: bad magic")
    (count,) = struct.unpack_from("<I", blob, 4)
    pos, out = 8, {}
    for _ in range(count):
        (n,) = struct.unpack_from("<H", blob, pos)
        utt = blob[pos + 2 : pos + 2 + n].decode()
        (dim,) = struct.unpack_from("<I", blob, pos + 2 + n)
        pos += 6 + n
        out[utt] = np.frombuffer(blob, dtype="<f4", count=dim, offset=pos).astype(np.float64)
        pos += 4 * dim
    require(pos == len(blob), f"{path}: {len(blob) - pos} bytes after the last record")
    return out


def read_manifest(dataset_dir) -> list:
    """[(utt_id, speaker, feature path)] in manifest order."""
    root = Path(dataset_dir)
    rows = [line.split("\t") for line in (root / "manifest.tsv").read_text().splitlines()]
    return [(utt, spk, root / rel) for utt, spk, rel in rows]


def read_tsv(path) -> list:
    return [line.split("\t") for line in Path(path).read_text().splitlines()]


def read_checkpoint(path):
    """.xvm: b"XVM1", u64 config length, config JSON, then every state array
    as u64 count + float64 values, in the order the file format fixes:
    frame blocks (weight, bias, bn gamma, beta, running mean, running var),
    compatibility blocks likewise, the query, utterance affines (weight,
    bias) and the classifier (weight, bias). Returns (config, arrays)."""
    blob = Path(path).read_bytes()
    require(blob[:4] == b"XVM1", f"{path}: bad magic")
    (n,) = struct.unpack_from("<Q", blob, 4)
    cfg = json.loads(blob[12 : 12 + n])
    pos = 12 + n

    def take(shape):
        nonlocal pos
        (count,) = struct.unpack_from("<Q", blob, pos)
        require(count == math.prod(shape), f"{path}: array of {count} values where {shape} was expected")
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=pos + 8).reshape(shape)
        pos += 8 + 8 * count
        return arr

    def norm_block(width, din):
        return {"w": take((width, din)), "b": take((width,)), "gamma": take((width,)),
                "beta": take((width,)), "mean": take((width,)), "var": take((width,))}

    arrays = {"frame": [], "compat": [], "utt": []}
    din = cfg["input_dim"]
    for spec in cfg["frame_layers"]:
        arrays["frame"].append(norm_block(spec["width"], din * len(spec["offsets"])))
        din = spec["width"]
    if cfg["pooling"] != "stats":
        key_layer = cfg["key_layer"] or len(cfg["frame_layers"])
        din = cfg["frame_layers"][key_layer - 1]["width"]
        for width in cfg["compat"]:
            arrays["compat"].append(norm_block(width, din))
            din = width
        arrays["query"] = take((din,))
    din = 2 * cfg["frame_layers"][-1]["width"]
    for width in cfg["utterance_layers"]:
        arrays["utt"].append((take((width, din)), take((width,))))
        din = width
    arrays["classifier"] = (take((cfg["num_speakers"], din)), take((cfg["num_speakers"],)))
    require(pos == len(blob), f"{path}: {len(blob) - pos} bytes after the last array")
    return cfg, arrays


# -- reference forward pass --------------------------------------------------------


def _leaky(z):
    return np.maximum(z, 0.0) + LEAKY_SLOPE * np.minimum(z, 0.0)


def _affine_leaky_norm(x, block):
    z = _leaky(x @ block["w"].T + block["b"])
    return block["gamma"] * (z - block["mean"]) / np.sqrt(block["var"] + BN_EPSILON) + block["beta"]


def reference_embedding(cfg, arrays, feats: np.ndarray) -> np.ndarray:
    """Inference-mode embedding of one utterance: edge-clamped splice,
    affine, leaky ReLU and batch norm with running statistics per frame
    block; h-head softmax pooling into [means; stds]; utterance affines up
    to the embedding tap."""
    acts, h = [], feats
    for spec, block in zip(cfg["frame_layers"], arrays["frame"]):
        t = h.shape[0]
        spliced = np.hstack([h[np.clip(np.arange(t) + o, 0, t - 1)] for o in spec["offsets"]])
        h = _affine_leaky_norm(spliced, block)
        acts.append(h)
    t, d_v = h.shape
    if cfg["pooling"] == "stats":
        heads, weights = 1, np.full((1, t), 1.0 / t)
    else:
        heads = cfg["heads"] if cfg["pooling"] == "multihead" else 1
        c = acts[(cfg["key_layer"] or len(acts)) - 1]
        for block in arrays["compat"]:
            c = _affine_leaky_norm(c, block)
        logits = np.einsum("thq,hq->ht", c.reshape(t, heads, -1), arrays["query"].reshape(heads, -1))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights = e / e.sum(axis=1, keepdims=True)
    v = h.reshape(t, heads, d_v // heads)
    mean = np.einsum("ht,thd->hd", weights, v)
    var = np.einsum("ht,thd->hd", weights, (v - mean) ** 2)
    z = np.concatenate([mean.ravel(), np.sqrt(var + VAR_FLOOR).ravel()])
    for i, (w, b) in enumerate(arrays["utt"]):
        z = w @ z + b
        if i == cfg["embedding_tap"]:
            return z
        z = _leaky(z)
    raise CheckError("embedding_tap is past the last utterance layer")


def check_embeddings(model_path, dataset_dir, embeddings_path, sample: int, rng) -> None:
    cfg, arrays = read_checkpoint(model_path)
    stored = read_embeddings(embeddings_path)
    rows = read_manifest(dataset_dir)
    require(sorted(stored) == sorted(u for u, _, _ in rows),
            f"{embeddings_path}: ids differ from the manifest")
    for i in rng.choice(len(rows), size=min(sample, len(rows)), replace=False):
        utt, _, path = rows[i]
        ref = reference_embedding(cfg, arrays, read_features(path))
        got = stored[utt]
        tol = F32_RTOL * max(float(np.abs(ref).max()), 1e-30)
        err = float(np.abs(got - ref).max())
        require(got.shape == ref.shape and err <= tol,
                f"embedding {utt}: max error {err:.3e} over float32 tolerance {tol:.3e}")


# -- scoring and detection metrics -----------------------------------------------


def _unit_rows(m):
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def read_scored_trials(trials_path, scores_path):
    """The trial rows (enroll, test, target|nontarget) and, aligned with
    them, the scores of the score file, which must hold each trial once."""
    trials = read_tsv(trials_path)
    got = {(e, t): float(s) for e, t, s in read_tsv(scores_path)}
    require(len(got) == len(trials), f"{scores_path}: {len(got)} scores for {len(trials)} trials")
    return trials, np.array([got[(e, t)] for e, t, _ in trials])


def check_scores(embeddings_path, enroll_path, trials, scores) -> None:
    """Every trial score equals the cosine of the length-normalized mean of
    the enrollment segments and the test segment, computed as one matrix
    product."""
    emb = read_embeddings(embeddings_path)
    segments = {}
    for spk, seg in read_tsv(enroll_path):
        segments.setdefault(spk, []).append(seg)
    speakers = sorted(segments)
    tests = sorted({t for _, t, _ in trials})
    enroll = _unit_rows(np.stack([np.mean([emb[s] for s in segments[spk]], axis=0) for spk in speakers]))
    ref = enroll @ _unit_rows(np.stack([emb[t] for t in tests])).T
    row = {spk: i for i, spk in enumerate(speakers)}
    col = {t: j for j, t in enumerate(tests)}
    want = ref[[row[e] for e, _, _ in trials], [col[t] for _, t, _ in trials]]
    err = float(np.abs(scores - want).max())
    require(err <= SCORE_TOL, f"scores differ from the matrix product by up to {err:.3e}")


def detection_metrics(scores: np.ndarray, labels: np.ndarray) -> dict:
    """EER and minDCF over the operating points of a sorted sweep: a trial
    is accepted when its score is >= the threshold, thresholds run over
    every distinct score plus one above the maximum, and the EER
    interpolates linearly between the two points where the curves cross."""
    order = np.argsort(scores, kind="stable")
    s, y = scores[order], labels[order]
    n_tar = int(y.sum())
    n_non = y.size - n_tar
    first = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    tar_below = np.r_[0, np.cumsum(y)][first]
    non_below = first - tar_below
    p_miss = np.r_[tar_below / n_tar, 1.0]
    p_fa = np.r_[(n_non - non_below) / n_non, 0.0]
    gap = p_miss - p_fa
    k = int(np.argmax(gap >= 0))
    if gap[k] == 0 or k == 0:
        eer = p_miss[k]
    else:
        dm, df = p_miss[k] - p_miss[k - 1], p_fa[k] - p_fa[k - 1]
        eer = p_miss[k - 1] + (p_fa[k - 1] - p_miss[k - 1]) / (dm - df) * dm

    def min_dcf(p_target, c_miss, c_fa):
        cost = c_miss * p_target * p_miss + c_fa * (1 - p_target) * p_fa
        return cost.min() / min(c_miss * p_target, c_fa * (1 - p_target))

    return {"eer": float(eer), "min_dcf08": float(min_dcf(*DCF08)), "min_dcf10": float(min_dcf(*DCF10))}


def check_metrics(trials, scores, metrics_path, max_eer: float) -> None:
    """The metrics file matches an independent sweep, and the held-out EER
    is under the workload's quality bound."""
    labels = np.array([lab == "target" for _, _, lab in trials], dtype=np.int64)
    want = detection_metrics(scores, labels)
    reported = json.loads(Path(metrics_path).read_text())
    for key, value in want.items():
        require(abs(reported[key] - value) <= METRIC_TOL,
                f"{key}: reported {reported[key]!r}, recomputed {value!r}")
    require(want["eer"] < max_eer, f"held-out EER {want['eer']:.4f} is not under {max_eer}")


# -- training outputs ---------------------------------------------------------------


def check_train_log(log_path, epochs: int, steps_per_epoch: int) -> None:
    """One finite loss per step, and the last epoch's mean loss below the first's."""
    records = [json.loads(line) for line in Path(log_path).read_text().splitlines()]
    require(len(records) == epochs * steps_per_epoch,
            f"{log_path}: {len(records)} steps, expected {epochs} x {steps_per_epoch}")
    require([r["step"] for r in records] == list(range(1, len(records) + 1)), f"{log_path}: steps out of order")
    losses = np.array([r["loss"] for r in records])
    require(np.all(np.isfinite(losses)), f"{log_path}: non-finite loss")
    first, last = losses[:steps_per_epoch].mean(), losses[-steps_per_epoch:].mean()
    require(last < first, f"last epoch mean loss {last:.4f} is not below the first's {first:.4f}")


def check_batched_gradients(model, feats: np.ndarray, labels: np.ndarray, per_group: int) -> None:
    """Central differences of the batched loss against Model.backward_batch,
    at the largest-gradient coordinates of each parameter group. Batch-norm
    running statistics are restored afterwards."""

    def rel_err(analytic, numeric):
        if abs(analytic - numeric) < FD_ATOL:
            return 0.0
        return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)

    snapshot = [a.copy() for _, a in model.state_arrays()]
    rows = np.arange(labels.size)

    def loss():
        post, _ = model.forward_batch(feats, train=True)
        return float(-np.mean(np.log(post[rows, labels])))

    try:
        model.zero_grad()
        post, cache = model.forward_batch(feats, train=True)
        d_post = np.zeros_like(post)
        d_post[rows, labels] = -1.0 / (labels.size * post[rows, labels])
        model.backward_batch(d_post, cache)
        for group, params in model.parameter_groups().items():
            coords = [(p, i) for p in params for i in range(p.value.size)]
            coords.sort(key=lambda c: -abs(c[0].grad.flat[c[1]]))
            for p, i in coords[:per_group]:
                analytic = float(p.grad.flat[i])
                orig = p.value.flat[i]
                for eps in FD_STEPS:
                    p.value.flat[i] = orig + eps
                    hi = loss()
                    p.value.flat[i] = orig - eps
                    lo = loss()
                    p.value.flat[i] = orig
                    numeric = (hi - lo) / (2 * eps)
                    if rel_err(analytic, numeric) < FD_THRESHOLD:
                        break
                else:
                    raise CheckError(f"{group} {p.name}[{i}]: analytic {analytic!r}, numeric {numeric!r}, "
                                     f"relative error {rel_err(analytic, numeric):.2e}")
    finally:
        for (_, array), saved in zip(model.state_arrays(), snapshot):
            array[...] = saved
