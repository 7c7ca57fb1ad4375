"""Trial scoring and metrics: cosine scores, EER, minimum detection cost,
attention-weight diagnostics against synthetic gates.

Score convention: higher means more likely same speaker; a trial is
accepted when its score is >= the threshold.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, _read_rows, _write_rows
from .errors import ConfigError, DataError
from .model import InferencePlan, Model

NORM_FLOOR = 1e-12

# (p_target, c_miss, c_fa) operating points
DCF08 = (0.01, 10.0, 1.0)
DCF10 = (0.001, 1.0, 1.0)


@dataclass(frozen=True)
class Trial:
    enroll: str  # enrollment speaker (or bare segment id)
    test: str    # test segment id
    target: bool | None = None  # None when the label is not known


class RowError(DataError):
    """A row of evaluation's input that it refuses: ``row`` is the trial's
    index or the enrollment entry (speaker, segment). The message names the
    inputs by role, {embeddings}, {enroll_map} or {scores}; ``naming``
    words it with other names for them, such as their files."""

    def __init__(self, row, template: str, **ids):
        self.row, self._template, self._ids = row, template, ids
        super().__init__(self.naming(embeddings="the embeddings", enroll_map="the enrollment map",
                                     scores="the scores"))

    def naming(self, **inputs) -> str:
        return self._template.format(**self._ids, **inputs)


def length_normalize(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=np.float64)
    return v / max(float(np.linalg.norm(v)), NORM_FLOOR)


def enrollment_models(embeddings: dict, enroll_map: dict) -> dict:
    """Average each speaker's enrollment segment embeddings, then length
    normalize. A mapped segment without an embedding is a RowError."""
    models = {}
    for spk, utt_ids in enroll_map.items():
        if not utt_ids:
            raise DataError(f"enrollment speaker '{spk}' maps to no segments")
        vecs = []
        for utt_id in utt_ids:
            if utt_id not in embeddings:
                raise RowError((spk, utt_id), "segment '{seg}' of speaker '{spk}' has no embedding in {embeddings}",
                               seg=utt_id, spk=spk)
            vecs.append(embeddings[utt_id])
        models[spk] = length_normalize(np.mean(vecs, axis=0))
    return models


def score_trials(embeddings: dict, trials: list, enroll_map: dict | None = None) -> list:
    """Cosine-score every trial; returns (trial, score) pairs in input order.

    The enroll field is resolved through enroll_map when given; a bare
    segment id that has its own embedding also works. The first enrollment
    entry, then the first trial, that does not resolve is a RowError.
    """
    models = enrollment_models(embeddings, enroll_map) if enroll_map else {}
    unit = {utt_id: length_normalize(vec) for utt_id, vec in embeddings.items()}
    scored = []
    for i, trial in enumerate(trials):
        if trial.enroll in models:
            enroll_vec = models[trial.enroll]
        elif trial.enroll in unit:
            enroll_vec = unit[trial.enroll]
        else:
            missing = "in neither {enroll_map} nor {embeddings}" if enroll_map else "not in {embeddings}"
            raise RowError(i, "enroll id '{enroll}' is " + missing, enroll=trial.enroll)
        if trial.test not in unit:
            raise RowError(i, "test segment '{test}' has no embedding in {embeddings}", test=trial.test)
        scored.append((trial, float(np.dot(enroll_vec, unit[trial.test]))))
    return scored


# -- detection metrics --------------------------------------------------------


def _error_curves(scores: np.ndarray, labels: np.ndarray):
    """P_miss and P_fa at every achievable operating point, swept from
    accept-everything to reject-everything."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise DataError(f"scores and labels must be 1-D and equal length, "
                        f"got {scores.shape} and {labels.shape}")
    if not np.all(np.isfinite(scores)):
        raise DataError("scores contain non-finite values")
    order = np.argsort(scores)
    # tar[i] and non[i]: the targets and nontargets among the i lowest scores
    tar = np.concatenate(([0], np.cumsum(labels[order] == 1)))
    non = np.concatenate(([0], np.cumsum(labels[order] == 0)))
    n_tar, n_non = int(tar[-1]), int(non[-1])
    if n_tar == 0 or n_non == 0:
        raise DataError(f"need at least one target and one nontarget trial, "
                        f"got {n_tar} targets and {n_non} nontargets")
    # below[k]: how many scores lie below threshold k. The thresholds are
    # the distinct scores, ascending, then one above the maximum. They are
    # not found with np.unique: its first call imports numpy.ma (to test for
    # a masked array), and a module loaded amid eval's per-trial objects
    # keeps the memory they free from going back: in one process, a train
    # after the whole pipeline peaked 15 MB above the first train with that
    # import, 8 MB above without it.
    ordered = scores[order]
    below = np.append(np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1]))), scores.size)
    return tar[below] / n_tar, 1.0 - non[below] / n_non  # target < threshold, nontarget >= threshold


def compute_eer(scores, labels) -> float:
    """Equal error rate with linear interpolation between the two adjacent
    operating points where the miss and false-alarm curves cross."""
    p_miss, p_fa = _error_curves(scores, labels)
    diff = p_miss - p_fa  # non-decreasing along the sweep
    idx = int(np.searchsorted(diff >= 0, True))
    if diff[idx] == 0.0:
        return float(p_miss[idx])
    if idx == 0:
        return float(p_miss[0])
    dm = p_miss[idx] - p_miss[idx - 1]
    df = p_fa[idx] - p_fa[idx - 1]
    s = (p_fa[idx - 1] - p_miss[idx - 1]) / (dm - df)
    return float(p_miss[idx - 1] + s * dm)


def compute_min_dcf(scores, labels, p_target: float, c_miss: float, c_fa: float) -> float:
    """Minimum normalized detection cost over all thresholds."""
    if not 0.0 < p_target < 1.0:
        raise ConfigError(f"p_target: must be in (0, 1), got {p_target}")
    if not (0.0 < c_miss < math.inf and 0.0 < c_fa < math.inf):  # NaN fails every comparison
        raise ConfigError(f"costs must be finite and > 0, got c_miss={c_miss}, c_fa={c_fa}")
    norm = min(c_miss * p_target, c_fa * (1.0 - p_target))
    if norm == 0.0:
        raise ConfigError(f"min(c_miss * p_target, c_fa * (1 - p_target)) underflows to 0, "
                          f"got p_target={p_target}, c_miss={c_miss}, c_fa={c_fa}")
    p_miss, p_fa = _error_curves(scores, labels)
    dcf = c_miss * p_target * p_miss + c_fa * (1.0 - p_target) * p_fa
    return float(dcf.min() / norm)


@dataclass
class MetricsReport:
    eer: float
    min_dcf08: float
    min_dcf10: float
    num_trials: int
    num_target: int
    num_nontarget: int


def compute_metrics(scores, labels) -> MetricsReport:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    return MetricsReport(
        eer=compute_eer(scores, labels),
        min_dcf08=compute_min_dcf(scores, labels, *DCF08),
        min_dcf10=compute_min_dcf(scores, labels, *DCF10),
        num_trials=int(labels.size),
        num_target=int(np.sum(labels == 1)),
        num_nontarget=int(np.sum(labels == 0)),
    )


# -- attention diagnostics ----------------------------------------------------


def attention_trajectory(model: Model, features: np.ndarray, plan: InferencePlan | None = None):
    """Per-frame attention record for one utterance: (max over heads, full
    heads x frames matrix). Average pooling has no weights to report. A loop
    over utterances passes one model.inference_plan() to every call."""
    trace = model.forward(features, plan=plan)
    if trace.attention is None:
        raise ConfigError(f"pooling '{model.config.pooling}' produces no attention weights")
    return trace.attention.max(axis=0), trace.attention


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, ties sharing the mean of the ranks they span."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)  # highest rank within each group of equal values
    return (upper - (counts - 1) / 2.0)[inverse]


def gate_correlation(weights: np.ndarray, gate: np.ndarray) -> float:
    """Spearman rank correlation between attention weights and the 0/1
    informative-frame gate: the Pearson correlation of their average ranks.
    0.0 when either side is constant, where the correlation is undefined."""
    weights = np.asarray(weights, dtype=np.float64)
    gate = np.asarray(gate, dtype=np.float64)
    if weights.shape != gate.shape or weights.ndim != 1:
        raise DataError(f"weights and gate must be 1-D and equal length, "
                        f"got {weights.shape} and {gate.shape}")
    a = _average_ranks(weights)
    b = _average_ranks(gate)
    a -= a.mean()
    b -= b.mean()
    denom = np.sqrt((a @ a) * (b @ b))
    return float(a @ b / denom) if denom > 0.0 else 0.0


def mean_gate_correlation(model: Model, dataset: Dataset) -> float:
    """Mean per-utterance gate correlation of the max-over-heads weights."""
    values = []
    plan = model.inference_plan()
    for utt in dataset.utterances:
        if utt.gate is None:
            continue
        max_weights, _ = attention_trajectory(model, utt.features, plan)
        values.append(gate_correlation(max_weights, utt.gate))
    if not values:
        raise DataError("no utterance in the dataset carries gate ground truth")
    return float(np.mean(values))


# -- trial construction and file formats ---------------------------------------


def make_trials(utterances, enroll_per_speaker: int, seed) -> tuple:
    """Split each speaker's utterances, (utt_id, speaker) pairs in order as
    write_dataset returns them, into enrollment and test segments and emit
    the full speaker x test-segment trial grid, speakers in sorted order.

    Returns (trials, enroll_map).
    """
    if enroll_per_speaker < 1:
        raise ConfigError(f"enroll_per_speaker must be >= 1, got {enroll_per_speaker}")
    rng = np.random.default_rng(seed)
    by_speaker = {}
    for utt_id, spk in utterances:
        by_speaker.setdefault(spk, []).append(utt_id)
    speakers = sorted(by_speaker)
    enroll_map = {}
    test_ids = []
    for spk in speakers:
        utts = by_speaker[spk]
        if len(utts) <= enroll_per_speaker:
            raise DataError(f"speaker '{spk}' has {len(utts)} utterances, "
                            f"needs more than {enroll_per_speaker} to leave test segments")
        order = rng.permutation(len(utts))
        enroll_map[spk] = [utts[i] for i in order[:enroll_per_speaker]]
        test_ids.extend((utts[i], spk) for i in order[enroll_per_speaker:])
    test_ids.sort()
    trials = [Trial(spk, test_id, target=(test_spk == spk))
              for spk in speakers
              for test_id, test_spk in test_ids]
    return trials, enroll_map


def write_trials(path, trials: list) -> None:
    """A trial without a label is refused: its line would read back as a nontarget."""
    unlabelled = next((t for t in trials if t.target is None), None)
    if unlabelled is not None:
        raise DataError(f"{path}: refusing to write trial ({unlabelled.enroll}, {unlabelled.test}) without a label")
    _write_rows(path, [(t.enroll, t.test, "target" if t.target else "nontarget") for t in trials], "trial", 2)


def read_trials(path) -> list:
    rows = _read_rows(path, "enroll<TAB>test<TAB>target|nontarget", "trial", key=2,
                      valid=lambda row: row[2] in ("target", "nontarget"))
    return [Trial(enroll, test, label == "target") for enroll, test, label in rows]


def write_enroll_map(path, enroll_map: dict) -> None:
    _write_rows(path, [(spk, utt_id) for spk in sorted(enroll_map) for utt_id in enroll_map[spk]],
                "enrollment entry", 2)


def read_enroll_map(path) -> dict:
    mapping = {}
    for spk, utt_id in _read_rows(path, "speaker<TAB>segment", "enrollment entry", key=2):
        mapping.setdefault(spk, []).append(utt_id)
    return mapping


def write_scores(path, scored: list) -> None:
    """scored: (Trial, score) pairs; scores go to disk in full precision. A
    non-finite score is refused: its line would not read back."""
    bad = next(((t, score) for t, score in scored if not math.isfinite(score)), None)
    if bad is not None:
        raise DataError(f"{path}: refusing to write the score {float(bad[1])!r} "
                        f"of trial ({bad[0].enroll}, {bad[0].test})")
    _write_rows(path, [(trial.enroll, trial.test, repr(float(score))) for trial, score in scored], "score", 2)


def read_scores(path) -> dict:
    """Returns {(enroll, test): score}."""
    rows = _read_rows(path, "enroll<TAB>test<TAB>score", "score", key=2, valid=lambda row: math.isfinite(float(row[2])))
    return {(enroll, test): float(score) for enroll, test, score in rows}


def join_scores_with_trials(scores: dict, trials: list) -> tuple:
    """Align a score table with labelled trials; returns (scores, labels).
    The first trial without a label or a score is a RowError."""
    values = np.empty(len(trials))
    labels = np.empty(len(trials), dtype=np.int64)
    for i, t in enumerate(trials):
        if t.target is None:
            raise RowError(i, "trial ({enroll}, {test}) carries no label", enroll=t.enroll, test=t.test)
        if (t.enroll, t.test) not in scores:
            raise RowError(i, "trial ({enroll}, {test}) has no score in {scores}", enroll=t.enroll, test=t.test)
        values[i] = scores[(t.enroll, t.test)]
        labels[i] = 1 if t.target else 0
    return values, labels


def metrics_json(report: MetricsReport, extra: dict | None = None) -> str:
    payload = asdict(report)
    if extra:
        payload.update(extra)
    return json.dumps(payload, sort_keys=True, indent=2)


def write_trajectory(path, max_weights: np.ndarray) -> None:
    _write_rows(path, [("frame", "weight")] + [(str(i), repr(float(w))) for i, w in enumerate(max_weights)])
