"""Synthetic speaker data, feature-file I/O and chunked batch streams.

Synthetic utterances carry a hidden two-state Markov "gate" marking which
frames actually contain speaker information; the gate is stored as ground
truth so learned attention weights can be validated against it. Features
are float32 on disk and float64 in memory.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError

log = logging.getLogger(__name__)

FEATURE_MAGIC = b"XVF1"
EMBEDDING_MAGIC = b"XVE1"
MAX_FEATURE_FRAMES = 2**32 - 1  # the .xvf header stores the frame count as u32


@dataclass
class SynthConfig:
    num_speakers: int = 32
    utts_per_speaker: int = 20
    min_frames: int = 150
    max_frames: int = 300
    dim: int = 20
    p_stay_on: float = 0.9
    p_stay_off: float = 0.9
    scale: float = 1.0
    sigma: float = 0.5
    seed: int = 0

    def validate(self) -> None:
        if self.num_speakers < 2:
            raise ConfigError(f"num_speakers: must be >= 2, got {self.num_speakers}")
        if self.utts_per_speaker < 1:
            raise ConfigError(f"utts_per_speaker: must be >= 1, got {self.utts_per_speaker}")
        if self.min_frames < 10:
            raise ConfigError(f"min_frames: must be >= 10, got {self.min_frames}")
        if not self.min_frames <= self.max_frames <= MAX_FEATURE_FRAMES:
            raise ConfigError(f"max_frames: must be in [min_frames, {MAX_FEATURE_FRAMES}], "
                              f"got {self.max_frames}")
        if self.dim < 1:
            raise ConfigError(f"dim: must be >= 1, got {self.dim}")
        for name in ("p_stay_on", "p_stay_off"):
            p = getattr(self, name)
            if not 0.0 < p < 1.0:
                raise ConfigError(f"{name}: must be in (0, 1), got {p}")
        if self.sigma <= 0.0:
            raise ConfigError(f"sigma: must be > 0, got {self.sigma}")


@dataclass
class Utterance:
    utt_id: str
    speaker: str
    features: np.ndarray
    gate: np.ndarray | None = None  # per-frame 0/1 informativeness, synthetic only

    @property
    def num_frames(self) -> int:
        return self.features.shape[0]


@dataclass
class Dataset:
    utterances: list
    speakers: list  # sorted speaker names; index = dense label
    split: str = "train"

    def __post_init__(self):
        self._label = {spk: i for i, spk in enumerate(self.speakers)}
        for utt in self.utterances:
            if utt.speaker not in self._label:
                raise DataError(f"utterance {utt.utt_id} names unknown speaker {utt.speaker}")

    @property
    def num_speakers(self) -> int:
        return len(self.speakers)

    def label(self, utt: Utterance) -> int:
        return self._label[utt.speaker]

    def by_id(self) -> dict:
        return {u.utt_id: u for u in self.utterances}


def stationary_on_fraction(p_stay_on: float, p_stay_off: float) -> float:
    """Stationary probability of the gate's on state."""
    p_on = 1.0 - p_stay_off  # off -> on
    p_off = 1.0 - p_stay_on  # on -> off
    return p_on / (p_on + p_off)


def _sample_gate(rng: np.random.Generator, t: int, p_stay_on: float, p_stay_off: float) -> np.ndarray:
    gate = np.empty(t, dtype=np.int8)
    u = rng.random(t)
    gate[0] = 1 if u[0] < stationary_on_fraction(p_stay_on, p_stay_off) else 0
    for i in range(1, t):
        stay = p_stay_on if gate[i - 1] else p_stay_off
        gate[i] = gate[i - 1] if u[i] < stay else 1 - gate[i - 1]
    return gate


def gen_synthetic(cfg: SynthConfig, split: str = "train") -> Dataset:
    """Sample a dataset: per speaker a Gaussian identity vector, per frame a
    Markov gate deciding whether the identity is present under the noise."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    utterances = []
    speakers = [f"s{k:04d}" for k in range(cfg.num_speakers)]
    for k, spk in enumerate(speakers):
        identity = rng.standard_normal(cfg.dim)
        for j in range(cfg.utts_per_speaker):
            t = int(rng.integers(cfg.min_frames, cfg.max_frames + 1))
            gate = _sample_gate(rng, t, cfg.p_stay_on, cfg.p_stay_off)
            noise = rng.normal(0.0, cfg.sigma, size=(t, cfg.dim))
            feats = gate[:, None] * (cfg.scale * identity) + noise
            utterances.append(Utterance(f"{split}-{spk}-u{j:04d}", spk, feats, gate))
    return Dataset(utterances, speakers, split)


# -- feature files ---------------------------------------------------------


def write_features(path, features: np.ndarray) -> None:
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise DataError(f"features must be 2-D, got shape {feats.shape}")
    if not np.all(np.isfinite(feats)):
        raise DataError("refusing to write non-finite features")
    t, d = feats.shape
    with open(path, "wb") as f:
        f.write(FEATURE_MAGIC)
        f.write(struct.pack("<II", t, d))
        f.write(np.ascontiguousarray(feats, dtype="<f4").tobytes())


def read_features(path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 12:
        raise FormatError(f"{path}: truncated header at byte {len(blob)}, need 12 bytes")
    if blob[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic at byte 0")
    t, d = struct.unpack_from("<II", blob, 4)
    expected = 12 + 4 * t * d
    if len(blob) < expected:
        raise FormatError(f"{path}: truncated at byte {len(blob)}, expected {expected} bytes")
    if len(blob) > expected:
        raise FormatError(f"{path}: {len(blob) - expected} trailing bytes at byte {expected}")
    if t < 1 or d < 1:
        raise FormatError(f"{path}: degenerate shape {t} x {d} in header at byte 4")
    return np.frombuffer(blob, dtype="<f4", count=t * d, offset=12).astype(np.float64).reshape(t, d)


# -- embedding files --------------------------------------------------------


def write_embeddings(path, embeddings: dict) -> None:
    """Write utt_id -> vector pairs; float32 on disk like the features."""
    ids = [utt_id.encode() for utt_id in embeddings]
    if max(map(len, ids), default=0) > 0xFFFF:
        raise DataError(f"{path}: an utterance id is longer than the 65535 bytes the format allows")
    with open(path, "wb") as f:
        f.write(EMBEDDING_MAGIC)
        f.write(struct.pack("<I", len(embeddings)))
        for raw, vec in zip(ids, embeddings.values()):
            v = np.ascontiguousarray(np.asarray(vec, dtype=np.float64), dtype="<f4")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<I", v.size))
            f.write(v.tobytes())


def read_embeddings(path) -> dict:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 8 or blob[:4] != EMBEDDING_MAGIC:
        raise FormatError(f"{path}: not an embeddings file (bad magic at byte 0)")
    (count,) = struct.unpack_from("<I", blob, 4)
    offset = 8
    out = {}
    first_dim = None
    for _ in range(count):
        try:
            (id_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            utt_id = blob[offset : offset + id_len].decode()
            if utt_id in out:
                raise FormatError(f"{path}: duplicate id '{utt_id}' at byte {offset}")
            offset += id_len
            (dim,) = struct.unpack_from("<I", blob, offset)
            if first_dim not in (None, dim):
                raise FormatError(f"{path}: vector '{utt_id}' at byte {offset} has {dim} values, "
                                  f"the first record has {first_dim}")
            first_dim = dim
            offset += 4
            if len(blob) < offset + 4 * dim:
                raise FormatError(f"{path}: truncated vector at byte {len(blob)}, need {offset + 4 * dim}")
            vec = np.frombuffer(blob, dtype="<f4", count=dim, offset=offset).astype(np.float64)
            offset += 4 * dim
        except (struct.error, UnicodeDecodeError) as e:
            raise FormatError(f"{path}: truncated or corrupt record at byte {offset}: {e}") from e
        out[utt_id] = vec
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes at byte {offset}")
    return out


# -- dataset directories -----------------------------------------------------


def write_dataset(dataset: Dataset, out_dir) -> Path:
    """Write features, the manifest and the gate sidecar under out_dir."""
    out = Path(out_dir)
    feat_dir = out / "feats"
    feat_dir.mkdir(parents=True, exist_ok=True)
    manifest_lines = []
    gate_lines = []
    for utt in dataset.utterances:
        rel = f"feats/{utt.utt_id}.xvf"
        write_features(out / rel, utt.features)
        manifest_lines.append(f"{utt.utt_id}\t{utt.speaker}\t{rel}\n")
        if utt.gate is not None:
            gate_lines.append(f"{utt.utt_id}\t{''.join(str(int(g)) for g in utt.gate)}\n")
    (out / "manifest.tsv").write_text("".join(manifest_lines))
    if gate_lines:
        (out / "gates.tsv").write_text("".join(gate_lines))
    return out / "manifest.tsv"


def read_lines(path) -> list:
    """The lines of a UTF-8 text file. Bytes that are not UTF-8 raise
    FormatError naming the file and the first bad byte."""
    blob = Path(path).read_bytes()
    try:
        return blob.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 at byte {e.start} (0x{blob[e.start]:02x})") from None


def load_dataset(manifest_path, split: str = "train") -> Dataset:
    """Load a dataset from a manifest file or a directory containing one."""
    path = Path(manifest_path)
    if path.is_dir():
        path = path / "manifest.tsv"
    if not path.is_file():
        raise DataError(f"no manifest found at {path}")
    root = path.parent
    gates = {}
    gate_path = root / "gates.tsv"
    if gate_path.is_file():
        for lineno, line in enumerate(read_lines(gate_path), 1):
            parts = line.split("\t")
            if len(parts) != 2 or set(parts[1]) - {"0", "1"}:
                raise FormatError(f"{gate_path}:{lineno}: expected 'utt_id<TAB>0/1 string'")
            gates[parts[0]] = np.frombuffer(parts[1].encode(), dtype=np.uint8) - ord("0")
    utterances = []
    seen = {}  # utt_id -> manifest line
    for lineno, line in enumerate(read_lines(path), 1):
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected 'utt_id<TAB>speaker<TAB>path'")
        utt_id, speaker, rel = parts
        if seen.setdefault(utt_id, lineno) != lineno:
            raise FormatError(f"{path}:{lineno}: duplicate utterance id '{utt_id}' (first on line {seen[utt_id]})")
        feats = read_features(root / rel)
        if utterances and feats.shape[1] != utterances[0].features.shape[1]:
            raise DataError(f"{path}:{lineno}: {rel} has {feats.shape[1]} feature columns, "
                            f"line 1 has {utterances[0].features.shape[1]}")
        gate = gates.get(utt_id)
        if gate is not None and gate.shape[0] != feats.shape[0]:
            raise DataError(f"{utt_id}: gate length {gate.shape[0]} != {feats.shape[0]} frames")
        utterances.append(Utterance(utt_id, speaker, feats, gate.astype(np.int8) if gate is not None else None))
    if not utterances:
        raise DataError(f"{path}: manifest lists no utterances")
    speakers = sorted({u.speaker for u in utterances})
    return Dataset(utterances, speakers, split)


# -- batching ----------------------------------------------------------------


def chunk_utterance(features: np.ndarray, chunk_len: int, rng: np.random.Generator) -> np.ndarray:
    """One random contiguous chunk; too-short utterances are padded by
    replicating the final frame."""
    t = features.shape[0]
    if t >= chunk_len:
        start = int(rng.integers(0, t - chunk_len + 1))
        return features[start : start + chunk_len]
    pad = np.repeat(features[-1:], chunk_len - t, axis=0)
    return np.concatenate([features, pad], axis=0)


def make_batches(dataset: Dataset, chunk_len: int, batch_size: int, seed):
    """Yield (features, labels) batches for one epoch.

    features has shape (B, chunk_len, dim); the chunks are meant to be
    forwarded independently, one pooled utterance each. Deterministic in
    the seed.
    """
    if chunk_len < 1:
        raise ConfigError(f"chunk_len must be >= 1, got {chunk_len}")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset.utterances))
    for start in range(0, len(order), batch_size):
        chosen = [dataset.utterances[i] for i in order[start : start + batch_size]]
        feats = np.empty((len(chosen), chunk_len, chosen[0].features.shape[1]))
        labels = np.empty(len(chosen), dtype=np.int64)
        for i, utt in enumerate(chosen):
            if utt.num_frames < chunk_len:
                log.warning("utterance %s has %d < %d frames, padding by replication",
                            utt.utt_id, utt.num_frames, chunk_len)
            feats[i] = chunk_utterance(utt.features, chunk_len, rng)
            labels[i] = dataset.label(utt)
        yield feats, labels
