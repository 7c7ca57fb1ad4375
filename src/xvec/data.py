"""Synthetic speaker data, binary file I/O and chunked batch streams.

Synthetic utterances carry a hidden two-state Markov "gate" marking which
frames actually contain speaker information; the gate is stored as ground
truth so learned attention weights can be validated against it. Features
are float32 on disk and float64 in memory.
"""

from __future__ import annotations

import logging
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError

log = logging.getLogger(__name__)

FEATURE_MAGIC = b"XVF1"
EMBEDDING_MAGIC = b"XVE1"
MAX_FEATURE_FRAMES = 2**32 - 1  # the .xvf header stores the frame count as u32
WRITE_AHEAD_BYTES = 1 << 20  # features write_dataset draws ahead of its writes; see _drawn_ahead


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
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
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")


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

    @classmethod
    def from_utterances(cls, utterances) -> "Dataset":
        """The utterances of an iterable, in order, held in memory; the
        speakers are their sorted names."""
        utterances = list(utterances)
        return cls(utterances, sorted({u.speaker for u in utterances}))


def stationary_on_fraction(p_stay_on: float, p_stay_off: float) -> float:
    """Stationary probability of the gate's on state."""
    p_on = 1.0 - p_stay_off  # off -> on
    p_off = 1.0 - p_stay_on  # on -> off
    return p_on / (p_on + p_off)


def _sample_gate(rng: np.random.Generator, t: int, p_stay_on: float, p_stay_off: float) -> np.ndarray:
    """The gate chain from t uniform draws: frame 0 is on when u[0] is below
    the stationary on fraction; frame i keeps the state of frame i - 1 when
    u[i] is below that state's stay probability, else flips it.

    Whatever the state, step i therefore keeps it (u[i] passes both stay
    tests), flips it (passes neither) or sets it to "u[i] passes the on
    test" (passes one). A frame's state is the value last set, flipped once
    per flip since."""
    u = rng.random(t)
    stay_on = u < p_stay_on
    stay_off = u < p_stay_off
    sets = stay_on != stay_off
    sets[0] = True
    value = stay_on.astype(np.int8)
    value[0] = u[0] < stationary_on_fraction(p_stay_on, p_stay_off)
    flips = np.cumsum(~(stay_on | stay_off))  # a flip at frame 0 is never after a set
    last_set = np.maximum.accumulate(np.where(sets, np.arange(t), 0))
    return value[last_set] ^ ((flips - flips[last_set]) & 1).astype(np.int8)


def gen_synthetic(cfg: SynthConfig, split: str = "train") -> Iterator[Utterance]:
    """Yield a split's utterances one at a time, speaker by speaker: per
    speaker a Gaussian identity vector, per frame a Markov gate deciding
    whether the identity is present under the noise. Dataset.from_utterances
    holds a split in memory."""
    rng = np.random.default_rng(cfg.seed)
    for k in range(cfg.num_speakers):
        spk = f"s{k:04d}"
        identity = rng.standard_normal(cfg.dim)
        for j in range(cfg.utts_per_speaker):
            t = int(rng.integers(cfg.min_frames, cfg.max_frames + 1))
            gate = _sample_gate(rng, t, cfg.p_stay_on, cfg.p_stay_off)
            feats = rng.normal(0.0, cfg.sigma, size=(t, cfg.dim))
            feats += gate[:, None] * (cfg.scale * identity)  # the noise plus the gated identity
            yield Utterance(f"{split}-{spk}-u{j:04d}", spk, feats, gate)


# -- binary files: .xvf, .xve and .xvm --------------------------------------


def _write_binary(path, magic: bytes, *parts) -> None:
    """Write the magic, then each part (bytes or a contiguous array) as is.
    A non-finite array value is refused before the file is opened, so every
    file written reads back."""
    if not all(np.isfinite(part).all() for part in parts if isinstance(part, np.ndarray)):
        raise DataError(f"{path}: refusing to write a non-finite value")
    with open(path, "wb") as f:
        f.writelines((magic, *parts))


def _float32(values) -> np.ndarray:
    """values as contiguous little-endian float32. A value beyond float32's
    range becomes inf without a warning; _write_binary then refuses it."""
    with np.errstate(over="ignore"):
        return np.ascontiguousarray(values, dtype="<f4")


class _BinaryReader:
    """A cursor over a whole binary file, past its checked magic. Every read
    error is a FormatError naming the file and the byte; a short read is
    "truncated <what> at byte <file length>"."""

    def __init__(self, path, magic: bytes, kind: str):
        self.path = path
        self.buf = memoryview(Path(path).read_bytes())
        self.pos = 0
        if self.take_bytes(len(magic), "header") != magic:
            raise self.error(f"not {kind} (bad magic at byte 0)")

    def error(self, message: str) -> FormatError:
        return FormatError(f"{self.path}: {message}")

    def _skip(self, n: int, what: str) -> int:
        if self.pos + n > len(self.buf):
            raise self.error(f"truncated {what} at byte {len(self.buf)}")
        self.pos += n
        return self.pos - n

    def take(self, fmt: str, what: str) -> tuple:
        return struct.unpack_from(fmt, self.buf, self._skip(struct.calcsize(fmt), what))

    def take_bytes(self, n: int, what: str) -> bytes:
        return bytes(self.buf[self._skip(n, what) : self.pos])

    def take_text(self, n: int, what: str) -> str:
        start = self._skip(n, what)
        try:
            return str(self.buf[start : self.pos], "utf-8")
        except UnicodeDecodeError as e:
            raise self.error(f"{what} is not UTF-8 at byte {start + e.start} (0x{e.object[e.start]:02x})") from None

    def take_array(self, dtype: str, count: int, what: str) -> np.ndarray:
        """count values as a read-only view of the file; a non-finite one is an error."""
        size = np.dtype(dtype).itemsize
        start = self._skip(size * count, what)
        array = np.frombuffer(self.buf, dtype, count, start)
        finite = np.isfinite(array)
        if not finite.all():
            raise self.error(f"non-finite value in {what} at byte {start + size * int(np.argmin(finite))}")
        return array

    def finish(self) -> None:
        if self.pos != len(self.buf):
            raise self.error(f"{len(self.buf) - self.pos} trailing bytes at byte {self.pos}")


# -- text files: the dataset manifest and gates, trials, scores ---------------


def _read_rows(path, layout: str, what: str = "", key: int = 0, valid=None) -> list:
    """The rows of a UTF-8 text file, each a list of its tab-separated fields.
    Lines end at "\n"; a "\r" before it is dropped. A row without the columns
    of ``layout`` or that ``valid`` rejects (returns false or raises
    ValueError), a row whose first ``key`` fields repeat an earlier row's,
    and a file with no rows are FormatErrors naming the file and, for a row,
    its line."""
    blob = Path(path).read_bytes()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 at byte {e.start} (0x{blob[e.start]:02x})") from None
    if not text:
        raise FormatError(f"{path}: no rows, expected '{layout}'")
    width = layout.count("<TAB>") + 1
    rows, first = [], {}
    try:
        for lineno, line in enumerate(text.replace("\r\n", "\n").removesuffix("\n").split("\n"), 1):
            row = line.split("\t")
            if len(row) != width or valid is not None and not valid(row):
                raise ValueError
            if key and first.setdefault(k := tuple(row[:key]), lineno) != lineno:
                raise FormatError(f"{path}:{lineno}: duplicate {what} ({', '.join(k)}), first on line {first[k]}")
            rows.append(row)
    except ValueError:
        raise FormatError(f"{path}:{lineno}: expected '{layout}'") from None
    return rows


def _write_rows(path, rows, what: str = "", key: int = 0) -> None:
    """Write a list of rows of string fields, one tab-joined line each. No
    rows, a field holding a tab or a line break, one that is not valid
    Unicode and a row whose first ``key`` fields repeat an earlier row's are
    refused before the file is opened, so every file written reads back
    through _read_rows (given the same ``what`` and ``key``) as the same
    rows."""
    if not rows:
        raise DataError(f"{path}: refusing to write a file with no rows")
    if key:
        # Sorted whole, rows that share their first key fields are neighbours.
        # A set of keys would build an object per row: for gen-data's 39k
        # trials that left the heap 4 MB larger.
        repeated = next((a[:key] for a, b in pairwise(sorted(rows)) if a[:key] == b[:key]), None)
        if repeated is not None:
            raise DataError(f"{path}: refusing to write a repeated {what} ({', '.join(repeated)})")
    text = "".join(["\t".join(row) + "\n" for row in rows])
    if text.count("\t") + text.count("\n") != sum(map(len, rows)) or "\r" in text:  # a row of n fields has n breaks
        field = next(f for row in rows for f in row if "\t" in f or "\n" in f or "\r" in f)
        raise DataError(f"{path}: refusing to write a field holding a tab or line break: {field!r}")
    Path(path).write_bytes(_encode(path, text, (f for row in rows for f in row)))


def _encode(path, text: str, fields) -> bytes:
    """text as UTF-8. A lone surrogate cannot be encoded: the error names the
    first of ``fields``, the strings text is made of, that holds one."""
    try:
        return text.encode()
    except UnicodeEncodeError as e:
        bad = e.object[e.start]
        field = next(f for f in fields if bad in f)
        raise DataError(f"{path}: refusing to write a string that is not valid Unicode: {field!r}") from None


def write_features(path, features: np.ndarray) -> None:
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or 0 in feats.shape:
        raise DataError(f"{path}: refusing to write features of shape {feats.shape}, expected T x d with T, d >= 1")
    _write_binary(path, FEATURE_MAGIC, struct.pack("<II", *feats.shape), _float32(feats))


def read_features(path) -> np.ndarray:
    r = _BinaryReader(path, FEATURE_MAGIC, "a feature file")
    t, d = r.take("<II", "header")
    if t < 1 or d < 1:
        raise r.error(f"degenerate shape {t} x {d} in header at byte 4")
    feats = r.take_array("<f4", t * d, "features")
    r.finish()
    return feats.astype(np.float32).reshape(t, d)


def write_embeddings(path, embeddings: dict) -> None:
    """Write utt_id -> vector pairs; float32 on disk like the features."""
    ids = [_encode(path, utt_id, [utt_id]) for utt_id in embeddings]
    if max(map(len, ids), default=0) > 0xFFFF:
        raise DataError(f"{path}: an utterance id is longer than the 65535 bytes the format allows")
    vectors = [_float32(np.asarray(vec, dtype=np.float64)) for vec in embeddings.values()]
    for utt_id, v in zip(embeddings, vectors):
        if v.size != vectors[0].size:
            raise DataError(f"{path}: refusing to write vector {utt_id!r} of {v.size} values, "
                            f"the first has {vectors[0].size}")
    parts = [struct.pack("<I", len(embeddings))]
    for raw, v in zip(ids, vectors):
        parts += [struct.pack("<H", len(raw)), raw, struct.pack("<I", v.size), v]
    _write_binary(path, EMBEDDING_MAGIC, *parts)


def read_embeddings(path) -> dict:
    r = _BinaryReader(path, EMBEDDING_MAGIC, "an embeddings file")
    (count,) = r.take("<I", "header")
    out = {}
    first_dim = None
    for _ in range(count):
        (id_len,) = r.take("<H", "id length")
        at = r.pos
        utt_id = r.take_text(id_len, "id")
        if utt_id in out:
            raise r.error(f"duplicate id {utt_id!r} at byte {at}")
        at = r.pos
        (dim,) = r.take("<I", "vector length")
        if first_dim not in (None, dim):
            raise r.error(f"vector {utt_id!r} at byte {at} has {dim} values, the first record has {first_dim}")
        first_dim = dim
        out[utt_id] = r.take_array("<f4", dim, "vector").astype(np.float64)
    r.finish()
    return out


# -- dataset directories -----------------------------------------------------


def _drawn_ahead(utterances):
    """The utterances in order, drawn in blocks that hold WRITE_AHEAD_BYTES
    of features or more, and dropped block by block. On a 2-vCPU Xeon,
    drawing an utterance (many small NumPy calls) right after writing one (a
    file creation) ran about a third slower than drawing a block in a row,
    and gen-data 7-20% slower."""
    block, size = [], 0
    for utt in utterances:
        block.append(utt)
        size += utt.features.nbytes
        if size >= WRITE_AHEAD_BYTES:
            yield from block
            block, size = [], 0
    yield from block


def write_dataset(utterances, out_dir) -> list:
    """Write each utterance's features under out_dir, then the manifest and
    the gate sidecar, so that a manifest names only files already written.
    The features held at a time are one block of WRITE_AHEAD_BYTES or more
    (see _drawn_ahead), whatever the number of utterances. A manifest and
    gates left by an earlier write go first. A repeated utterance id, and a
    gate that load_dataset would reject, are refused before the utterance's
    features are written. Returns the (utt_id, speaker) pairs written, in
    order."""
    out = Path(out_dir)
    for name in ("manifest.tsv", "gates.tsv"):
        (out / name).unlink(missing_ok=True)
    manifest, gates, ids = [], [], set()
    for utt in _drawn_ahead(utterances):
        if utt.utt_id in ids:
            raise DataError(f"{out / 'manifest.tsv'}: refusing to write a repeated utterance id ({utt.utt_id})")
        ids.add(utt.utt_id)
        gate = None if utt.gate is None else np.asarray(utt.gate)
        if gate is not None and gate.shape != (utt.num_frames,):
            raise DataError(f"{out / 'gates.tsv'}: refusing to write a gate of shape {gate.shape} "
                            f"for {utt.utt_id}, which has {utt.num_frames} frames")
        if gate is not None and not ((gate == 0) | (gate == 1)).all():
            raise DataError(f"{out / 'gates.tsv'}: refusing to write a gate value other than 0 or 1 for {utt.utt_id}")
        if not manifest:
            (out / "feats").mkdir(parents=True, exist_ok=True)
        rel = f"feats/{utt.utt_id}.xvf"
        write_features(out / rel, utt.features)
        manifest.append((utt.utt_id, utt.speaker, rel))
        if gate is not None:
            # "0" and "1" are bytes 48 and 49
            gates.append((utt.utt_id, (gate + 48).astype(np.uint8).tobytes().decode()))
    _write_rows(out / "manifest.tsv", manifest)
    if gates:
        _write_rows(out / "gates.tsv", gates)
    return [(utt_id, speaker) for utt_id, speaker, _ in manifest]


def load_dataset(manifest_path) -> Dataset:
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
        rows = _read_rows(gate_path, "utt_id<TAB>0/1 string", "utterance id", key=1,
                          valid=lambda row: set(row[1]) <= {"0", "1"})
        gates = {utt_id: np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0") for utt_id, bits in rows}
    utterances = []
    rows = _read_rows(path, "utt_id<TAB>speaker<TAB>path", "utterance id", key=1,
                      valid=lambda row: "\0" not in row[2])  # no file system takes a NUL in a path
    for lineno, (utt_id, speaker, rel) in enumerate(rows, 1):
        try:
            feats = read_features(root / rel)
        except OSError as e:
            raise DataError(f"{path}:{lineno}: cannot read {root / rel}: {e.strerror}") from None
        if utterances and feats.shape[1] != utterances[0].features.shape[1]:
            raise DataError(f"{path}:{lineno}: {rel} has {feats.shape[1]} feature columns, "
                            f"line 1 has {utterances[0].features.shape[1]}")
        gate = gates.get(utt_id)
        if gate is not None and gate.shape[0] != feats.shape[0]:
            gate_line = list(gates).index(utt_id) + 1  # _read_rows keeps one row per line, in order
            raise DataError(f"{gate_path}:{gate_line}: {gate.shape[0]} gate values for {utt_id}, "
                            f"but {rel} ({path}:{lineno}) has {feats.shape[0]} frames")
        utterances.append(Utterance(utt_id, speaker, feats, gate.astype(np.int8) if gate is not None else None))
    return Dataset.from_utterances(utterances)


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
    the seed. chunk_len and batch_size come checked, from a TrainConfig.
    """
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
