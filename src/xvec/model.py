"""The full x-vector network: frame-level TDNN, pooling, utterance-level
classifier, plus checkpoint serialization.

Frame layers are splice + affine + leaky ReLU + batch norm blocks; the
pooled vector feeds affine + leaky ReLU utterance blocks and a softmax
classifier. Utterance blocks carry no batch norm because inference sees a
single pooled vector. The speaker embedding is the pre-activation output of
a configurable utterance-level affine.

Training forwards a whole batch of equal-length chunks at once so that
batch norm statistics cover every frame in the batch; splicing and pooling
still treat each chunk separately, and pooling is one call for the whole
batch in each direction. That batched forward and its backward are the
only training path: the gradient checker runs them on a batch of one
chunk.

Inference processes one utterance per forward call through an
InferencePlan and pools it as a batch of one through the same pooling
call. With frozen running statistics a batch norm is a per-column affine
map, and splicing only gathers columns, so each batch norm that feeds
another affine (the next frame block's, the compatibility net's) is folded
into that affine's weights. The two batch norms that feed pooling,
on the values and on the compatibility output, still run as batch norms:
the variance floor and the softmax are not affine.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import from_json
from .data import _BinaryReader, _write_binary
from .errors import ConfigError, DataError, FormatError
from .nn import Affine, BatchNorm, LeakyReLU, Parameter, Softmax, Splice, as_matrix
from .pooling import CompatibilityNet, MultiHeadPool, StatsPool

POOLING_KINDS = ("stats", "attention", "multihead")

CHECKPOINT_MAGIC = b"XVM1"


@dataclass
class FrameLayerSpec:
    offsets: tuple[int, ...]
    width: int


@dataclass
class ModelConfig:
    """Architecture description; see validate() for the invariants."""

    input_dim: int
    frame_layers: tuple[FrameLayerSpec, ...]
    pooling: str = "stats"
    key_layer: int = 0  # 1-based; 0 means "last layer"
    compat: list[int] = field(default_factory=list)  # widths, last entry is d_q
    heads: int = 1
    utterance_layers: list[int] = field(default_factory=lambda: [512])
    num_speakers: int = 2
    embedding_tap: int = 0

    @property
    def num_frame_layers(self) -> int:
        return len(self.frame_layers)

    @property
    def value_dim(self) -> int:
        return self.frame_layers[-1].width

    @property
    def query_dim(self) -> int:
        return self.compat[-1] if self.compat else 0

    @property
    def effective_key_layer(self) -> int:
        return self.key_layer if self.key_layer else self.num_frame_layers

    @property
    def effective_heads(self) -> int:
        return self.heads if self.pooling == "multihead" else 1

    def validate(self) -> None:
        if self.input_dim < 1:
            raise ConfigError(f"input_dim: must be >= 1, got {self.input_dim}")
        if not self.frame_layers:
            raise ConfigError("frame_layers: at least one layer is required")
        for i, spec in enumerate(self.frame_layers):
            if spec.width < 1:
                raise ConfigError(f"frame_layers[{i}].width: must be >= 1, got {spec.width}")
            Splice(spec.offsets)  # validates ordering and the 0 offset
        if self.pooling not in POOLING_KINDS:
            raise ConfigError(f"pooling: must be one of {POOLING_KINDS}, got '{self.pooling}'")
        if not self.utterance_layers or any(w < 1 for w in self.utterance_layers):
            raise ConfigError("utterance_layers: need one or more positive widths")
        if self.num_speakers < 2:
            raise ConfigError(f"num_speakers: must be >= 2, got {self.num_speakers}")
        if not 0 <= self.embedding_tap < len(self.utterance_layers):
            raise ConfigError(
                f"embedding_tap: must be in [0, {len(self.utterance_layers)}), got {self.embedding_tap}"
            )
        if self.pooling != "stats":
            if not 0 <= self.key_layer <= self.num_frame_layers:
                raise ConfigError(
                    f"key_layer: must be in [1, {self.num_frame_layers}], got {self.key_layer}"
                )
            if not self.compat or any(w < 1 for w in self.compat):
                raise ConfigError("compat: attention pooling needs one or more positive widths")
        if self.pooling == "attention" and self.heads != 1:
            raise ConfigError(f"heads: attention pooling is single-head, got {self.heads}")
        if self.pooling == "multihead":
            if self.heads < 1:
                raise ConfigError(f"heads: must be >= 1, got {self.heads}")
            if self.value_dim % self.heads != 0:
                raise ConfigError(
                    f"heads: {self.heads} does not divide the value dimension {self.value_dim}"
                )
            if self.query_dim % self.heads != 0:
                raise ConfigError(
                    f"heads: {self.heads} does not divide the query dimension {self.query_dim}"
                )


@dataclass
class ForwardTrace:
    """What one forward pass produced. A train-mode forward reports only
    the posteriors."""

    posteriors: np.ndarray  # 1 x K
    # per frame block, the leaky ReLU output before the block's batch norm
    # (the plan folds that batch norm into the next affine)
    frame_activations: list = field(default_factory=list)
    values: np.ndarray | None = None  # the last block's batch-normed output, what pooling reads
    pooled: np.ndarray | None = None
    utterance_preactivations: list = field(default_factory=list)
    attention: np.ndarray | None = None  # h x T weights, None for stats pooling


def _fold(bn: BatchNorm, affine: Affine) -> Affine:
    """affine(x) on x = bn(h) spliced, as one affine map of h spliced.

    In inference mode bn(h) = h * s + c per column, and splicing copies
    columns, so affine's input is h spliced times tile(s) plus tile(c), one
    copy per splice offset.
    """
    s = bn.gamma.value * (1.0 / np.sqrt(bn.running_var + bn.epsilon))
    c = bn.beta.value - bn.running_mean * s
    copies = affine.din // bn.dim
    w = affine.weight.value
    return Affine(Parameter(affine.weight.name, w * np.tile(s, copies)),
                  Parameter(affine.bias.name, affine.bias.value + w @ np.tile(c, copies)))


@dataclass
class InferencePlan:
    """The inference layers of a Model with batch norm folded in, built by
    Model.inference_plan from the parameters of that moment."""

    frame: list  # (Splice, Affine, LeakyReLU) per frame block
    values_bn: BatchNorm  # the last frame block's batch norm
    compat: list = field(default_factory=list)  # (Affine, LeakyReLU) per compat block
    compat_bn: BatchNorm | None = None  # the last compat block's batch norm


class _FrameBlock:
    def __init__(self, splice: Splice, affine: Affine, act: LeakyReLU, bn: BatchNorm):
        self.splice = splice
        self.affine = affine
        self.act = act
        self.bn = bn

    def parameters(self) -> list[Parameter]:
        return self.affine.parameters() + self.bn.parameters()


class Model:
    """x-vector network instance holding all trainable state."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        config.validate()
        self.config = config
        self.frame_blocks = []
        din = config.input_dim
        for i, spec in enumerate(config.frame_layers):
            splice = Splice(spec.offsets)
            affine = Affine.build(rng, din * splice.width_multiplier, spec.width, f"frame{i}")
            self.frame_blocks.append(_FrameBlock(splice, affine, LeakyReLU(), BatchNorm.build(spec.width, f"frame{i}.bn")))
            din = spec.width

        if config.pooling == "stats":
            self.pool = StatsPool()
        else:
            key_dim = config.frame_layers[config.effective_key_layer - 1].width
            net = CompatibilityNet.build(rng, key_dim, config.compat)
            d_q = net.out_dim
            query = Parameter("query", rng.normal(0.0, np.sqrt(1.0 / d_q), size=d_q))
            self.pool = MultiHeadPool(net, query, config.effective_heads)

        self.utt_affines = []
        self.utt_acts = []
        uin = 2 * config.value_dim
        for i, width in enumerate(config.utterance_layers):
            self.utt_affines.append(Affine.build(rng, uin, width, f"utt{i}"))
            self.utt_acts.append(LeakyReLU())
            uin = width
        self.classifier = Affine.build(rng, uin, config.num_speakers, "classifier")
        self.softmax = Softmax()

    # -- parameter bookkeeping ------------------------------------------------

    def parameter_groups(self) -> dict:
        groups = {"theta_f": [], "theta_k": [], "query": [], "theta_u": []}
        for block in self.frame_blocks:
            groups["theta_f"].extend(block.parameters())
        if isinstance(self.pool, MultiHeadPool):
            groups["theta_k"].extend(self.pool.net.parameters())
            groups["query"].append(self.pool.query)
        for affine in self.utt_affines:
            groups["theta_u"].extend(affine.parameters())
        groups["theta_u"].extend(self.classifier.parameters())
        return groups

    def parameters(self) -> list[Parameter]:
        groups = self.parameter_groups()
        return groups["theta_f"] + groups["theta_k"] + groups["query"] + groups["theta_u"]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def state_arrays(self) -> list:
        """(name, array) pairs in the fixed order used by checkpoints."""
        out = []
        for i, block in enumerate(self.frame_blocks):
            out.append((f"frame{i}.weight", block.affine.weight.value))
            out.append((f"frame{i}.bias", block.affine.bias.value))
            out.append((f"frame{i}.bn.gamma", block.bn.gamma.value))
            out.append((f"frame{i}.bn.beta", block.bn.beta.value))
            out.append((f"frame{i}.bn.running_mean", block.bn.running_mean))
            out.append((f"frame{i}.bn.running_var", block.bn.running_var))
        if isinstance(self.pool, MultiHeadPool):
            for i, (affine, _, bn) in enumerate(self.pool.net.blocks):
                out.append((f"compat{i}.weight", affine.weight.value))
                out.append((f"compat{i}.bias", affine.bias.value))
                out.append((f"compat{i}.bn.gamma", bn.gamma.value))
                out.append((f"compat{i}.bn.beta", bn.beta.value))
                out.append((f"compat{i}.bn.running_mean", bn.running_mean))
                out.append((f"compat{i}.bn.running_var", bn.running_var))
            out.append(("query", self.pool.query.value))
        for i, affine in enumerate(self.utt_affines):
            out.append((f"utt{i}.weight", affine.weight.value))
            out.append((f"utt{i}.bias", affine.bias.value))
        out.append(("classifier.weight", self.classifier.weight.value))
        out.append(("classifier.bias", self.classifier.bias.value))
        return out

    # -- forward / backward ---------------------------------------------------

    def inference_plan(self) -> InferencePlan:
        """Fold each batch norm that feeds an affine into that affine; see
        the module docstring. The plan copies the weights, so it goes stale
        when a parameter or running statistic changes: build a new one."""
        blocks = self.frame_blocks
        frame = [(blocks[0].splice, blocks[0].affine, blocks[0].act)]
        for prev, block in zip(blocks, blocks[1:]):
            frame.append((block.splice, _fold(prev.bn, block.affine), block.act))
        if isinstance(self.pool, StatsPool):
            return InferencePlan(frame, blocks[-1].bn)
        compat = []
        bn = blocks[self.config.effective_key_layer - 1].bn
        for affine, act, next_bn in self.pool.net.blocks:
            compat.append((_fold(bn, affine), act))
            bn = next_bn
        return InferencePlan(frame, blocks[-1].bn, compat, bn)

    def forward(self, features: np.ndarray, train: bool = False,
                plan: InferencePlan | None = None) -> ForwardTrace:
        """Forward one T x d utterance.

        Inference (train=False) runs ``plan``, by default one built for this
        call; a loop over utterances builds it once with inference_plan()
        and passes it in, which changes no result. train=True runs
        forward_batch on a batch of this one chunk: batch norm uses the
        chunk's own frame statistics and updates the running ones.
        """
        x = as_matrix(features)
        if x.shape[1] != self.config.input_dim:
            raise DataError(
                f"features have {x.shape[1]} columns, model expects {self.config.input_dim}"
            )
        if train:
            return ForwardTrace(self.forward_batch(x[None], train=True)[0])
        if plan is None:
            plan = self.inference_plan()
        frame_acts = []
        h = x
        for splice, affine, act in plan.frame:
            h = act.forward(affine.forward(splice.forward(h)))
            frame_acts.append(h)
        values = plan.values_bn.forward(h)
        attention = None
        if isinstance(self.pool, StatsPool):
            pooled, _ = self.pool.pool(values[None])
        else:
            # the key block's batch norm is folded into plan.compat[0]
            c = frame_acts[self.config.effective_key_layer - 1]
            for affine, act in plan.compat:
                c = act.forward(affine.forward(c))
            pooled, (attention,), _ = self.pool.pool_from_compat(values[None], plan.compat_bn.forward(c)[None])
        z = pooled
        preacts = []
        for affine, act in zip(self.utt_affines, self.utt_acts):
            z = affine.forward(z)
            preacts.append(z[0].copy())
            z = act.forward(z)
        posteriors = self.softmax.forward(self.classifier.forward(z))
        return ForwardTrace(posteriors, frame_acts, values, pooled[0], preacts, attention)

    def forward_batch(self, chunks: np.ndarray, train: bool = True):
        """Forward a (B, T, d) stack of equal-length chunks as one batch.

        Batch norm statistics run over all B*T frames together; splicing and
        pooling stay per chunk, and one pooling call covers the batch.
        Returns (posteriors (B, K), cache); hand the cache back to
        backward_batch.
        """
        x = np.asarray(chunks, dtype=np.float64)
        if x.ndim != 3:
            raise DataError(f"batch must be 3-D (B, T, d), got shape {x.shape}")
        if x.shape[2] != self.config.input_dim:
            raise DataError(
                f"batch features have {x.shape[2]} columns, model expects {self.config.input_dim}"
            )
        b, t, _ = x.shape
        key_idx = self.config.effective_key_layer - 1
        attention = not isinstance(self.pool, StatsPool)
        h = x
        keys_flat = None
        for i, block in enumerate(self.frame_blocks):
            spliced = block.splice.forward_batch(h, train)
            flat = spliced.reshape(b * t, spliced.shape[2])
            flat = block.bn.forward(block.act.forward(block.affine.forward(flat, train), train), train)
            h = flat.reshape(b, t, flat.shape[1])
            if attention and i == key_idx:
                keys_flat = flat
        if attention:
            compat = self.pool.net.forward(keys_flat, train)
            z, _, pool_cache = self.pool.pool_from_compat(h, compat.reshape(b, t, compat.shape[1]))
        else:
            z, pool_cache = self.pool.pool(h)
        for affine, act in zip(self.utt_affines, self.utt_acts):
            z = act.forward(affine.forward(z, train), train)
        posteriors = self.softmax.forward(self.classifier.forward(z, train), train)
        return posteriors, pool_cache

    def backward_batch(self, d_posteriors: np.ndarray, cache) -> np.ndarray:
        """Backpropagate one batched forward; accumulates parameter gradients
        and returns the gradient w.r.t. the (B, T, d) input."""
        g = self.softmax.backward(d_posteriors)
        g = self.classifier.backward(g)
        for affine, act in zip(reversed(self.utt_affines), reversed(self.utt_acts)):
            g = affine.backward(act.backward(g))
        d_keys_flat = None
        if isinstance(self.pool, StatsPool):
            d_values = self.pool.pool_backward(cache, g)
        else:
            d_values, d_compat = self.pool.backward_from_compat(cache, g)
            d_keys_flat = self.pool.net.backward(d_compat.reshape(-1, d_compat.shape[2]))
        b, t, d_v = d_values.shape
        key_idx = self.config.effective_key_layer - 1
        g_flat = d_values.reshape(b * t, d_v)
        for layer in reversed(range(len(self.frame_blocks))):
            if d_keys_flat is not None and layer == key_idx:
                g_flat = g_flat + d_keys_flat
            block = self.frame_blocks[layer]
            g_flat = block.affine.backward(block.act.backward(block.bn.backward(g_flat)))
            g3 = block.splice.backward_batch(g_flat.reshape(b, t, g_flat.shape[1]))
            g_flat = g3.reshape(b * t, g3.shape[2])
        return g_flat.reshape(b, t, g_flat.shape[1])

    def extract_embedding(self, features: np.ndarray, plan: InferencePlan | None = None) -> np.ndarray:
        """Inference-mode speaker embedding: the pre-activation output of the
        utterance-level affine selected by embedding_tap."""
        trace = self.forward(features, plan=plan)
        return trace.utterance_preactivations[self.config.embedding_tap]


def build_model(config: ModelConfig, seed: int) -> Model:
    """Deterministically initialize a model from a seed."""
    return Model(config, np.random.default_rng(seed))


# -- checkpoint I/O ------------------------------------------------------------


def save_model(model: Model, path) -> None:
    config_blob = json.dumps(asdict(model.config), sort_keys=True, separators=(",", ":")).encode()
    parts = [struct.pack("<Q", len(config_blob)), config_blob]
    for _, array in model.state_arrays():
        flat = np.ascontiguousarray(array, dtype="<f8").ravel()
        parts += [struct.pack("<Q", flat.size), flat]
    _write_binary(path, CHECKPOINT_MAGIC, *parts)


def load_model(path) -> Model:
    r = _BinaryReader(path, CHECKPOINT_MAGIC, "a model checkpoint")
    (config_len,) = r.take("<Q", "header")
    at = r.pos
    try:
        config = from_json(ModelConfig, json.loads(r.take_text(config_len, "config")), f"{path}: config")
    except (ValueError, RecursionError) as e:  # bad JSON, or nested too deep
        raise r.error(f"invalid config JSON at byte {at}: {e}") from e
    except ConfigError as e:
        raise FormatError(f"{e} (config at byte {at})") from e
    model = build_model(config, seed=0)
    for name, array in model.state_arrays():
        at = r.pos
        (count,) = r.take("<Q", f"count for {name}")
        if count != array.size:
            raise r.error(f"tensor {name} has {count} elements, expected {array.size} (count at byte {at})")
        array[...] = r.take_array("<f8", count, f"tensor {name}").reshape(array.shape)
    r.finish()
    return model
