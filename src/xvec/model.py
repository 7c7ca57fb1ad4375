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
map, h * s + c, and splicing only gathers columns, so each batch norm that
feeds another affine (the next frame block's, the compatibility net's) is
folded into that affine's weights. The two that feed pooling run on no
frame either. Pooling reads the last frame block before its batch norm: a
weighted mean moves with the map, so the values batch norm runs on the
pooled mean alone, and a weighted variance scales by s**2, which the plan
applies before the variance floor. The last compatibility batch norm's
scale multiplies the query, and its shift adds one constant to each head's
logits, which the softmax over frames cancels. A plan holds the folded
affines, the pooling with the folded query and s**2; the model's own
splices and leaky ReLUs run around them.

Neither path allocates its frame-level arrays once warm, apart from the
float64 copy Model.forward makes of float32 features. The model owns a
workspace for forward_batch and backward_batch that keeps only what the
backward pass reads: per block its output, its normalized batch (which
holds the affine result until batch norm writes it there) and its leaky
ReLU mask; and one buffer that every splicing block shares and pooling
then takes as its work array, so the backward pass fills it again for each
splicing block (a last block that splices leaves pooling a work array of
its own: its backward reads both). A plan owns a workspace sized to the
longest utterance it has run: an array per layer, and one per width for
the affine results its leaky ReLUs read. Each layer writes its result into
a buffer of its workspace. A block's input gradient overwrites the block's
input, which only its weight gradient still reads. What a call hands back
(posteriors, embeddings, ForwardTrace fields) is a new array, never a view
of a workspace.

The two workspaces are never held at once: training drops the model's
(release_workspace) before each per-epoch accuracy sweep, whose plan then
fills its own, so a run's peak is the larger of the two, not their sum.
The first step of the next epoch allocates the workspace again; that step
took 4-32 ms longer than a warm one at B=32, T=150 on a 2-vCPU Xeon.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import from_json
from .data import _BinaryReader, _write_binary
from .errors import ConfigError, DataError, FormatError
from .nn import (BN_EPSILON, Affine, BatchNorm, LeakyReLU, Parameter, Softmax, Splice, _block_backward,
                 _block_forward, _Workspace, as_matrix)
from .pooling import CompatibilityNet, MultiHeadPool, StatsPool

POOLING_KINDS = ("stats", "attention", "multihead")

CHECKPOINT_MAGIC = b"XVM1"


@dataclass(frozen=True)
class FrameLayerSpec:
    offsets: tuple[int, ...]
    width: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "offsets", tuple(self.offsets))


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description, checked once when built; see __post_init__
    for the invariants."""

    input_dim: int
    frame_layers: tuple[FrameLayerSpec, ...]
    pooling: str = "stats"
    key_layer: int = 0  # 1-based; 0 means "last layer"
    compat: tuple[int, ...] = ()  # widths, last entry is d_q
    heads: int = 1
    utterance_layers: tuple[int, ...] = (512,)
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

    def __post_init__(self) -> None:
        for name in ("frame_layers", "compat", "utterance_layers"):  # a list passed in could change later
            object.__setattr__(self, name, tuple(getattr(self, name)))
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
                    f"key_layer: must be in [0, {self.num_frame_layers}], 0 = the last layer, got {self.key_layer}"
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
    """What one forward pass produced, in arrays of its own. A train-mode
    forward reports only the posteriors."""

    posteriors: np.ndarray  # 1 x K
    pooled: np.ndarray | None = None
    utterance_preactivations: list = field(default_factory=list)
    attention: np.ndarray | None = None  # h x T weights, None for stats pooling


def _scale_shift(bn: BatchNorm):
    """(s, c) of the inference batch norm, bn(h) = h * s + c per column."""
    s = bn.gamma.value * (1.0 / np.sqrt(bn.running_var + BN_EPSILON))
    return s, bn.beta.value - bn.running_mean * s


def _fold(bn: BatchNorm, affine: Affine) -> Affine:
    """affine(x) on x = bn(h) spliced, as one affine map of h spliced.

    Splicing copies columns, so affine's input is h spliced times tile(s)
    plus tile(c), one copy per splice offset.
    """
    s, c = _scale_shift(bn)
    copies = affine.din // bn.dim
    w = affine.weight.value
    return Affine(Parameter(affine.weight.name, w * np.tile(s, copies)),
                  Parameter(affine.bias.name, affine.bias.value + w @ np.tile(c, copies)))


@dataclass
class InferencePlan:
    """Model.inference_plan's folded layers, made from the parameters of
    that moment, and the buffers its forwards reuse, sized to the longest
    utterance seen. Model.forward runs them with the model's own splices
    and leaky ReLUs, and applies the values batch norm to the pooled mean."""

    frame: list  # folded Affine per frame block
    compat: list  # folded Affine per compat block; empty for stats pooling
    pool: StatsPool | MultiHeadPool  # multihead: the query times the last compat batch norm's scale
    var_scale: np.ndarray  # the values batch norm's scale squared, per value column
    workspace: _Workspace = field(default_factory=_Workspace, repr=False)


class _FrameBlock:
    def __init__(self, splice: Splice, affine: Affine, act: LeakyReLU, bn: BatchNorm):
        self.splice = splice
        self.affine = affine
        self.act = act
        self.bn = bn


class Model:
    """x-vector network instance holding all trainable state."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
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
            self.pool = MultiHeadPool(net, query, config.heads)

        self.utt_affines = []
        self.utt_acts = []
        uin = 2 * config.value_dim
        for i, width in enumerate(config.utterance_layers):
            self.utt_affines.append(Affine.build(rng, uin, width, f"utt{i}"))
            self.utt_acts.append(LeakyReLU())
            uin = width
        self.classifier = Affine.build(rng, uin, config.num_speakers, "classifier")
        self.softmax = Softmax()
        # frame-level results and caches of forward_batch/backward_batch
        self._workspace = _Workspace()

    # -- parameter bookkeeping ------------------------------------------------

    def parameter_groups(self) -> dict:
        groups = {"theta_f": [], "theta_k": [], "query": [], "theta_u": []}
        for block in self.frame_blocks:
            groups["theta_f"].extend(block.affine.parameters() + block.bn.parameters())
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
        """(name, array) pairs in the fixed order used by checkpoints: the
        parameters in order, each batch norm's running mean and variance
        right after its beta."""
        norms = [block.bn for block in self.frame_blocks]
        if isinstance(self.pool, MultiHeadPool):
            norms += [bn for _, _, bn in self.pool.net.blocks]
        norm_of_beta = {id(bn.beta): bn for bn in norms}
        out = []
        for p in self.parameters():
            out.append((p.name, p.value))
            if (bn := norm_of_beta.get(id(p))) is not None:
                stem = p.name.removesuffix("beta")
                out += [(f"{stem}running_mean", bn.running_mean), (f"{stem}running_var", bn.running_var)]
        return out

    # -- forward / backward ---------------------------------------------------

    def release_workspace(self) -> None:
        """Drop the arrays of forward_batch and backward_batch; the next
        forward_batch allocates them again. A forward_batch cache does not
        outlive this."""
        self._workspace = _Workspace()

    def inference_plan(self) -> InferencePlan:
        """Fold each batch norm into what it feeds; see the module
        docstring. The plan copies the weights, so it goes stale when a
        parameter or running statistic changes: build a new one."""
        blocks = self.frame_blocks
        frame = [blocks[0].affine] + [_fold(prev.bn, block.affine) for prev, block in zip(blocks, blocks[1:])]
        compat = []
        pool = self.pool
        if isinstance(pool, MultiHeadPool):
            bn = blocks[self.config.effective_key_layer - 1].bn
            for affine, _, next_bn in pool.net.blocks:
                compat.append(_fold(bn, affine))
                bn = next_bn
            # bn's shift adds one constant to each head's logits, which the softmax cancels
            query = Parameter(pool.query.name, _scale_shift(bn)[0] * pool.query.value)
            pool = MultiHeadPool(pool.net, query, pool.heads)
        return InferencePlan(frame, compat, pool, _scale_shift(blocks[-1].bn)[0] ** 2)

    def forward(self, features: np.ndarray, train: bool = False,
                plan: InferencePlan | None = None) -> ForwardTrace:
        """Forward one T x d utterance.

        Inference (train=False) runs ``plan``, by default one built for this
        call; a loop over utterances builds it once with inference_plan()
        and passes it in, which changes no result and reuses the plan's
        buffers. train=True runs forward_batch on a batch of this one chunk:
        batch norm uses the chunk's own frame statistics and updates the
        running ones.
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
        ws = plan.workspace
        t = x.shape[0]
        key_idx = self.config.effective_key_layer - 1
        h = x
        for i, (block, affine) in enumerate(zip(self.frame_blocks, plan.frame)):
            splice, act = block.splice, block.act
            h = splice.forward(h, out=ws((splice, "out"), t, affine.din) if splice.width_multiplier > 1 else None)
            h = act.forward(affine.forward(h, out=ws(("scratch", affine.dout), t, affine.dout)),
                            out=ws((act, "out"), t, affine.dout))
            if i == key_idx:
                keys = h  # its batch norm is folded into plan.compat[0]
        # pooling reads the last block before its batch norm, which moves
        # the weighted mean with it and scales the weighted variance
        attention = None
        d_v = h.shape[1]
        work = ws("work", t, d_v)
        if isinstance(plan.pool, StatsPool):
            pooled, _ = plan.pool.pool(h[None], work, plan.var_scale)
        else:
            c = keys
            for (_, act, _), affine in zip(self.pool.net.blocks, plan.compat):
                c = act.forward(affine.forward(c, out=ws(("scratch", affine.dout), t, affine.dout)),
                                out=ws((act, "out"), t, affine.dout))
            pooled, (attention,), _ = plan.pool.pool_from_compat(h[None], c[None], work, plan.var_scale)
        self.frame_blocks[-1].bn.forward(pooled[:, :d_v], out=pooled[:, :d_v])
        z = pooled
        preacts = []
        for affine, act in zip(self.utt_affines, self.utt_acts):
            z = affine.forward(z)
            preacts.append(z[0].copy())
            z = act.forward(z)
        posteriors = self.softmax.forward(self.classifier.forward(z))
        return ForwardTrace(posteriors, pooled[0], preacts, attention)

    def forward_batch(self, chunks: np.ndarray, train: bool = True):
        """Forward a (B, T, d) stack of equal-length chunks as one batch.

        Batch norm statistics run over all B*T frames together; splicing and
        pooling stay per chunk, and one pooling call covers the batch.
        Returns (posteriors (B, K), cache); hand the cache back to
        backward_batch. Frame-level results and caches live in the model's
        workspace, so a call overwrites the previous call's; the posteriors
        are a new array.
        """
        x = np.asarray(chunks, dtype=np.float64)
        if x.ndim != 3:
            raise DataError(f"batch must be 3-D (B, T, d), got shape {x.shape}")
        if x.shape[2] != self.config.input_dim:
            raise DataError(
                f"batch features have {x.shape[2]} columns, model expects {self.config.input_dim}"
            )
        b, t, _ = x.shape
        ws = self._workspace
        key_idx = self.config.effective_key_layer - 1
        d_v = self.config.value_dim
        h = x
        # One buffer serves every block that splices, then pooling as its
        # work array; backward_batch splices again into it what each block
        # needs. A last block that splices reads its splice and the value
        # gradient at once, so then pooling has a work array of its own.
        splicing = [block.affine.din for block in self.frame_blocks if block.splice.width_multiplier > 1]
        shared = self.frame_blocks[-1].splice.width_multiplier == 1
        buffer = ws("spliced", b * t, max(splicing + ([d_v] if shared else []))).reshape(-1)
        frames = []  # per block: its (B, T, d) input, its splice buffer or None, its affine's input
        keys_flat = compat = None
        for i, block in enumerate(self.frame_blocks):
            cols = block.affine.din
            out = None
            if block.splice.width_multiplier > 1:
                out = buffer[: b * t * cols].reshape(b, t, cols)
            spliced = block.splice.forward_batch(h, out).reshape(b * t, cols)
            frames.append((h, out, spliced))
            flat = _block_forward(block.affine, block.act, block.bn, spliced, train, ws)
            h = flat.reshape(b, t, flat.shape[1])
            if i == key_idx:
                keys_flat = flat
        work = buffer[: b * t * d_v].reshape(b * t, d_v) if shared else ws("work", b * t, d_v)
        if isinstance(self.pool, StatsPool):
            z, pool_cache = self.pool.pool(h, work)
        else:
            compat = self.pool.net.forward(keys_flat, train, ws)
            z, _, pool_cache = self.pool.pool_from_compat(h, compat.reshape(b, t, compat.shape[1]), work)
        for affine, act in zip(self.utt_affines, self.utt_acts):
            z = act.forward(affine.forward(z, train), train)
        posteriors = self.softmax.forward(self.classifier.forward(z, train), train)
        return posteriors, (pool_cache, frames, compat)

    def backward_batch(self, d_posteriors: np.ndarray, cache) -> None:
        """Backpropagate one batched forward and accumulate the parameter
        gradients; the input gradient is not computed. Each frame block's
        input gradient overwrites that block's input in the workspace: only
        the block's own weight gradient reads it after the pooling and
        compatibility net backward passes. The blocks that splice share one
        buffer, which pooling may have used since, so each splices its input
        into it again before its weight gradient reads it."""
        pool_cache, frames, compat = cache
        g = self.softmax.backward(d_posteriors)
        g = self.classifier.backward(g)
        for affine, act in zip(reversed(self.utt_affines), reversed(self.utt_acts)):
            g = affine.backward(act.backward(g))
        ws = self._workspace
        d_keys_flat = None
        if isinstance(self.pool, StatsPool):
            d_values = self.pool.pool_backward(pool_cache, g)
        else:
            # d_compat overwrites the compatibility outputs, which nothing reads after
            d_values, d_compat = self.pool.backward_from_compat(pool_cache, g, out=compat)
            d_keys_flat = self.pool.net.backward(d_compat.reshape(compat.shape), ws)
        b, t, d_v = d_values.shape
        key_idx = self.config.effective_key_layer - 1
        g_flat = d_values.reshape(b * t, d_v)
        for layer in reversed(range(len(self.frame_blocks))):
            if d_keys_flat is not None and layer == key_idx:
                g_flat += d_keys_flat
            block = self.frame_blocks[layer]
            h, buffer, spliced = frames[layer]
            if buffer is not None:
                block.splice.forward_batch(h, out=buffer)
            # frame0's input gradient would be thrown away
            g_flat = _block_backward(block.affine, block.act, block.bn, g_flat, ws, spliced, input_grad=layer > 0)
            if layer:
                g_flat = block.splice.backward_batch(g_flat.reshape(b, t, spliced.shape[1]), out=h).reshape(b * t, -1)

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
