"""Training loop, optimizers and the finite-difference gradient checker.

Each utterance contributes one random chunk per epoch. A batch of chunks
is forwarded and backpropagated as one (batch norm statistics span the
batch, pooling and the loss stay per chunk); the loss, and so the gradient,
is the mean over the chunks.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .data import Dataset, make_batches
from .errors import ConfigError, DataError, TrainingError
from .model import Model, save_model
from .nn import cross_entropy, cross_entropy_backward

log = logging.getLogger(__name__)

OPTIMIZERS = ("adam", "sgd_momentum")


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    momentum: float = 0.9
    weight_decay: float = 0.0
    clip_norm: float = 5.0  # global grad norm cap, 0 disables
    batch_size: int = 32
    chunk_len: int = 150
    epochs: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer: must be one of {OPTIMIZERS}, got '{self.optimizer}'")
        if self.lr < 0:
            raise ConfigError(f"lr: must be >= 0, got {self.lr}")
        for name in ("beta1", "beta2", "momentum"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ConfigError(f"{name}: must be in [0, 1), got {v}")
        if self.adam_eps <= 0:
            raise ConfigError(f"adam_eps: must be > 0, got {self.adam_eps}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay: must be >= 0, got {self.weight_decay}")
        if self.clip_norm < 0:
            raise ConfigError(f"clip_norm: must be >= 0, got {self.clip_norm}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: must be >= 1, got {self.batch_size}")
        if self.chunk_len < 2:  # train-mode batch norm needs two frames to normalize
            raise ConfigError(f"chunk_len: must be >= 2, got {self.chunk_len}")
        if self.epochs < 1:
            raise ConfigError(f"epochs: must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")


class Optimizer:
    """Adam or SGD-with-momentum over fixed named parameter groups, with
    optional global gradient-norm clipping and decoupled-from-nothing plain
    L2 decay folded into the gradient. ``t`` counts the steps taken."""

    def __init__(self, groups: dict, cfg: TrainConfig):
        self.groups = groups
        self.params = [p for params in groups.values() for p in params]
        self.cfg = cfg
        self.t = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> dict:
        """Apply one update, or refuse a non-finite gradient before any
        parameter changes. Returns what the step measured: the pre-clip
        global gradient norm, that of each group (0.0 for an empty one) and
        whether the clip applied."""
        cfg = self.cfg
        for group, params in self.groups.items():
            for p in params:
                if not np.all(np.isfinite(p.grad)):
                    raise TrainingError(f"non-finite gradient in group '{group}' ({p.name}) at step {self.t + 1}")
        if cfg.weight_decay > 0:
            for p in self.params:
                p.grad += cfg.weight_decay * p.value
        squares = {group: [float(np.sum(p.grad * p.grad)) for p in params] for group, params in self.groups.items()}
        total = 0.0  # one square at a time, in parameter order: train_log.jsonl's bytes depend on the order
        for square in chain.from_iterable(squares.values()):
            total += square
        norm = float(np.sqrt(total))
        group_norms = {f"grad_norm_{group}": float(np.sqrt(np.sum(sq))) for group, sq in squares.items()}
        clipped = 0.0 < cfg.clip_norm < norm
        if clipped:
            scale = cfg.clip_norm / norm
            for p in self.params:
                p.grad *= scale
        self.t += 1
        if cfg.optimizer == "adam":
            bc1 = 1.0 - cfg.beta1**self.t
            bc2 = 1.0 - cfg.beta2**self.t
            for p, m, v in zip(self.params, self._m, self._v):
                m *= cfg.beta1
                m += (1.0 - cfg.beta1) * p.grad
                v *= cfg.beta2
                v += (1.0 - cfg.beta2) * p.grad * p.grad
                p.value -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps)
        else:
            for p, m in zip(self.params, self._m):
                m *= cfg.momentum
                m += p.grad
                p.value -= cfg.lr * m
        return {"grad_norm": norm, **group_norms, "clipped": clipped}


def _backprop(model: Model, features: np.ndarray, labels, where: str) -> float:
    """Zero the gradients, forward the batch in training mode and
    backpropagate the mean cross entropy over its chunks, which must be
    finite (else the error names ``where``). Returns that loss."""
    model.zero_grad()
    labels = np.asarray(labels)
    posteriors, cache = model.forward_batch(features, train=True)
    loss = float(cross_entropy(posteriors, labels))
    if not np.isfinite(loss):
        raise TrainingError(f"non-finite loss {where}")
    model.backward_batch(cross_entropy_backward(posteriors, labels), cache)
    return loss


def train_step(model: Model, optimizer: Optimizer, features: np.ndarray, labels: np.ndarray) -> tuple[float, dict]:
    """One batched forward/backward (batch norm statistics span the whole
    batch, losses and pooling stay per chunk) and one optimizer update.
    Returns the mean cross entropy over the chunks and what the update
    measured (Optimizer.step)."""
    loss = _backprop(model, features, labels, f"at step {optimizer.t + 1}")
    return loss, optimizer.step()


@dataclass
class TrainReport:
    step_losses: list = field(default_factory=list)
    epoch_accuracies: list = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def final_loss(self) -> float:
        return self.step_losses[-1] if self.step_losses else float("nan")


def classification_accuracy(model: Model, dataset: Dataset) -> float:
    """Fraction of utterances whose full-length posterior argmax matches the
    speaker label; inference mode, no chunking. Finite weights can still
    overflow (see Model.forward): a posterior row that is not finite is a
    TrainingError."""
    correct = 0
    plan = model.inference_plan()
    for utt in dataset.utterances:
        posteriors = model.forward(utt.features, plan=plan).posteriors[0]
        if not np.isfinite(posteriors).all():
            raise TrainingError(f"the posteriors of utterance {utt.utt_id} in the accuracy sweep are not finite")
        if int(np.argmax(posteriors)) == dataset.label(utt):
            correct += 1
    return correct / len(dataset.utterances)


def train(model: Model, dataset: Dataset, cfg: TrainConfig,
          checkpoint_dir=None, log_path=None) -> TrainReport:
    """Run the full loop: per-epoch reshuffled chunk batches, a JSONL loss
    log, one checkpoint per epoch and a final accuracy sweep per epoch."""
    if dataset.num_speakers != model.config.num_speakers:
        raise DataError(
            f"dataset has {dataset.num_speakers} speakers but the model "
            f"classifies {model.config.num_speakers}")
    t0 = time.perf_counter()
    report = TrainReport()
    optimizer = Optimizer(model.parameter_groups(), cfg)
    log_file = open(log_path, "w") if log_path is not None else None
    try:
        for epoch in range(cfg.epochs):
            for feats, labels in make_batches(dataset, cfg.chunk_len, cfg.batch_size,
                                              seed=[cfg.seed, epoch]):
                loss, measured = train_step(model, optimizer, feats, labels)
                report.step_losses.append(loss)
                if log_file is not None:
                    log_file.write(json.dumps(
                        {"step": optimizer.t, "loss": loss, **measured, "lr": cfg.lr, "epoch": epoch}) + "\n")
            acc = classification_accuracy(model, dataset)
            report.epoch_accuracies.append(acc)
            log.info("epoch %d: loss %.4f, train accuracy %.4f",
                     epoch, report.step_losses[-1], acc)
            if checkpoint_dir is not None:
                save_model(model, Path(checkpoint_dir) / f"epoch-{epoch + 1:03d}.xvm")
    finally:
        if log_file is not None:
            log_file.close()
    report.wall_time_s = time.perf_counter() - t0
    return report


# -- gradient checking --------------------------------------------------------

# A step of 1e-5 straddled a leaky-ReLU kink on some seeds (gradcheck
# --pooling multihead --seed 46; every kind at --seed 261) and measured a
# blend of two slopes; a step ten times smaller crosses a kink ten times
# less often.
GRADCHECK_EPS = 1e-6
GRADCHECK_THRESHOLD = 1e-4
# Central differences carry rounding noise of ulp(loss)/2eps ~ 5e-11, so for
# gradients near zero (including the exactly-zero ones softmax shift
# invariance produces) an unfloored relative error compares noise against
# noise. Below this floor the error is the absolute gap over 1e-5, which
# passes exactly when the gap is under 1e-9, 20x the noise.
GRADCHECK_FLOOR = 1e-5


def relative_error(analytic, numeric):
    """Elementwise |a - n| / max(|a|, |n|, GRADCHECK_FLOOR); a NaN on either
    side gives NaN."""
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), GRADCHECK_FLOOR)
    return np.abs(analytic - numeric) / scale


@dataclass
class GradCheckReport:
    errors: dict  # parameter name -> its worst relative error
    checked: int  # scalar parameters checked

    @property
    def max_rel_err(self) -> float:
        return float(np.max(list(self.errors.values())))  # np.max, unlike max, keeps a NaN

    @property
    def passed(self) -> bool:
        return self.max_rel_err < GRADCHECK_THRESHOLD

    @property
    def worst(self) -> str:
        return list(self.errors)[int(np.argmax(list(self.errors.values())))]


def check_model_gradients(model: Model, features: np.ndarray, label: int) -> GradCheckReport:
    """Compare the analytic gradient of the cross entropy against central
    differences for every scalar parameter.

    Both sides run the training path on a batch of this one chunk: the
    analytic gradient comes from train_step's own gradient sequence, the
    differences from Model.forward(train=True), which hands the chunk to
    forward_batch. Batch-norm running statistics are snapshotted and
    restored so the check leaves the model untouched.
    """
    labels = np.array([label])
    snapshot = [array.copy() for _, array in model.state_arrays()]

    def loss() -> float:
        trace = model.forward(features, train=True)
        return cross_entropy(trace.posteriors, labels)

    _backprop(model, np.asarray(features)[None], labels, "in gradient check")
    analytic = {p.name: p.grad.copy() for p in model.parameters()}

    errors = {}
    for p in model.parameters():
        flat = p.value.reshape(-1)
        numeric = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + GRADCHECK_EPS
            lo_hi = loss()
            flat[i] = orig - GRADCHECK_EPS
            lo_lo = loss()
            flat[i] = orig
            numeric[i] = (lo_hi - lo_lo) / (2.0 * GRADCHECK_EPS)
        errors[p.name] = float(np.max(relative_error(analytic[p.name].reshape(-1), numeric)))

    for (_, array), saved in zip(model.state_arrays(), snapshot):
        array[...] = saved
    return GradCheckReport(errors, sum(p.value.size for p in model.parameters()))
