"""Span tracing for the traced run, and the per-layer metrics derived from it.

``Tracer.install`` wraps, from outside the package, every public function
and every public plain method of the classes in ``xvec.cli``, ``data``,
``nn``, ``pooling``, ``model``, ``train`` and ``evaluation``; names bound
to a wrapped function in another xvec module are rebound too. A span is
(id, name, start, end, parent id, label) and stays in memory until the
run writes the span file. Only calls made under ``cli.main`` are recorded,
so the benchmark's own checks leave no spans. Calls made on worker threads
take the main thread's innermost open span as their parent. The label
names the model part that owns an nn or pooling object (``frame2``,
``compat0``, ``utt1``, ``classifier``); parts are labelled whenever
``build_model`` returns.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
import weakref
from collections import defaultdict

MODULES = ("cli", "data", "nn", "pooling", "model", "train", "evaluation")
ROOT = "cli.main"
STAGES = ("gen-data", "train", "gradcheck", "extract", "score", "eval")


class Tracer:
    def __init__(self):
        self.spans = []
        self.labels = weakref.WeakKeyDictionary()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        outer = stack or self._main_stack
        parent = outer[-1] if outer else None
        if parent is None and name != ROOT:
            return None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent, time.perf_counter()

    def _close(self, token, name, label) -> None:
        stack, sid, parent, t0 = token
        t1 = time.perf_counter()
        stack.pop()
        self.spans.append((sid, name, t0, t1, parent, label))

    def _label(self, args, labelled: bool):
        if not (labelled and args):
            return None
        try:
            return self.labels.get(args[0])
        except TypeError:  # instances that cannot be weakly referenced
            return None

    def _wrap(self, name: str, fn, labelled: bool = False):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # one span per item the generator produces
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    token = tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        if token:
                            token[0].pop()
                        return
                    except BaseException:
                        if token:
                            tracer._close(token, name, None)
                        raise
                    if token:
                        tracer._close(token, name, None)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = tracer._open(name)
            if token is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(token, name, tracer._label(args, labelled))
        return traced

    def label_model(self, model) -> None:
        for i, block in enumerate(model.frame_blocks):
            for part in (block.splice, block.affine, block.act, block.bn):
                self.labels[part] = f"frame{i}"
        for i, parts in enumerate(getattr(getattr(model.pool, "net", None), "blocks", ())):
            for part in parts:
                self.labels[part] = f"compat{i}"
        for i, parts in enumerate(zip(model.utt_affines, model.utt_acts)):
            for part in parts:
                self.labels[part] = f"utt{i}"
        self.labels[model.classifier] = "classifier"
        self.labels[model.softmax] = "softmax"

    def install(self) -> None:
        mods = {short: sys.modules[f"xvec.{short}"] for short in MODULES}
        # xvec/__init__ re-exports the train() function under the name
        # "train", so the train module is only reachable through sys.modules.
        namespaces = list(mods.values()) + [sys.modules["xvec"]]
        model_mod = mods["model"]
        build = model_mod.build_model

        def build_model(*args, **kwargs):
            model = build(*args, **kwargs)
            self.label_model(model)
            return model

        model_mod.build_model = functools.wraps(build)(build_model)
        for ns in namespaces:
            if ns is not model_mod and getattr(ns, "build_model", None) is build:
                ns.build_model = model_mod.build_model

        for short, mod in mods.items():
            labelled = short in ("nn", "pooling")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{short}.{attr}", obj)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                setattr(ns, key, wrapped)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self._wrap(f"{short}.{attr}.{meth}", fn, labelled))

    def write(self, path) -> None:
        """One JSON array per line: [id, name, start, end, parent id, label]."""
        with open(path, "w") as f:
            for span in sorted(self.spans):
                f.write(json.dumps(span) + "\n")


# -- analysis ---------------------------------------------------------------------


class Span:
    __slots__ = ("sid", "name", "t0", "t1", "parent", "label", "self_s", "step", "stage")

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


class Trace:
    """Spans with self times, grouped by name, by enclosing train step and
    by enclosing CLI stage. Each query returns None when no span matches, so
    a layer the run never entered reports nothing rather than 0."""

    def __init__(self, raw):
        self.spans = {}
        for sid, name, t0, t1, parent, label in raw:
            s = Span()
            s.sid, s.name, s.t0, s.t1, s.parent, s.label = sid, name, t0, t1, parent, label
            self.spans[sid] = s
        children = defaultdict(list)
        for s in self.spans.values():
            children[s.parent].append((s.t0, s.t1))
        self.by_name = defaultdict(list)
        self.by_step = defaultdict(list)
        self.by_stage = defaultdict(list)
        for s in sorted(self.spans.values(), key=lambda x: x.sid):  # parents before children
            s.self_s = s.dur - _covered([(max(a, s.t0), min(b, s.t1)) for a, b in children[s.sid]])
            up = self.spans.get(s.parent)
            s.step = s.sid if s.name == "train.train_step" else (up.step if up else None)
            s.stage = (s.name[len("cli.cmd_"):].replace("_", "-") if s.name.startswith("cli.cmd_")
                       else (up.stage if up else None))
            self.by_name[s.name].append(s)
            if s.step is not None:
                self.by_step[s.step].append(s)
            if s.stage is not None:
                self.by_stage[s.stage].append(s)

    def named(self, *names):
        return [s for name in names for s in self.by_name.get(name, ())]

    def per_step(self, names, labels=None, inclusive=False):
        """Median over train steps of the summed time of matching spans,
        optionally only those owned by the model parts in ``labels``."""
        totals, found = [], False
        for spans in self.by_step.values():
            hits = [s for s in spans if s.name in names and (labels is None or s.label in labels)]
            found = found or bool(hits)
            totals.append(sum(s.dur if inclusive else s.self_s for s in hits))
        return statistics.median(totals) if found else None

    def step_count(self, names):
        totals = [sum(s.name in names for s in spans) for spans in self.by_step.values()]
        return statistics.median(totals) if any(totals) else None

    def per_call(self, stage, names, inclusive=False):
        """Mean over the calls of one CLI stage of the summed time of matching spans."""
        calls = self.by_name.get("cli.cmd_" + stage.replace("-", "_"), ())
        hits = [s for s in self.by_stage.get(stage, ()) if s.name in names]
        if not (calls and hits):
            return None
        return sum(s.dur if inclusive else s.self_s for s in hits) / len(calls)

    @staticmethod
    def mean_dur(spans):
        return statistics.fmean(s.dur for s in spans) if spans else None


def layer_metrics(raw_spans) -> dict:
    """Per-layer metrics as {name: (value, unit)}, for the layers this run entered."""
    tr = Trace(raw_spans)
    out = {}

    def put(name, value, unit, scale=1.0):
        if value:
            out[name] = (scale * value, unit)

    def ms(name, value):
        put(name, value, "ms", 1e3)

    gen = "gen-data"
    put("data.gen_synthetic_s", tr.per_call(gen, {"data.gen_synthetic"}, inclusive=True), "s")
    put("data.write_dataset_s", tr.per_call(gen, {"data.write_dataset"}, inclusive=True), "s")
    put("data.load_dataset_s", tr.mean_dur(tr.named("data.load_dataset")), "s")
    batches = [s.dur for s in tr.named("data.make_batches")]
    ms("data.batch_wait_ms_per_step", statistics.median(batches) if batches else None)
    put("data.write_embeddings_s", tr.per_call("extract", {"data.write_embeddings"}, inclusive=True), "s")
    put("data.read_embeddings_s", tr.per_call("score", {"data.read_embeddings"}, inclusive=True), "s")

    for layer, cls in (("splice", "Splice"), ("affine", "Affine"), ("batchnorm", "BatchNorm"),
                       ("leaky_relu", "LeakyReLU")):
        batch = "_batch" if cls == "Splice" else ""
        ms(f"nn.{layer}.fwd_ms_per_step", tr.per_step({f"nn.{cls}.forward{batch}"}))
        ms(f"nn.{layer}.bwd_ms_per_step", tr.per_step({f"nn.{cls}.backward{batch}"}))
        put(f"nn.{layer}.infer_s", tr.per_call("extract", {f"nn.{cls}.forward"}), "s")
    ms("nn.softmax_ms_per_step", tr.per_step({"nn.Softmax.forward", "nn.Softmax.backward", "nn.softmax_rows"}))
    ms("nn.cross_entropy_ms_per_step", tr.per_step({"nn.cross_entropy", "nn.cross_entropy_backward"}))

    pool_fwd = {"pooling.MultiHeadPool.pool_from_compat", "pooling.StatsPool.pool"}
    pool_bwd = {"pooling.MultiHeadPool.backward_from_compat", "pooling.StatsPool.pool_backward"}
    # inclusive, and with the compatibility net (its nn layers too) on multihead
    ms("pooling.fwd_ms_per_step", tr.per_step(pool_fwd | {"pooling.CompatibilityNet.forward"}, inclusive=True))
    ms("pooling.bwd_ms_per_step", tr.per_step(pool_bwd | {"pooling.CompatibilityNet.backward"}, inclusive=True))
    put("pooling.calls_per_step", tr.step_count(pool_fwd | pool_bwd), "count")
    put("pooling.infer_s", tr.per_call("extract", {n for n in tr.by_name if n.startswith("pooling.")}), "s")

    frame_fwd = {"nn.Splice.forward_batch", "nn.Affine.forward", "nn.LeakyReLU.forward", "nn.BatchNorm.forward"}
    frame_bwd = {"nn.Splice.backward_batch", "nn.Affine.backward", "nn.LeakyReLU.backward", "nn.BatchNorm.backward"}
    labels = {s.label for s in tr.spans.values() if s.label}
    for block in sorted(x for x in labels if x.startswith("frame")):
        ms(f"model.{block}.fwd_ms_per_step", tr.per_step(frame_fwd, {block}, inclusive=True))
        ms(f"model.{block}.bwd_ms_per_step", tr.per_step(frame_bwd, {block}, inclusive=True))
    head = {x for x in labels if x.startswith("utt")} | {"classifier", "softmax"}
    ms("model.utterance.fwd_ms_per_step", tr.per_step(
        {"nn.Affine.forward", "nn.LeakyReLU.forward", "nn.Softmax.forward"}, head, inclusive=True))
    ms("model.utterance.bwd_ms_per_step", tr.per_step(
        {"nn.Affine.backward", "nn.LeakyReLU.backward", "nn.Softmax.backward"}, head, inclusive=True))
    ms("model.forward_batch_self_ms_per_step", tr.per_step({"model.Model.forward_batch"}))
    ms("model.backward_batch_self_ms_per_step", tr.per_step({"model.Model.backward_batch"}))
    single = [s for s in tr.named("model.Model.forward") if s.stage in ("train", "extract")]
    ms("model.forward_ms_per_utt", tr.mean_dur(single))
    put("model.forward_calls", len(single), "count")
    ms("model.save_ms", tr.mean_dur(tr.named("model.save_model")))
    ms("model.load_ms", tr.mean_dur(tr.named("model.load_model")))

    steps = tr.named("train.train_step")
    ms("train.step_ms", statistics.median(s.dur for s in steps) if steps else None)
    ms("train.step_self_ms", statistics.median(s.self_s for s in steps) if steps else None)
    ms("train.optimizer_ms_per_step", tr.per_step({"train.Optimizer.step"}, inclusive=True))
    put("train.sweep_s_per_epoch", tr.mean_dur(tr.named("train.classification_accuracy")), "s")
    loops = {s.sid for s in tr.named("train.train")}
    ms("train.checkpoint_ms_per_epoch", tr.mean_dur([s for s in tr.named("model.save_model") if s.parent in loops]))
    checks = tr.named("train.check_model_gradients")
    put("train.gradcheck_s", tr.mean_dur(checks), "s")
    ids = {s.sid for s in checks}
    forwards = sum(s.parent in ids for s in tr.named("model.Model.forward"))
    put("train.gradcheck_forwards", forwards / len(checks) if checks else None, "count")

    put("evaluation.make_trials_s", tr.per_call(gen, {"evaluation.make_trials"}, inclusive=True), "s")
    put("evaluation.write_trials_s", tr.per_call(gen, {"evaluation.write_trials"}, inclusive=True), "s")
    put("evaluation.read_trials_s", tr.mean_dur(tr.named("evaluation.read_trials")), "s")
    for fn in ("read_enroll_map", "enrollment_models", "write_scores"):
        put(f"evaluation.{fn}_s", tr.per_call("score", {f"evaluation.{fn}"}, inclusive=True), "s")
    scoring = tr.per_call("score", {"evaluation.score_trials"}, inclusive=True)
    models = tr.per_call("score", {"evaluation.enrollment_models"}, inclusive=True)
    put("evaluation.score_trials_s", scoring and scoring - (models or 0.0), "s")
    for fn, span in (("read_scores", "read_scores"), ("join_scores", "join_scores_with_trials"),
                     ("compute_eer", "compute_eer"), ("compute_min_dcf", "compute_min_dcf")):
        put(f"evaluation.{fn}_s", tr.per_call("eval", {f"evaluation.{span}"}, inclusive=True), "s")
    evals = tr.named("cli.cmd_eval")
    curves = [s for s in tr.named("evaluation.compute_eer", "evaluation.compute_min_dcf") if s.stage == "eval"]
    put("evaluation.curve_builds", len(curves) / len(evals) if evals else None, "count")

    for stage in STAGES:
        cmd = "cli.cmd_" + stage.replace("-", "_")
        put(f"cli.{stage}_s", tr.mean_dur(tr.named(cmd)), "s")
        put(f"cli.{stage}_self_s", tr.per_call(stage, {cmd}), "s")
    put("trace.spans", len(tr.spans), "count")
    return out
