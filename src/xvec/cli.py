"""Command-line pipeline: gen-data, train, extract, score, eval, attn,
gradcheck.

Exit codes: 0 success, 1 usage or configuration error, 2 data or file
format error, 3 numeric failure. A run config is a single JSON object with
optional "model", "synth", "trials" and "train" sections; unknown keys and
wrongly typed values are rejected everywhere so typos fail loudly.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import data, evaluation
from .config import from_json
from .errors import ConfigError, DataError, TrainingError, XvecError
from .model import FrameLayerSpec, ModelConfig, build_model, load_model, save_model
from .train import TrainConfig, check_model_gradients, train

log = logging.getLogger(__name__)

POOLING_FLAGS = {"stats": "stats", "att": "attention", "multihead": "multihead"}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through ConfigError
    # so usage problems land on exit code 1 like every other config error.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


@dataclass(frozen=True)
class SynthSection:
    train: data.SynthConfig
    eval: data.SynthConfig | None = None


@dataclass(frozen=True)
class TrialsSection:
    enroll_per_speaker: int = 0  # 0: no trials
    seed: int = 0

    def __post_init__(self) -> None:
        if self.enroll_per_speaker < 0:
            raise ConfigError(f"enroll_per_speaker: must be >= 0, got {self.enroll_per_speaker}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RunConfig:
    # model is typed once train has filled in the data's defaults
    model: dict | None = None
    synth: SynthSection | None = None
    trials: TrialsSection = field(default_factory=TrialsSection)
    train: TrainConfig = field(default_factory=TrainConfig)


def load_run_config(path) -> RunConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except (ValueError, RecursionError) as e:  # bad JSON, bad UTF-8 or nested too deep
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    return from_json(RunConfig, raw, str(path))


def parse_compat(text: str) -> list:
    """Dash-separated hidden widths, e.g. '500' or '100-500'."""
    try:
        widths = [int(part) for part in text.split("-")]
    except ValueError:
        raise ConfigError(f"--compat: expected dash-separated integers, got '{text}'") from None
    if not widths or any(w < 1 for w in widths):
        raise ConfigError(f"--compat: widths must be positive, got '{text}'")
    return widths


def _require_fit(data_path, what: str, have: int, model_source, want: int) -> None:
    """Fail before any output is written when the data does not fit the model."""
    if have != want:
        raise DataError(f"{data_path}: {have} {what}, but {model_source} expects {want}")


def _require_out(out_path, directory: bool = False) -> None:
    """Fail before any work when an output has nowhere to go. A file goes in
    an existing directory and must not be one; a directory is made with its
    parents, so it, or else its nearest existing ancestor, must be one."""
    path = Path(out_path)
    if not directory and path.is_dir():
        raise DataError(f"{out_path}: is a directory")
    base = next(p for p in (path, *path.parents) if p.exists()) if directory else path.parent
    if not base.is_dir():
        raise DataError(f"{out_path}: is not a directory" if base == path else f"{out_path}: {base} is not a directory")


def _override(config, flags: dict):
    """``config`` with the value of each flag given; ``flags`` maps a flag to
    its (field, value), the value None when the flag is not given. The
    config was valid, so a ConfigError names the flags given."""
    given = {flag: field_value for flag, field_value in flags.items() if field_value[1] is not None}
    try:
        return replace(config, **dict(given.values()))
    except ConfigError as e:
        raise ConfigError(f"{', '.join(given)}: {e}") from None


# -- subcommands ---------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = load_run_config(args.config)
    if cfg.synth is None:
        raise ConfigError(f"{args.config}: gen-data needs a 'synth' section")
    train_cfg, eval_cfg, trials_cfg = cfg.synth.train, cfg.synth.eval, cfg.trials
    if eval_cfg is None and trials_cfg.enroll_per_speaker > 0:
        raise ConfigError(f"{args.config}: trials need a synth.eval section to draw from")
    if eval_cfg is not None and trials_cfg.enroll_per_speaker >= eval_cfg.utts_per_speaker:
        raise ConfigError(f"{args.config}: trials.enroll_per_speaker ({trials_cfg.enroll_per_speaker}) must be "
                          f"below synth.eval.utts_per_speaker ({eval_cfg.utts_per_speaker}) to leave test segments")
    if args.seed is not None:
        train_cfg = _override(train_cfg, {"--seed": ("seed", args.seed)})
        if eval_cfg is not None:
            eval_cfg = replace(eval_cfg, seed=args.seed + 1)
        trials_cfg = replace(trials_cfg, seed=args.seed + 2)
    _require_out(args.out_dir, directory=True)

    out = Path(args.out_dir)
    written = {}  # split -> its (utt_id, speaker) pairs
    for split, split_cfg in (("train", train_cfg), ("eval", eval_cfg)):
        if split_cfg is None:
            continue
        # utterances are written as they are drawn, so memory does not grow with the split
        pairs = written[split] = data.write_dataset(data.gen_synthetic(split_cfg, split=split), out / split)
        print(f"wrote {len(pairs)} utterances "
              f"({len({spk for _, spk in pairs})} speakers) to {out / split}")

    if trials_cfg.enroll_per_speaker > 0:
        trials, enroll_map = evaluation.make_trials(written["eval"], trials_cfg.enroll_per_speaker, trials_cfg.seed)
        evaluation.write_trials(out / "trials.tsv", trials)
        evaluation.write_enroll_map(out / "enroll.tsv", enroll_map)
        print(f"wrote {len(trials)} trials to {out / 'trials.tsv'}")
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    if cfg.model is None:
        raise ConfigError(f"{args.config}: train needs a 'model' section")
    train_config = _override(cfg.train, {"--seed": ("seed", args.seed), "--epochs": ("epochs", args.epochs)})
    _require_out(args.out_dir, directory=True)
    if args.out_model:
        _require_out(args.out_model)
    dataset = data.load_dataset(args.data)

    model_dict = dict(cfg.model)
    model_dict.setdefault("input_dim", dataset.utterances[0].features.shape[1])
    model_dict.setdefault("num_speakers", dataset.num_speakers)
    model_source = f"{args.config}: model"
    model_config = _override(from_json(ModelConfig, model_dict, model_source), {
        "--pooling": ("pooling", POOLING_FLAGS.get(args.pooling)),
        "--key-layer": ("key_layer", args.key_layer),
        "--compat": ("compat", None if args.compat is None else parse_compat(args.compat)),
        "--heads": ("heads", args.heads),
    })
    _require_fit(args.data, "feature columns", dataset.utterances[0].features.shape[1],
                 model_source, model_config.input_dim)
    _require_fit(args.data, "speakers", dataset.num_speakers, model_source, model_config.num_speakers)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = build_model(model_config, seed=train_config.seed)
    report = train(model, dataset, train_config,
                   checkpoint_dir=out, log_path=out / "train_log.jsonl")
    save_model(model, args.out_model if args.out_model else out / "model.xvm")
    print(f"trained {len(report.step_losses)} steps; "
          f"final loss {report.final_loss!r}; "
          f"train accuracy {report.epoch_accuracies[-1]!r}")
    log.info("wall time %.1fs, checkpoints in %s", report.wall_time_s, out)
    return 0


def cmd_extract(args) -> int:
    _require_out(args.out)
    model = load_model(args.model)
    dataset = data.load_dataset(args.data)
    _require_fit(args.data, "feature columns", dataset.utterances[0].features.shape[1],
                 args.model, model.config.input_dim)
    plan = model.inference_plan()
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves a vector refused below
        embeddings = {utt.utt_id: model.extract_embedding(utt.features, plan) for utt in dataset.utterances}
        held = [np.isfinite(vec.astype(np.float32)).all() for vec in embeddings.values()]
    if not all(held):  # finite weights and features can still overflow: name them
        line = held.index(False) + 1
        manifest = Path(args.data) / "manifest.tsv" if Path(args.data).is_dir() else Path(args.data)
        rel = data._read_rows(manifest, "utt_id<TAB>speaker<TAB>path")[line - 1][2]
        raise DataError(f"{manifest}:{line}: the embedding of {manifest.parent / rel} under {args.model} "
                        f"is beyond float32's range")
    data.write_embeddings(args.out, embeddings)
    dim = next(iter(embeddings.values())).shape[0]
    print(f"wrote {len(embeddings)} embeddings (dim {dim}) to {args.out}")
    return 0


def cmd_score(args) -> int:
    _require_out(args.out)
    embeddings = data.read_embeddings(args.embeddings)
    trials = evaluation.read_trials(args.trials)
    enroll_map = evaluation.read_enroll_map(args.enroll_map) if args.enroll_map else None
    try:
        scored = evaluation.score_trials(embeddings, trials, enroll_map)
    except evaluation.RowError as e:  # a trial's index, or an enrollment entry
        if isinstance(e.row, int):
            where = f"{args.trials}:{e.row + 1}"
        else:  # _read_rows keeps one row per line, in order
            rows = data._read_rows(args.enroll_map, "speaker<TAB>segment")
            where = f"{args.enroll_map}:{rows.index(list(e.row)) + 1}"
        raise DataError(f"{where}: {e.naming(embeddings=args.embeddings, enroll_map=args.enroll_map)}") from None
    evaluation.write_scores(args.out, scored)
    print(f"wrote {len(scored)} scores to {args.out}")
    return 0


def cmd_eval(args) -> int:
    if args.out:
        _require_out(args.out)
    scores = evaluation.read_scores(args.scores)
    trials = evaluation.read_trials(args.trials)
    try:
        values, labels = evaluation.join_scores_with_trials(scores, trials)
    except evaluation.RowError as e:
        raise DataError(f"{args.trials}:{e.row + 1}: {e.naming(scores=args.scores)}") from None
    try:
        report = evaluation.compute_metrics(values, labels)
    except DataError as e:  # read_scores admits only finite scores, so the labels are of one class
        raise DataError(f"{args.trials}: {e}") from None
    extra = None
    custom = (args.p_target, args.c_miss, args.c_fa)
    if any(v is not None for v in custom):
        if any(v is None for v in custom):
            raise ConfigError("--p-target, --c-miss and --c-fa must be given together")
        try:
            min_dcf = evaluation.compute_min_dcf(values, labels, *custom)
        except ConfigError as e:
            raise ConfigError(f"--p-target, --c-miss, --c-fa: {e}") from None
        extra = {
            "min_dcf_custom": min_dcf,
            "custom_p_target": args.p_target,
            "custom_c_miss": args.c_miss,
            "custom_c_fa": args.c_fa,
        }
    text = evaluation.metrics_json(report, extra)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def cmd_attn(args) -> int:
    _require_out(args.out)
    model = load_model(args.model)
    features = data.read_features(args.utt)
    _require_fit(args.utt, "feature columns", features.shape[1], args.model, model.config.input_dim)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves a row refused below
            max_weights, weights = evaluation.attention_trajectory(model, features)
    except ConfigError as e:  # a model without attention
        raise ConfigError(f"{args.model}: {e}") from None
    if not np.isfinite(weights).all():  # finite weights and features can still overflow: name them
        raise DataError(f"{args.utt}: the attention under {args.model} is not finite")
    evaluation.write_trajectory(args.out, max_weights)
    print(f"wrote {max_weights.shape[0]} frames to {args.out}")
    return 0


def _tiny_config(pooling: str) -> ModelConfig:
    return ModelConfig(
        input_dim=4,
        frame_layers=(
            FrameLayerSpec((-1, 0, 1), 6),
            FrameLayerSpec((-2, 0, 2), 6),
            FrameLayerSpec((0,), 8),
        ),
        pooling=pooling,
        key_layer=0 if pooling == "stats" else 2,
        compat=() if pooling == "stats" else (5, 4),
        heads=2 if pooling == "multihead" else 1,
        utterance_layers=(7,),
        num_speakers=3,
    )


def cmd_gradcheck(args) -> int:
    if args.frames < 2:  # train-mode batch norm needs two frames to normalize
        raise ConfigError(f"--frames: must be >= 2, got {args.frames}")
    if args.seed < 0:
        raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
    if args.config:
        cfg = load_run_config(args.config)
        if cfg.model is None:
            raise ConfigError(f"{args.config}: gradcheck needs a 'model' section")
        configs = [("model", from_json(ModelConfig, cfg.model, f"{args.config}: model"))]
    else:
        kinds = list(POOLING_FLAGS) if args.pooling == "all" else [args.pooling]
        configs = [(kind, _tiny_config(POOLING_FLAGS[kind])) for kind in kinds]
    rng = np.random.default_rng(args.seed)
    failed = []
    for name, config in configs:
        features = rng.standard_normal((args.frames, config.input_dim))
        model = build_model(config, seed=args.seed)
        report = check_model_gradients(model, features, label=config.num_speakers - 1)
        status = "PASS" if report.passed else "FAIL"
        print(f"{name}: max rel err {report.max_rel_err:.3e} over "
              f"{report.checked} parameters [{status}]")
        if not report.passed:
            failed.append(f"{name} ({report.worst}: {report.max_rel_err:.3e})")
    if failed:
        raise TrainingError("gradient check failed for " + ", ".join(failed))
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="xvec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate synthetic datasets and trials")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, help="override split seeds (train=s, eval=s+1, trials=s+2)")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--data", required=True, help="dataset directory or manifest")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--pooling", choices=sorted(POOLING_FLAGS))
    p.add_argument("--key-layer", type=int, help="1-based frame layer whose output feeds attention keys")
    p.add_argument("--compat", help="compatibility net widths, e.g. 500 or 100-500; last is the query dim")
    p.add_argument("--heads", type=int)
    p.add_argument("--seed", type=int, help="override the training seed (also seeds model init)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--out-model", help="final model path (default: <out-dir>/model.xvm)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extract", help="extract embeddings for every utterance")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("score", help="cosine-score trials against embeddings")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--enroll-map", help="speaker<TAB>segment map for multi-segment enrollment")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="EER and minimum detection cost from a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--out", help="also write the metrics JSON here")
    p.add_argument("--p-target", type=float)
    p.add_argument("--c-miss", type=float)
    p.add_argument("--c-fa", type=float)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("attn", help="dump per-frame max attention weights for one utterance")
    p.add_argument("--model", required=True)
    p.add_argument("--utt", required=True, help="feature file of the utterance")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attn)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check on tiny models")
    p.add_argument("--config", help="check the run config's model instead of the built-ins")
    p.add_argument("--pooling", choices=["all"] + sorted(POOLING_FLAGS), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, default=6)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except XvecError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a fault with no XvecError of its own: still one line, not a traceback
        log.debug("unexpected fault", exc_info=True)
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
