"""Pipeline benchmark for xvec.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the whole xvec pipeline (gen-data, gradcheck, train, extract, score,
eval and fresh `python -m xvec.cli --help` processes) through
``xvec.cli.main`` in this one process, one call per stage, then checks the
outputs against computations made apart from the program (checks.py). The
set-up runs SETUPS times; then rounds of the timed stages repeat until
``--seconds`` have passed, at least one. Every stage call, start-up process
and check is one operation. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric of BENCHMARK.json with ``--trace 0``, every per-layer
metric, from a span trace, with ``--trace 1``. See perfbench/README.md.
"""

from __future__ import annotations

import os

# The program runs with its default thread settings: drop inherited caps
# before numpy loads OpenBLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "XVEC_THREADS"):
    os.environ.pop(_var, None)

import argparse
import contextlib
import functools
import gc
import io
import json
import math
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402  (after the thread variables are cleared)

WORKLOADS = ("multihead", "stats")
SETUPS = 5               # set-up repetitions; setup_s is their median
GRADCHECKS = 2           # gradcheck calls per round, on fixed seeds 0, 1, ...
PASSES = 2               # passes of extract, score, eval and a start-up process per round
EMBED_SAMPLE = 24        # embeddings recomputed by the reference forward
FD_BATCH, FD_FRAMES, FD_PER_GROUP = 4, 40, 3
MIN_ACCURACY = 0.3       # final train accuracy bound (chance is 1/32)
MAX_EER = 0.05           # held-out EER bound

# The README model: five TDNN frame blocks, [mean; std] pooling into two
# 64-wide utterance layers, embedding tapped before the second one's ReLU.
FRAME_LAYERS = [
    {"offsets": [-2, -1, 0, 1, 2], "width": 64},
    {"offsets": [-2, 0, 2], "width": 64},
    {"offsets": [-3, 0, 3], "width": 64},
    {"offsets": [0], "width": 64},
    {"offsets": [0], "width": 192},
]
BATCH, CHUNK, EPOCHS = 32, 150, 2
UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "train_frames_per_s": "frames/s", "extract_frames_per_s": "frames/s",
}


def synth(speakers: int, utts: int) -> dict:
    return {"num_speakers": speakers, "utts_per_speaker": utts, "min_frames": 150,
            "max_frames": 300, "dim": 20, "sigma": 0.5}


def run_config(workload: str) -> dict:
    model = {"frame_layers": FRAME_LAYERS, "pooling": workload,
             "utterance_layers": [64, 64], "embedding_tap": 1}
    if workload == "multihead":
        model.update(key_layer=4, compat=[100], heads=4)
    return {"model": model,
            "synth": {"train": synth(32, 20), "eval": synth(48, 20)},
            "trials": {"enroll_per_speaker": 3},
            "train": {"optimizer": "adam", "lr": 1e-3, "epochs": EPOCHS,
                      "batch_size": BATCH, "chunk_len": CHUNK}}


class Bench:
    def __init__(self, cli, workload: str, seed: int, work: Path, traced: bool):
        self.cli = cli
        self.pooling = workload
        self.seed = seed
        self.work = work
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.checks_failed = 0
        self.import_s = []
        # gen-data --seed s seeds the splits with s, s+1 and s+2
        self.data_seed = 101 + 3 * seed
        self.train_seed = 7 + seed
        self.config = work / "run.json"
        self.config.write_text(json.dumps(run_config(workload), indent=1))
        self.corpus = work / "corpus0"
        self.run = work / "run"

    def _fail(self, what: str) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {what}", file=sys.stderr)

    def call(self, *argv: str):
        """One `xvec` command in this process; returns (seconds, stdout)."""
        self.attempted += 1
        buf = io.StringIO()
        # Start each command from a collected heap, as a fresh process would,
        # so that no stage pays for the garbage of the one before.
        gc.collect()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(list(argv))
        except Exception:
            rc = "an exception"
            traceback.print_exc()
        seconds = time.perf_counter() - t0
        if rc != 0:
            self._fail(f"xvec {' '.join(argv)}: exit {rc}")
        return seconds, buf.getvalue()

    def check(self, name: str, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except Exception as e:
            self.checks_failed += 1
            self._fail(f"check {name}: {type(e).__name__}: {e}")

    def startup(self) -> float:
        """A fresh `python -m xvec.cli --help`; the traced run adds -X importtime
        and keeps the cumulative import time of the xvec package (the cli
        module itself runs as __main__, so it is not imported)."""
        self.attempted += 1
        flags = ["-X", "importtime"] if self.traced else []
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *flags, "-m", "xvec.cli", "--help"], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0 or "usage:" not in proc.stdout:
            self._fail(f"python -m xvec.cli --help: exit {proc.returncode}")
        m = re.search(r"^import time:\s+\d+ \|\s+(\d+) \| xvec$", proc.stderr, re.M)
        if m:
            self.import_s.append(int(m.group(1)) / 1e6)
        return seconds

    # -- stages ------------------------------------------------------------------

    def setup(self) -> list:
        """gen-data SETUPS times into separate directories; the first copy is used."""
        times = []
        for i in range(SETUPS):
            # Write back dirty pages first (outside the timing): otherwise a
            # set-up pays for the writeback of whatever the run before it wrote
            # (gen-data took 0.70-0.86 s just after a run and ~0.3 s after a sync).
            os.sync()
            times.append(self.call("gen-data", "--config", str(self.config), "--out-dir",
                                   str(self.work / f"corpus{i}"), "--seed", str(self.data_seed))[0])
        return times

    def round(self) -> dict:
        """One round of the pipeline's timed stages; returns {stage: [seconds per call]}."""
        c, r = self.corpus, self.run
        t = {"startup": [self.startup()]}
        # Fixed seeds, not the run seed: with its single 1e-5 step, xvec
        # gradcheck reports a false FAIL on the few seeds whose step crosses a
        # leaky-ReLU kink (multihead 46, both kinds 261).
        self.gradcheck_out = [self.call("gradcheck", "--pooling", self.pooling, "--seed", str(k))[1]
                              for k in range(GRADCHECKS)]
        seconds, self.train_out = self.call(
            "train", "--config", str(self.config), "--data", str(c / "train"),
            "--out-dir", str(r), "--seed", str(self.train_seed))
        t["train"] = [seconds]
        for _ in range(PASSES):
            t.setdefault("extract", []).append(self.call(
                "extract", "--model", str(r / "model.xvm"), "--data", str(c / "eval"),
                "--out", str(r / "eval.xve"))[0])
            t.setdefault("score", []).append(self.call(
                "score", "--embeddings", str(r / "eval.xve"), "--trials", str(c / "trials.tsv"),
                "--enroll-map", str(c / "enroll.tsv"), "--out", str(r / "scores.tsv"))[0])
            t.setdefault("eval", []).append(self.call(
                "eval", "--scores", str(r / "scores.tsv"), "--trials", str(c / "trials.tsv"),
                "--out", str(r / "metrics.json"))[0])
            t["startup"].append(self.startup())
        return t

    # -- output checks -----------------------------------------------------------

    def checks(self) -> None:
        c, r = self.corpus, self.run
        rng = np.random.default_rng(self.seed)
        self.check("gradcheck-pass", lambda: checks.require(
            all("[PASS]" in out for out in self.gradcheck_out), "gradcheck did not report PASS"))
        steps_per_epoch = math.ceil(len(checks.read_manifest(c / "train")) / BATCH)
        self.check("train-log", checks.check_train_log, r / "train_log.jsonl", EPOCHS, steps_per_epoch)
        self.check("train-accuracy", self.check_accuracy)
        self.check("batched-gradients", self.check_batched_gradients, rng)
        self.check("embeddings", checks.check_embeddings, r / "model.xvm", c / "eval", r / "eval.xve",
                   EMBED_SAMPLE, rng)
        scored = functools.cache(lambda: checks.read_scored_trials(c / "trials.tsv", r / "scores.tsv"))
        self.check("scores", lambda: checks.check_scores(r / "eval.xve", c / "enroll.tsv", *scored()))
        self.check("metrics", lambda: checks.check_metrics(*scored(), r / "metrics.json", MAX_EER))

    def check_accuracy(self) -> None:
        m = re.search(r"train accuracy ([0-9.e+-]+)", self.train_out)
        checks.require(m is not None, "train printed no accuracy")
        acc = float(m.group(1))
        checks.require(acc > MIN_ACCURACY, f"train accuracy {acc} is not above {MIN_ACCURACY}")

    def check_batched_gradients(self, rng) -> None:
        """Central differences on a small batch of train chunks, against the
        batched backward pass of the trained model."""
        from xvec.model import load_model

        rows = checks.read_manifest(self.corpus / "train")
        speakers = sorted({spk for _, spk, _ in rows})
        chosen = rng.choice(len(rows), size=FD_BATCH, replace=False)
        feats = np.stack([checks.read_features(rows[i][2])[:FD_FRAMES] for i in chosen])
        labels = np.array([speakers.index(rows[i][1]) for i in chosen])
        checks.check_batched_gradients(load_model(self.run / "model.xvm"), feats, labels, FD_PER_GROUP)

    # -- the run -----------------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        setup_times = self.setup()
        t_timed = time.perf_counter()
        rounds = []
        while True:
            rounds.append(self.round())
            if len(rounds) == 1:
                wall = sum(setup_times) + time.perf_counter() - t_timed
                self.checks()
            if time.perf_counter() - t_timed >= seconds:
                break

        def median(stage):
            return statistics.median(x for rnd in rounds for x in rnd[stage])

        for stage in rounds[0]:
            calls = " ".join(f"{x:.3f}" for rnd in rounds for x in rnd[stage])
            print(f"{stage + ' s':40s} {calls}")
        print(f"{'set-up s':40s} {' '.join(f'{x:.3f}' for x in setup_times)}")

        utts = len(checks.read_manifest(self.corpus / "train"))
        frames = sum(checks.feature_frames(p) for _, _, p in checks.read_manifest(self.corpus / "eval"))
        return {"setup_s": statistics.median(setup_times), "wall_s": wall,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "train_frames_per_s": EPOCHS * utts * CHUNK / median("train"),
                "extract_frames_per_s": frames / median("extract")}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "xvec" / "cli.py").is_file():
        print(f"perfbench: no xvec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import xvec.cli

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    work = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(xvec.cli, args.workload, args.seed, work, tracer is not None)
        e2e = bench.measure(args.seconds)
        if tracer is None:
            metrics = {name: (value, UNITS[name]) for name, value in e2e.items()}
        else:
            from tracing import layer_metrics

            extra = {"data.bytes_written": (dir_bytes(bench.corpus), "count"),
                     "trace.wall_s": (e2e["wall_s"], "s")}
            if bench.import_s:
                extra["cli.import_s"] = (statistics.median(bench.import_s), "s")
            metrics = layer_metrics(tracer.spans) | extra
            spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(spans)
            print(f"spans: {spans.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in wanted}
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"operations: {bench.attempted} attempted, {bench.failed} failed")
    print(json.dumps({
        "correct": bench.checks_failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
