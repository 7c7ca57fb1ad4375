"""The per-layer benchmark keys its metrics on xvec's class, method and
attribute names (perfbench/tracing.py). A tiny traced pipeline must still
yield every per-layer metric that BENCHMARK.json lists, so that a renamed
method or a layer called from a new place fails here and not only in a
traced benchmark run.

The tracer patches xvec for the whole process, so the pipeline runs in a
subprocess."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# added by perfbench/run.py itself, not derived from the spans
NOT_FROM_SPANS = {"cli.import_s", "data.bytes_written", "trace.wall_s"}

PIPELINE = r"""
import json, sys
from pathlib import Path

import xvec.cli
from tracing import Tracer, layer_metrics

tracer = Tracer()
tracer.install()
work, pooling, flag = Path(sys.argv[1]), sys.argv[2], sys.argv[3]
model = {"frame_layers": [{"offsets": [-2, 0, 2], "width": 8}, {"offsets": [-1, 0, 1], "width": 8},
                          {"offsets": [0], "width": 8}, {"offsets": [0], "width": 8},
                          {"offsets": [0], "width": 12}],
         "pooling": pooling, "utterance_layers": [8, 8], "embedding_tap": 1}
if pooling != "stats":
    model.update(key_layer=4, compat=[6], heads=2 if pooling == "multihead" else 1)
synth = {"num_speakers": 4, "utts_per_speaker": 3, "min_frames": 20, "max_frames": 30, "dim": 5}
config = {"model": model, "synth": {"train": synth, "eval": synth}, "trials": {"enroll_per_speaker": 1},
          "train": {"batch_size": 4, "chunk_len": 12, "epochs": 2}}
(work / "run.json").write_text(json.dumps(config))
c, r = work / "corpus", work / "run"
for argv in (["gen-data", "--config", work / "run.json", "--out-dir", c],
             ["gradcheck", "--pooling", flag, "--seed", "0"],
             ["train", "--config", work / "run.json", "--data", c / "train", "--out-dir", r],
             ["extract", "--model", r / "model.xvm", "--data", c / "eval", "--out", r / "eval.xve"],
             ["score", "--embeddings", r / "eval.xve", "--trials", c / "trials.tsv",
              "--enroll-map", c / "enroll.tsv", "--out", r / "scores.tsv"],
             ["eval", "--scores", r / "scores.tsv", "--trials", c / "trials.tsv"]):
    assert xvec.cli.main([str(a) for a in argv]) == 0, argv
print(json.dumps(sorted(layer_metrics(tracer.spans))))
"""


@pytest.mark.parametrize("pooling, flag", [("stats", "stats"), ("attention", "att"), ("multihead", "multihead")])
def test_traced_pipeline_yields_every_per_layer_metric(tmp_path, pooling, flag):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), str(ROOT / "perfbench"),
                                                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PIPELINE, str(tmp_path), pooling, flag], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = set(json.loads(proc.stdout.splitlines()[-1]))
    wanted = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    missing = sorted(wanted - NOT_FROM_SPANS - got)
    assert not missing, f"the traced pipeline yields no {', '.join(missing)}"
