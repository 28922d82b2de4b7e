"""The traced benchmark wraps program functions by name; a rename must fail here,
and so must a featurization, decision, corpus I/O, triage assembly or remote
request path that bypasses the wrapped functions."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL_AND_RUN = """
import contextlib, importlib.util, io, sys
from pathlib import Path
import reportable_triage
from reportable_triage.cli import main
from cli_util import write_config
from mock_server import MockClassifyServer
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)

base = Path(sys.argv[2])
config = str(write_config(base, epochs=2, feature_dim=1 << 10))
corpus = str(base / "corpus.jsonl")
commands = [
    ("synth", ["synth", "--n", "120", "--seed", "3", "--out", corpus]),
    ("build_dataset", ["--config", config, "build-dataset", "--tier", "t1"]),
    ("train_baseline", ["--config", config, "train-baseline", "--tier", "t1", "--variant", "a"]),
    ("train_baseline", ["--config", config, "train-baseline", "--tier", "t1", "--variant", "b"]),
    ("build_dataset", ["--config", config, "build-dataset", "--tier", "t2"]),
    ("train_baseline", ["--config", config, "train-baseline", "--tier", "t2", "--variant", "a"]),
    ("train_baseline", ["--config", config, "train-baseline", "--tier", "t2", "--variant", "b"]),
    ("triage", ["--config", config, "triage", "--corpus", corpus]),
]
tracer.round = 0
for kind, argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), tracer.span(f"cli.{kind}"):
        assert main(argv) == 0, argv
for name in ("baseline.hash", "baseline.loss_eval", "baseline.score", "preprocess.normalize",
             "cascade.combine", "cascade.serialize", "corpus.load", "corpus.write"):
    calls = tracer.aggregates.get((0, name), (0,))[0]
    assert calls > 0, f"{name} recorded no calls"
# training assembles through the wrapped function too; triage must as well
assert tracer.counters.get((0, "preprocess.assemble_triage_calls"), 0) > 0, \
    "triage assembled no input through preprocess.assemble_input"

# every request of a triage with remote members is read through remote.remote_score
with MockClassifyServer(MockClassifyServer.score_per_text(0.7)) as server:
    endpoints = {"t1": server.endpoint, "t2": server.endpoint}
    remote_config = str(write_config(base, name="remote.json", remote_kind=True,
                                     remote={"timeout": 5.0, "max_retries": 0,
                                             "endpoints": endpoints}))
    argv = ["--config", remote_config, "triage", "--corpus", corpus,
            "--out", str(base / "remote_outcomes.jsonl")]
    with contextlib.redirect_stdout(io.StringIO()), tracer.span("cli.triage"):
        assert main(argv) == 0, argv
requests = tracer.aggregates.get((0, "remote.request"), (0,))[0]
assert requests == len(server.requests) > 0, \
    f"remote.request recorded {requests} calls for {len(server.requests)} requests"
"""


def test_benchmark_tracer_installs_on_the_program(tmp_path):
    # a subprocess, because install rebinds module attributes for good
    result = subprocess.run(
        [sys.executable, "-c", INSTALL_AND_RUN, str(ROOT / "triagebench" / "tracing.py"),
         str(tmp_path)],
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
