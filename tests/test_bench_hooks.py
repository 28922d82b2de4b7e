"""The traced benchmark wraps program functions by name; a rename must fail here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import importlib.util, sys
import reportable_triage
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracing.install(tracing.Tracer())
"""


def test_benchmark_tracer_installs_on_the_program():
    # a subprocess, because install rebinds module attributes for good
    result = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "triagebench" / "tracing.py")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
