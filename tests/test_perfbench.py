"""The benchmark drives the package through its public calls (Batch,
batch_predictions, export_module_outputs, StudentSequence and the CLI).  Its
self-test runs every workload at a tiny size, so a change that breaks one of
those calls fails here rather than only when the benchmark runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
