import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_run_finds_every_wrapped_name(tmp_path):
    # perfbench/traced.py wraps package functions by name; a renamed or
    # removed one makes it exit before the command runs.
    spans = tmp_path / "spans.json.gz"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), "--spans", str(spans),
         "--", "reduce", "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with gzip.open(spans, "rt") as fh:
        doc = json.load(fh)
    assert doc["exit_code"] == 0
    assert "cli.main" in doc["names"]


def test_traced_optimize_counts_every_gramian_solve(tmp_path):
    # Each evaluation solves its primal gramian, and the start point and
    # each accepted step solve the dual one. A renamed kernel would read 0.
    spans = tmp_path / "spans.json.gz"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), "--spans", str(spans),
         "--", "optimize", "--max-iter", "2", "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with gzip.open(spans, "rt") as fh:
        doc = json.load(fh)
    calls = {name: entry["calls"] for name, entry in doc["summary"].items()}
    iterations = doc["counts"]["optimizer.iterations"]
    assert iterations >= 1
    assert calls["lyapunov.solve_lyapunov"] == calls["objective.eval_objective"] + iterations + 1
