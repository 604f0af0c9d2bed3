import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

from vsmtune import objective

from conftest import netgen

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


def traced_optimize_calls(tmp_path, *args):
    """Span calls and iterations of a traced ``vsmtune optimize`` run."""
    spans = tmp_path / "spans.json.gz"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), "--spans", str(spans),
         "--", "optimize", "--out", str(tmp_path / "out"), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with gzip.open(spans, "rt") as fh:
        doc = json.load(fh)
    calls = {name: entry["calls"] for name, entry in doc["summary"].items()}
    iterations = doc["counts"]["optimizer.iterations"]
    assert iterations >= 1
    return calls, iterations


def test_traced_optimize_counts_every_gramian_solve(tmp_path):
    # Twelve-bus has 17 states, below OVERLAP_MIN_STATES. Each evaluation
    # solves its primal gramian, and the start point and each accepted step
    # solve the dual one. A renamed kernel would read 0.
    calls, iterations = traced_optimize_calls(tmp_path, "--max-iter", "2")
    assert calls["lyapunov.solve_lyapunov"] == calls["objective.eval_objective"] + iterations + 1


def test_traced_optimize_counts_worker_dual_solves(tmp_path):
    # grid100 seed 1 has 199 states. With a second CPU, every evaluation
    # starts one dual solve on the worker; without, as on twelve-bus. Its
    # first rejected trial comes in iteration 8, so the two counts differ.
    path = tmp_path / "grid.json"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "netgen.py"), "--seed", "1",
                    "--out", str(path)], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                   check=True, timeout=120)
    calls, iterations = traced_optimize_calls(tmp_path, "--network", str(path), "--max-iter", "8")
    evaluations = calls["objective.eval_objective"]
    assert evaluations > iterations + 1
    states = 2 * netgen.N_GENERATORS - 1
    assert states >= objective.OVERLAP_MIN_STATES
    dual_solves = evaluations if objective._overlap(states) else iterations + 1
    assert calls["lyapunov.solve_lyapunov"] == evaluations + dual_solves
