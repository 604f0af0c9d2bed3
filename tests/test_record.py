"""Tier-1 record of what CLI runs compute and how much work they take.

``tests/data/record.json`` names each recorded invocation and keeps its
arguments and results. Every run records its ``optimizer.eval_objective``
calls (evaluations). A run that writes ``summary.csv`` also records the
optimizer's iterations and ``J_final``, and a ``sweep-beta`` run the lists
of both, one entry per ``summary_b<k>.csv``; any other run records its
sorted output files, the line count of each ``trajectory*.csv`` and the
numeric fields of ``metrics.csv``. Each invocation runs in a child with
BLAS on one thread, so counts and digits are deterministic; on two or more
CPUs the grid100 run then sums its dual gramians on the worker thread.
Counts, files and line counts must match exactly, ``J_final`` to
``J_RTOL`` relative and the metrics to ``METRICS_RTOL``.

A change that moves a recorded value on purpose rewrites the record with::

    python tests/test_record.py --rewrite

and lists each moved value, with its reason, in CHANGES.md. A ``J_final``
that rises, or a count that grows, is a regression to report, not a
record to rewrite.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
RECORD_PATH = TESTS / "data" / "record.json"
J_RTOL = 1e-12
METRICS_RTOL = 1e-9
# An argument that stands for perfbench's grid100 seed 1 network, written for the run.
GRID100_SEED1 = "{grid100-seed1}"
# An argument that stands for the coefficients file of twelve-bus ``optimize
# --disturb-node 1``, written for the run; its evaluations are not counted.
TWELVE_DESIGN = "{twelve-bus-design}"


def record_run(argv: list[str]) -> dict:
    """Run ``vsmtune`` with ``argv`` in this process and return what the record keeps."""
    # Imported here, so that ``--rewrite`` runs without ``src`` on the path.
    import vsmtune as vt
    from vsmtune import cli, optimizer

    real = optimizer.eval_objective
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    with tempfile.TemporaryDirectory() as tmp:
        if GRID100_SEED1 in argv:
            from conftest import netgen  # conftest imports scipy, which the other runs skip

            grid = netgen.write_grid(vt, 1, Path(tmp) / "grid100.json")
            argv = [str(grid) if arg == GRID100_SEED1 else arg for arg in argv]
        if TWELVE_DESIGN in argv:
            design = Path(tmp) / "design"
            assert cli.main(["optimize", "--disturb-node", "1", "--out", str(design)]) == 0
            argv = [str(design / "coefficients.csv") if arg == TWELVE_DESIGN else arg
                    for arg in argv]
        optimizer.eval_objective = counting
        try:
            code = cli.main([*argv, "--out", str(Path(tmp) / "out")])
        finally:
            optimizer.eval_objective = real
        assert code == 0, f"exit {code}"
        out = Path(tmp) / "out"
        files = sorted(f.name for f in out.iterdir())

        def summary(name: str) -> tuple[int, float]:
            with open(out / name, newline="") as fh:
                (row,) = csv.DictReader(fh)
            return int(row["iterations"]), float(row["J_final"])

        if "summary.csv" in files:
            iterations, J_final = summary("summary.csv")
            return {"iterations": iterations, "evaluations": len(calls), "J_final": J_final}
        if "sweep.csv" in files:
            # Exit 0 means that no beta failed, so every summary_b<k>.csv is there.
            count = sum(name.startswith("summary_b") for name in files)
            runs = [summary(f"summary_b{k}.csv") for k in range(count)]
            return {"iterations": [it for it, _ in runs], "evaluations": len(calls),
                    "J_final": [J for _, J in runs]}
        lines = {name: (out / name).read_bytes().count(b"\n") for name in files
                 if name.startswith("trajectory")}
        with open(out / "metrics.csv", newline="") as fh:
            metrics = [[float(v) for k, v in row.items() if k != "variant"]
                       for row in csv.DictReader(fh)]
    return {"evaluations": len(calls), "files": files, "lines": lines, "metrics": metrics}


def run_in_child(argv: list[str]) -> dict:
    """``record_run(argv)`` in a child with BLAS on one thread, whatever this process has."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])}
    code = f"import json, test_record; print(json.dumps(test_record.record_run({argv!r})))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


RECORD = json.loads(RECORD_PATH.read_text())


@pytest.mark.parametrize("name", sorted(RECORD))
def test_run_matches_the_record(name):
    want = RECORD[name]
    got = run_in_child(want["argv"])
    assert set(got) == set(want) - {"argv"}
    exact = [key for key in got if key not in ("J_final", "metrics")]
    assert [got[key] for key in exact] == [want[key] for key in exact]
    if "J_final" in want:
        assert got["J_final"] == pytest.approx(want["J_final"], rel=J_RTOL, abs=0)
    else:
        assert got["metrics"] == [pytest.approx(row, rel=METRICS_RTOL, abs=0)
                                  for row in want["metrics"]]


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit(f"usage: python {sys.argv[0]} --rewrite")
    RECORD_PATH.write_text(json.dumps(
        {name: {"argv": entry["argv"], **run_in_child(entry["argv"])}
         for name, entry in RECORD.items()}, indent=1) + "\n")
