"""vsmtune benchmark: CLI wall time and design quality, with a traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid100-design --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Each operation runs one ``vsmtune`` command in a fresh interpreter
(``python3 -m vsmtune.cli`` with ``PYTHONPATH=src``), BLAS pinned to one
thread, and checks every file it wrote. With ``--trace 0`` operations
repeat for ``--seconds`` and the end-to-end metrics are reported; with
``--trace 1`` one untraced and one traced operation run and the per-layer
metrics are reported. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Results, the
environment and the traced run's spans go to ``perfbench/results/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import KKT_REF_TOL  # noqa: E402
from workloads import GAP_ROUNDING, WORKLOADS, CheckError, Outcome  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
CACHE = BENCH / "_cache"
RESULTS = BENCH / "results"

CLI = [sys.executable, "-m", "vsmtune.cli"]
SETUP_REPEATS = 5
# A run must end within 180 s; children are killed at this deadline.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "J_gap_rel": "ratio",
    "kkt_residual": "pu",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "netfile.load_s": "s",
    "netmodel.reduce_s": "s",
    "netmodel.assemble_calls": "count",
    "netmodel.assemble_s": "s",
    "lyapunov.solve_calls": "count",
    "lyapunov.solve_s": "s",
    "lyapunov.schur_calls": "count",
    "lyapunov.hurwitz_calls": "count",
    "lyapunov.hurwitz_s": "s",
    "lyapunov.residual_rel": "ratio",
    "objective.eval_calls": "count",
    "objective.eval_s": "s",
    "objective.value_calls": "count",
    "objective.value_s": "s",
    "objective.grad_s": "s",
    "optimizer.iterations": "count",
    "optimizer.trials": "count",
    "optimizer.rejected_trials": "count",
    "optimizer.accept_ratio": "ratio",
    "optimizer.self_s": "s",
    "simulator.calls": "count",
    "simulator.simulate_s": "s",
    "simulator.steps_per_s": "1/s",
    "simulator.err_rel": "ratio",
    "trace.overhead_s": "s",
}

SETUP_PROBE = (
    "import sys\n"
    "import vsmtune as vt\n"
    "doc = vt.load_network(sys.argv[1])\n"
    "vt.reduce_network(doc.spec)\n"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Children cache bytecode as an installed package would, so after the
    # first set-up probe every timed import reads .pyc whatever the caller set.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list[str], log: Path, deadline: float) -> tuple[float, float, int]:
    """Run ``argv`` to completion: ``(wall_s, peak_rss_mb, exit_code)``.

    The child is killed at ``deadline`` (a ``time.monotonic`` value) and
    always reaped before this returns.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def tail(log: Path, lines: int = 5) -> str:
    return " | ".join(log.read_text(errors="replace").strip().splitlines()[-lines:])


class Run:
    """One benchmark run of one workload."""

    def __init__(self, vt, workload_cls, seed: int, seconds: int, trace: bool):
        self.vt = vt
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.name = workload_cls.name
        self.work = WORK / f"{self.name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        RESULTS.mkdir(parents=True, exist_ok=True)
        self.wl = workload_cls(vt, seed, WORK / "inputs", CACHE)
        self.ops: list[dict] = []
        self.problems: list[str] = []

    def op(self, prefix: list[str], label: str):
        """Run one command, check its outputs, record and return the op."""
        op_dir = self.work / label
        out = op_dir / "out"
        out.mkdir(parents=True)
        wall, rss, code = run_child(prefix + self.wl.argv(out), op_dir / "cli.log", self.deadline)
        outcome = Outcome()
        if code != 0:
            outcome.failures.append(f"exit code {code}: {tail(op_dir / 'cli.log')}")
        else:
            try:
                self.wl.check(out, outcome)
            except CheckError as exc:
                outcome.failures.append(str(exc))
        record = {
            "label": label,
            "wall_s": wall,
            "peak_rss_mb": rss,
            "exit_code": code,
            "output_bytes": sum(f.stat().st_size for f in out.rglob("*") if f.is_file()),
            "J_gap_rel": outcome.J_gap_rel if math.isfinite(outcome.J_gap_rel) else None,
            "kkt_residual": outcome.kkt_residual,
            "residual_rel": outcome.residual_rel,
            "sim_err_rel": outcome.sim_err_rel,
            "failures": outcome.failures,
        }
        self.ops.append(record)
        shutil.rmtree(out, ignore_errors=True)
        return record

    def check_recorded_reference(self) -> None:
        """Compare J_ref with the values recorded for the default seed."""
        recorded = json.loads((BENCH / "reference.json").read_text())
        key = f"{self.name}/seed={self.seed}" if self.wl.seeded else self.name
        for problem, value in recorded.get(key, {}).items():
            got = self.wl.refs.get(problem)
            if got is None or not math.isclose(got, value, rel_tol=1e-9):
                self.problems.append(f"J_ref {key} {problem}: {got!r} != recorded {value!r}")

    def setup_times(self, repeats: int) -> list[float]:
        """Wall times of fresh interpreters that import, load and reduce."""
        times = []
        for k in range(repeats):
            argv = [sys.executable, "-c", SETUP_PROBE, str(self.wl.network())]
            wall, _, code = run_child(argv, self.work / f"setup{k}.log", self.deadline)
            if code != 0:
                raise RuntimeError(f"set-up probe failed: {tail(self.work / f'setup{k}.log')}")
            times.append(wall)
        return times

    def end_to_end(self) -> dict[str, float]:
        setup = statistics.median(self.setup_times(SETUP_REPEATS))
        started = time.monotonic()
        while not self.ops or time.monotonic() - started < self.seconds:
            last = self.op(CLI, f"op{len(self.ops)}")
            if time.monotonic() + 1.5 * last["wall_s"] > self.deadline:
                break
        good = [op for op in self.ops if not op["failures"]]
        return {
            "wall_s": statistics.median(op["wall_s"] for op in self.ops),
            "setup_s": setup,
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in self.ops),
            # Floored at the reference's resolution: below it means "at the
            # optimum", and a zero would have no relative bound.
            "J_gap_rel": max([GAP_ROUNDING] + [op["J_gap_rel"] for op in good]),
            "kkt_residual": max([KKT_REF_TOL] + [op["kkt_residual"] for op in good]),
        }

    def per_layer(self) -> dict[str, float]:
        self.setup_times(1)  # fills the bytecode cache, as in end_to_end
        plain = self.op(CLI, "untraced")
        spans_file = RESULTS / f"{self.name}-seed{self.seed}-spans.json.gz"
        spans_file.unlink(missing_ok=True)
        traced = self.op([sys.executable, str(BENCH / "traced.py"), "--spans", str(spans_file),
                          "--"], "traced")
        if not spans_file.exists():
            raise RuntimeError(f"traced run wrote no spans: {traced['failures']}")
        with gzip.open(spans_file, "rt") as fh:
            with_spans = json.load(fh)
        s = with_spans["summary"]
        counts = with_spans["counts"]

        def calls(name):
            return s.get(name, {}).get("calls", 0)

        def self_s(name):
            return s.get(name, {}).get("self_s", 0.0)

        iterations = counts.get("optimizer.iterations", 0)
        trials = calls("objective.objective_value")
        sim_s = self_s("simulator.simulate")
        return {
            "cli.import_s": with_spans["import_s"],
            "cli.self_s": self_s("cli.main"),
            "cli.output_bytes": traced["output_bytes"],
            "netfile.load_s": self_s("netfile.load_network"),
            "netmodel.reduce_s": self_s("netmodel.reduce_network"),
            "netmodel.assemble_calls": calls("netmodel.assemble_state_space"),
            "netmodel.assemble_s": self_s("netmodel.assemble_state_space"),
            "lyapunov.solve_calls": calls("lyapunov.solve_lyapunov"),
            "lyapunov.solve_s": self_s("lyapunov.solve_lyapunov"),
            "lyapunov.schur_calls": counts.get("lyapunov.schur_calls", 0),
            "lyapunov.hurwitz_calls": calls("lyapunov.is_hurwitz"),
            "lyapunov.hurwitz_s": self_s("lyapunov.is_hurwitz"),
            "lyapunov.residual_rel": traced["residual_rel"],
            "objective.eval_calls": calls("objective.eval_objective"),
            "objective.eval_s": self_s("objective.eval_objective"),
            "objective.value_calls": trials,
            "objective.value_s": self_s("objective.objective_value"),
            "objective.grad_s": self_s("objective.grad_h2"),
            "optimizer.iterations": iterations,
            "optimizer.trials": trials,
            "optimizer.rejected_trials": trials - iterations,
            "optimizer.accept_ratio": iterations / trials if trials else 0.0,
            "optimizer.self_s": self_s("optimizer.optimize"),
            "simulator.calls": calls("simulator.simulate"),
            "simulator.simulate_s": sim_s,
            "simulator.steps_per_s": counts.get("simulator.steps", 0) / sim_s if sim_s else 0.0,
            "simulator.err_rel": traced["sim_err_rel"],
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        }

    def execute(self) -> dict:
        self.wl.prepare()
        self.check_recorded_reference()
        metrics = self.per_layer() if self.trace else self.end_to_end()
        units = PER_LAYER_UNITS if self.trace else END_TO_END_UNITS
        failed = sum(1 for op in self.ops if op["failures"])
        for op in self.ops:
            self.problems.extend(f"{op['label']}: {msg}" for msg in op["failures"])
        result = {
            "correct": not self.problems,
            "attempted": len(self.ops),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        record = {
            "workload": self.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "failed_ratio": failed / len(self.ops),
            "problems": self.problems,
            "J_ref": self.wl.refs,
            "ops": self.ops,
            "environment": environment(self.vt),
            "result": result,
        }
        path = RESULTS / f"{self.name}-seed{self.seed}-trace{int(self.trace)}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        shutil.rmtree(self.work, ignore_errors=True)
        return record


def environment(vt) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "vsmtune": vt.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
    }


def print_report(record: dict) -> None:
    result = record["result"]
    name = record["workload"]
    for key, metric in result["metrics"].items():
        print(f"{name:15s} {key:26s} {metric['value']:.6g} {metric['unit']}")
    print(f"{name:15s} {'failed_ratio':26s} {record['failed_ratio']:.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    for msg in record["problems"]:
        print(f"{name:15s} CHECK FAILED: {msg}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="vsmtune benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vsmtune" / "cli.py").is_file():
        print(f"error: vsmtune sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vsmtune as vt

    if not Path(vt.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported vsmtune from {vt.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = Run(vt, WORKLOADS[name], args.seed, args.seconds, bool(args.trace)).execute()
        print_report(record)
        records.append(record)
    results = [r["result"] for r in records]
    metrics = {
        (f"{r['workload']}/{k}" if len(records) > 1 else k): v
        for r in records for k, v in r["result"]["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
