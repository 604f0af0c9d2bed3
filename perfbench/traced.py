"""Run one ``vsmtune`` command in-process with spans at each layer boundary.

Usage::

    python3 perfbench/traced.py --spans FILE.json.gz -- <vsmtune arguments>

The package must be importable (``PYTHONPATH=src``). Each public function
that one layer calls in the next (``cli -> netfile/netmodel -> optimizer ->
objective -> lyapunov`` and ``cli -> simulator``) is replaced, in the
calling module's namespace, by a wrapper that records a span ``(name,
start, end, parent)``. scipy's ``schur`` entry points are wrapped as a
counter only, so their time stays inside ``lyapunov.solve_lyapunov``.
Spans stay in memory and are written, with counts and per-layer self
times, to ``FILE`` when the command returns.
"""

from __future__ import annotations

import argparse
import gzip
import json
import sys
import time

perf_counter = time.perf_counter


class Tracer:
    """Span recorder; spans of one run share this object."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent span or -1]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, module, attr: str, name: str, on_return=None) -> None:
        fn = getattr(module, attr)
        if name not in self.names:
            self.names.append(name)
        name_idx = self.names.index(name)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name_idx, perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        setattr(module, attr, wrapper)

    def counter(self, module, attr: str, key: str) -> None:
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        setattr(module, attr, wrapper)

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total time and self time per span name."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for (idx, start, end, _), child in zip(self.spans, child_time):
            entry = out[self.names[idx]]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child
        return out


def instrument(tracer: Tracer) -> None:
    """Wrap each layer boundary of the imported package."""
    import scipy.linalg
    import scipy.linalg._decomp_schur
    import scipy.linalg._solvers

    import vsmtune.cli as cli
    import vsmtune.lyapunov as lyapunov
    import vsmtune.objective as objective
    import vsmtune.optimizer as optimizer
    import vsmtune.simulator as simulator

    def on_optimize(result):
        tracer.count("optimizer.iterations", result.iterations)

    def on_simulate(result):
        tracer.count("simulator.steps", len(result.t) - 1)

    for mod in (cli, objective, simulator):
        tracer.wrap(mod, "assemble_state_space", "netmodel.assemble_state_space")
    for mod in (cli, simulator):
        tracer.wrap(mod, "simulate", "simulator.simulate", on_simulate)
    tracer.wrap(cli, "load_network", "netfile.load_network")
    tracer.wrap(cli, "device_params", "netfile.device_params")
    tracer.wrap(cli, "reduce_network", "netmodel.reduce_network")
    tracer.wrap(cli, "optimize", "optimizer.optimize", on_optimize)
    tracer.wrap(cli, "compare_designs", "simulator.compare_designs")
    tracer.wrap(optimizer, "eval_objective", "objective.eval_objective")
    tracer.wrap(optimizer, "objective_value", "objective.objective_value")
    tracer.wrap(objective, "grad_h2", "objective.grad_h2")
    tracer.wrap(objective, "solve_lyapunov", "lyapunov.solve_lyapunov")
    tracer.wrap(lyapunov, "is_hurwitz", "lyapunov.is_hurwitz")
    for mod in (scipy.linalg, scipy.linalg._decomp_schur, scipy.linalg._solvers):
        tracer.counter(mod, "schur", "lyapunov.schur_calls")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="traced in-process vsmtune run")
    parser.add_argument("--spans", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t0 = perf_counter()
    import vsmtune.cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    instrument(tracer)
    tracer.wrap(vsmtune.cli, "main", "cli.main")
    code = vsmtune.cli.main(cli_args)

    doc = {
        "argv": cli_args,
        "exit_code": code,
        "import_s": import_s,
        "names": tracer.names,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "summary": tracer.summary(),
    }
    with gzip.open(args.spans, "wt") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
