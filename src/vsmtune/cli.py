"""Command-line front end.

Subcommands: ``reduce``, ``optimize``, ``simulate``, ``compare`` and
``sweep-beta``. Networks come from JSON files (defaulting to the bundled
twelve-bus dataset); results go to CSV files with a header row and all
floats at 17 significant digits so runs are exactly reproducible.

Exit codes: 0 on success, 1 for runtime or numerical failures (an
output file that cannot be written included), 2 for input validation
failures. ``VSMTUNE_LOG`` selects the log level.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    ParameterError,
    StabilityError,
    ValidationError,
    VsmtuneError,
)
from .netfile import (
    NetworkDocument,
    bundled_network_path,
    device_params,
    load_network,
)
from .netmodel import DeviceParams, ReducedNetwork, assemble_state_space, reduce_network
from .objective import ObjectiveConfig
from .optimizer import DescentConfig, OptResult, optimize
from .simulator import Disturbance, SimResult, compare_designs, sample_buffer, simulate

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INVALID = 2

# Trajectory rows formatted per bytes ``%`` operation. A 25,001-row,
# ten-column file took 81-85 ms for any block from 64 to 25,001 rows,
# against 100 ms for one ``%`` per row (2-core x86_64, Python 3.11, best
# of 7).
TRAJECTORY_BLOCK = 1024


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    log.info("wrote %s", path)


def _floats(text: str, flag: str) -> list[float]:
    if not text:
        raise ConfigurationError(f"{flag} requires at least one value")
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse {flag}: {exc}") from exc
    if not all(np.isfinite(values)):
        raise ConfigurationError(f"{flag} must be finite numbers, got {text!r}")
    return values


def _parse_bounds(text: str) -> dict[str, float]:
    if text.count(",") != 3:
        raise ConfigurationError("--bounds expects 'm_lb,m_ub,d_lb,d_ub'")
    return dict(zip(["m_lb", "m_ub", "d_lb", "d_ub"], _floats(text, "--bounds")))


def _seed_point(text: str | None, params: DeviceParams) -> DeviceParams:
    """``params`` with the ``--seed-point`` design, or ``params`` itself without the flag."""
    if text is None:
        return params
    parts = _floats(text, "--seed-point")
    n = params.n
    if len(parts) == 1:
        lam = parts[0]
        if not 0.0 <= lam <= 1.0:
            raise ConfigurationError("--seed-point fraction must lie in [0, 1]")
        return params.with_design(params.m_lb + lam * (params.m_ub - params.m_lb),
                                  params.d_lb + lam * (params.d_ub - params.d_lb))
    if len(parts) != 2 * n:
        raise ConfigurationError(
            f"--seed-point expects one interpolation fraction or {2 * n} comma-separated values"
        )
    try:
        return params.with_design(parts[:n], parts[n:])
    except ParameterError as exc:
        raise ConfigurationError(f"--seed-point lies outside the coefficient box: {exc}") from exc


def _load_coeffs(path: Path, gen_ids: tuple[int, ...], params: DeviceParams) -> DeviceParams:
    """``params`` with the per-bus m/d design of a coefficients CSV (optimize output)."""
    by_id: dict[int, tuple[float, float]] = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                bus = int(row["bus"])
                if bus in by_id:
                    raise ValidationError(f"coefficients file {path} repeats bus {bus}")
                by_id[bus] = (float(row["m_opt"]), float(row["d_opt"]))
                if not all(np.isfinite(by_id[bus])):
                    raise ValidationError(
                        f"coefficients file {path} has a non-finite m_opt or d_opt for bus {bus}"
                    )
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"cannot read coefficients file {path}: {exc}") from exc
    missing = [gid for gid in gen_ids if gid not in by_id]
    if missing:
        raise ValidationError(f"coefficients file {path} misses buses {missing}")
    foreign = sorted(set(by_id) - set(gen_ids))
    if foreign:
        raise ValidationError(
            f"coefficients file {path} lists buses {foreign} that are not generators of the network"
        )
    m = np.array([by_id[g][0] for g in gen_ids])
    d = np.array([by_id[g][1] for g in gen_ids])
    outside = []
    for name, values in (("m", m), ("d", d)):
        lb, ub = getattr(params, f"{name}_lb"), getattr(params, f"{name}_ub")
        for gid, value, lo, hi in zip(gen_ids, values.tolist(), lb.tolist(), ub.tolist()):
            if value < lo:
                outside.append(f"bus {gid} {name}_opt {value} is below {name}_lb {lo}")
            elif value > hi:
                outside.append(f"bus {gid} {name}_opt {value} is above {name}_ub {hi}")
    if outside:
        raise ValidationError(
            f"coefficients file {path} lies outside the coefficient box: {'; '.join(outside)}"
        )
    return params.with_design(m, d)


class _Context:
    """The network and every flag one command reads, checked before any work.

    ``_resolve_args`` has parsed the flags that need no network; this checks
    the rest against the loaded network, so that an input error exits 2
    before anything is optimized, simulated or written. An attribute that
    the command does not read is None, and the flags behind it go unchecked:

    - ``design``: the ``--coeffs`` design;
    - ``dist``: for ``simulate``, ``compare`` and ``sweep-beta``, the disturbance
      at the required generator ``--disturb-node``, on a grid ``sample_buffer`` accepts;
    - ``dcfg``, ``eta``: for ``optimize``, ``sweep-beta`` and ``compare`` without
      ``--coeffs``, the descent settings and the single-channel direction.

    ``params`` holds the coefficient box. When ``dcfg`` is set, its design is
    the ``--seed-point`` start, the box midpoint without that flag.
    """

    def __init__(self, args: argparse.Namespace):
        self.doc: NetworkDocument = load_network(args.network)
        self.net: ReducedNetwork = reduce_network(self.doc.spec)
        self.params: DeviceParams = device_params(self.doc, self.net.gen_ids, args.bounds)
        self.ref_id = args.ref_bus if args.ref_bus is not None else self.doc.ref_bus
        if self.ref_id is None:
            self.ref_id = self.net.gen_ids[0]
        self.ref_index = self.net.index_of(self.ref_id)
        coeffs = getattr(args, "coeffs", None)
        self.design: DeviceParams | None = None
        if coeffs is not None:
            self.design = _load_coeffs(coeffs, self.net.gen_ids, self.params)
        node_id = getattr(args, "disturb_node", None)
        node = None if node_id is None else self.net.index_of(node_id)
        self.dist: Disturbance | None = None
        if hasattr(args, "horizon"):
            if node is None:
                raise ConfigurationError("--disturb-node is required for this command")
            self.dist = Disturbance(args.disturb_kind, node, args.magnitude)
            sample_buffer(args.horizon, args.dt, 2 * self.net.n - 1)
        self.dcfg: DescentConfig | None = None
        self.eta: np.ndarray | None = None
        if hasattr(args, "max_iter") and coeffs is None:
            # optimize has no --known-location: its --disturb-node alone selects the model.
            if getattr(args, "known_location", node is not None):
                self.eta = np.eye(self.net.n)[node]
            self.params = _seed_point(args.seed_point, self.params)
            self.dcfg = DescentConfig(max_iter=args.max_iter, grad_tol=args.grad_tol)


def _metrics_rows(gen_ids, result: SimResult, prefix: tuple = ()):
    for i, gid in enumerate(gen_ids):
        yield prefix + (
            gid,
            result.rocof_max[i],
            result.nadir[i],
            result.settle_time[i],
            result.omega_ss[i],
        )


def _write_trajectory(path: Path, gen_ids, result: SimResult) -> None:
    """Write ``t`` and every bus's ``omega`` as one CSV row per sample.

    The file is byte-identical to ``_write_csv`` over the same values: the
    ``csv.writer`` header line, ``%.17g`` for every float (``-0``, ``inf``
    and ``nan`` included) and CRLF line ends. Every value is a float, so
    the rows are formatted ``TRAJECTORY_BLOCK`` at a time, each block by
    one bytes ``%`` with the row template repeated once per row. That
    leaves the float-to-text conversion as nearly the whole cost, and no
    more than one block of text is held at a time.
    """
    header = ["t"] + [f"omega_{gid}" for gid in gen_ids]
    rows = np.column_stack([result.t, result.omega.T])
    row_template = b",".join([b"%.17g"] * len(header)) + b"\r\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, len(rows), TRAJECTORY_BLOCK):
            block = rows[start:start + TRAJECTORY_BLOCK]
            fh.write((row_template * len(block)) % tuple(block.ravel().tolist()))
    log.info("wrote %s", path)


def _write_coefficients(path: Path, ctx: _Context, m: np.ndarray, d: np.ndarray) -> None:
    p = ctx.params
    header = ["bus", "m_hat", "d_hat", "m_opt", "d_opt", "m_lb", "m_ub", "d_lb", "d_ub"]
    rows = [
        (gid, p.m_hat[i], p.d_hat[i], m[i], d[i], p.m_lb[i], p.m_ub[i], p.d_lb[i], p.d_ub[i])
        for i, gid in enumerate(ctx.net.gen_ids)
    ]
    _write_csv(path, header, rows)


def _run_optimizer(ctx: _Context, beta: float) -> OptResult:
    obj = ObjectiveConfig(beta=beta, eta=ctx.eta)
    return optimize(ctx.net, ctx.params, obj, ctx.dcfg, ref_bus=ctx.ref_index)


def cmd_reduce(args: argparse.Namespace) -> int:
    ctx = _Context(args)
    net = ctx.net
    _write_csv(
        args.out / "reduced_generators.csv",
        ["bus", "m_hat", "d_hat"],
        [(gid, ctx.params.m_hat[i], ctx.params.d_hat[i]) for i, gid in enumerate(net.gen_ids)],
    )
    _write_csv(
        args.out / "reduced_laplacian.csv",
        ["bus"] + [str(g) for g in net.gen_ids],
        [(gid,) + tuple(net.L[i]) for i, gid in enumerate(net.gen_ids)],
    )
    print(
        f"reduced network: {net.n} generator buses {list(net.gen_ids)}, "
        f"eliminated load buses {list(ctx.doc.spec.load_ids)}"
    )
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    ctx = _Context(args)
    result = _run_optimizer(ctx, args.beta)
    _write_coefficients(args.out / "coefficients.csv", ctx, result.m_star, result.d_star)
    _write_csv(
        args.out / "convergence.csv",
        ["iteration", "J_total"],
        list(enumerate(result.J_history)),
    )
    _write_csv(
        args.out / "summary.csv",
        ["beta", "ref_bus", "formulation", "iterations", "converged",
         "termination_reason", "J_initial", "J_final"],
        [(
            args.beta,
            ctx.ref_id,
            "known_location" if ctx.eta is not None else "unknown_location",
            result.iterations,
            result.converged,
            result.termination_reason.value,
            result.J_history[0],
            result.J_history[-1],
        )],
    )
    print(
        f"optimize: J {result.J_history[0]:.6g} -> {result.J_history[-1]:.6g} "
        f"in {result.iterations} iterations ({result.termination_reason.value})"
    )
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    ctx = _Context(args)
    # No --coeffs: the lower bounds (minimal virtual support).
    params = ctx.design or ctx.params.with_design(ctx.params.m_lb, ctx.params.d_lb)
    ss = assemble_state_space(ctx.net, params, ctx.ref_index)
    result = simulate(ss, ctx.dist, horizon=args.horizon, dt=args.dt)
    for note in result.warnings:
        log.warning("%s", note)
    _write_trajectory(args.out / "trajectory.csv", ctx.net.gen_ids, result)
    _write_csv(
        args.out / "metrics.csv",
        ["bus", "rocof_max", "nadir", "settle_time", "omega_ss"],
        _metrics_rows(ctx.net.gen_ids, result),
    )
    print(f"simulate: {ctx.dist.kind} of {ctx.dist.magnitude} p.u. at bus {args.disturb_node}, "
          f"horizon {args.horizon}s")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    ctx = _Context(args)
    p = ctx.params
    design = ctx.design
    if design is None:
        result = _run_optimizer(ctx, args.beta)
        design = p.with_design(result.m_star, result.d_star)
    variants = [
        ("d_max_m_min", p.with_design(p.m_lb, p.d_ub)),
        ("d_opt_m_opt", design),
        ("d_max_m_max", p.with_design(p.m_ub, p.d_ub)),
    ]
    results = compare_designs(
        ctx.net, variants, ctx.dist, horizon=args.horizon, dt=args.dt, ref_bus=ctx.ref_index
    )
    metric_rows = []
    for label, res in results:
        for note in res.warnings:
            log.warning("%s: %s", label, note)
        _write_trajectory(args.out / f"trajectory_{label}.csv", ctx.net.gen_ids, res)
        metric_rows.extend(_metrics_rows(ctx.net.gen_ids, res, prefix=(label,)))
    _write_csv(
        args.out / "metrics.csv",
        ["variant", "bus", "rocof_max", "nadir", "settle_time", "omega_ss"],
        metric_rows,
    )
    print(f"compare: {len(results)} variants simulated at bus {args.disturb_node}")
    return EXIT_OK


def cmd_sweep_beta(args: argparse.Namespace) -> int:
    ctx = _Context(args)
    node = ctx.dist.node
    rows = []
    for k, beta in enumerate(args.betas):
        # Only a run's own dynamics fail one row; _Context has checked every input.
        try:
            result = _run_optimizer(ctx, beta)
            params = ctx.params.with_design(result.m_star, result.d_star)
            ss = assemble_state_space(ctx.net, params, ctx.ref_index)
            sim = simulate(ss, ctx.dist, horizon=args.horizon, dt=args.dt)
            for note in sim.warnings:
                log.warning("beta=%g: %s", beta, note)
            _write_coefficients(
                args.out / f"coefficients_b{k}.csv", ctx, result.m_star, result.d_star
            )
            rows.append((
                beta, "ok",
                float(result.m_star.sum()), float(result.d_star.sum()),
                sim.rocof_max[node], sim.nadir[node], sim.settle_time[node],
                "",
            ))
        except StabilityError as exc:
            log.error("beta=%g failed: %s", beta, exc)
            rows.append((beta, "failed", "", "", "", "", "", str(exc)))
    _write_csv(
        args.out / "sweep.csv",
        ["beta", "status", "sum_m", "sum_d", "rocof_max", "nadir", "settle_time", "error"],
        rows,
    )
    n_ok = sum(1 for r in rows if r[1] == "ok")
    print(f"sweep-beta: {n_ok}/{len(rows)} runs succeeded")
    return EXIT_OK if n_ok == len(rows) else EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsmtune",
        description="Design per-bus virtual inertia/damping coefficients and "
                    "verify them in the time domain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, sim: bool = False, opt: bool = False):
        p.add_argument("--network", default=None,
                       help="network JSON file (default: bundled twelve_bus dataset)")
        p.add_argument("--out", default=".", help="output directory for CSV files")
        p.add_argument("--ref-bus", type=int, default=None,
                       help="reference generator bus id (default: from file, else first)")
        p.add_argument("--bounds", default=None,
                       help="global bound override 'm_lb,m_ub,d_lb,d_ub'")
        if opt:
            p.add_argument("--beta", type=float, default=0.0,
                           help="inertia regularization weight (may be negative)")
            p.add_argument("--max-iter", type=int, default=5000)
            p.add_argument("--grad-tol", type=float, default=1e-6,
                           help="projected-gradient convergence tolerance")
            p.add_argument("--seed-point", default=None,
                           help="start: interpolation fraction in [0,1] or 2n comma values")
        if sim:
            p.add_argument("--disturb-node", type=int, default=None,
                           help="disturbed generator bus id")
            p.add_argument("--disturb-kind", choices=["step", "impulse"], default="step")
            p.add_argument("--magnitude", type=float, default=0.1,
                           help="disturbance size in p.u. power")
            p.add_argument("--horizon", type=float, default=25.0, help="simulation length (s)")
            p.add_argument("--dt", type=float, default=1e-3, help="integration step (s)")

    p_reduce = sub.add_parser("reduce", help="Kron-reduce load buses, emit the Laplacian")
    add_common(p_reduce)

    p_opt = sub.add_parser("optimize", help="solve for optimal coefficients")
    add_common(p_opt, opt=True)
    p_opt.add_argument("--disturb-node", type=int, default=None,
                       help="known disturbance location; switches to the single-channel model")

    p_sim = sub.add_parser("simulate", help="time-domain response of one design")
    add_common(p_sim, sim=True)
    p_sim.add_argument("--coeffs", default=None,
                       help="coefficients CSV from 'optimize' (default: lower bounds)")

    p_cmp = sub.add_parser("compare", help="compare min/opt/max coefficient designs")
    add_common(p_cmp, sim=True, opt=True)
    p_cmp.add_argument("--coeffs", default=None,
                       help="coefficients CSV from 'optimize' (default: optimize inline)")
    p_cmp.add_argument("--known-location", action="store_true",
                       help="inline optimization uses the single-channel model at --disturb-node")

    p_swp = sub.add_parser("sweep-beta", help="optimize+simulate across regularization weights")
    add_common(p_swp, sim=True, opt=True)
    p_swp.add_argument("--betas", required=True,
                       help="comma-separated regularization weights (use --betas=-0.1,0 for negatives)")
    p_swp.add_argument("--known-location", action="store_true",
                       help="optimize the single-channel model at --disturb-node")
    return parser


def _resolve_args(args: argparse.Namespace) -> argparse.Namespace:
    """Parse the flags that argparse leaves as text; judge --out before any run."""
    args.network = Path(args.network if args.network is not None else bundled_network_path())
    args.out = Path(args.out)
    args.bounds = _parse_bounds(args.bounds) if args.bounds else None
    # The mkdir after the run fails unless the nearest existing ancestor of --out is a directory.
    ancestor = args.out
    while not ancestor.exists() and ancestor != ancestor.parent:
        ancestor = ancestor.parent
    if ancestor.exists() and not ancestor.is_dir():
        raise ConfigurationError(f"--out {args.out}: {ancestor} exists and is not a directory")
    if hasattr(args, "coeffs"):
        args.coeffs = Path(args.coeffs) if args.coeffs else None
    if hasattr(args, "betas"):
        args.betas = _floats(args.betas, "--betas")
    return args


COMMANDS = {
    "reduce": cmd_reduce,
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "sweep-beta": cmd_sweep_beta,
}


def main(argv: list[str] | None = None) -> int:
    # Only a name that logging binds to an int is a level; BASIC_FORMAT is a format string.
    level = getattr(logging, os.environ.get("VSMTUNE_LOG", "warning").upper(), None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](_resolve_args(args))
    except (ValidationError, ConfigurationError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except VsmtuneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        # Reading inputs maps its OSErrors to ValidationError, so these come from writing.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
