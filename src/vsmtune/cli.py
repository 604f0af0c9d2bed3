"""Command-line front end.

Subcommands: ``reduce``, ``optimize``, ``simulate``, ``compare`` and
``sweep-beta``. Networks come from JSON files (defaulting to the bundled
twelve-bus dataset); results go to CSV files with a header row and all
floats at 17 significant digits so runs are exactly reproducible.

Exit codes: 0 on success, 1 for runtime or numerical failures, 2 for
input validation failures. ``VSMTUNE_LOG`` selects the log level.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    ParameterError,
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
from .simulator import Disturbance, SimResult, compare_designs, simulate

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INVALID = 2


@dataclass
class RunConfig:
    network_file: Path
    output_dir: Path
    ref_bus: int | None = None
    beta: float = 0.0
    bounds: dict[str, float] | None = None
    disturb_node: int | None = None
    disturb_kind: str = "step"
    magnitude: float = 0.1
    horizon: float = 25.0
    dt: float = 1e-3
    max_iter: int = 5000
    grad_tol: float = 1e-6
    seed_point: str | None = None
    coeffs_file: Path | None = None
    betas: list[float] = field(default_factory=list)
    known_location: bool = False


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


class _Context:
    """Everything derived from the network file that commands share."""

    def __init__(self, cfg: RunConfig):
        self.doc: NetworkDocument = load_network(cfg.network_file)
        self.net: ReducedNetwork = reduce_network(self.doc.spec)
        self.params: DeviceParams = device_params(self.doc, self.net.gen_ids, cfg.bounds)
        ref_id = cfg.ref_bus if cfg.ref_bus is not None else self.doc.ref_bus
        if ref_id is None:
            ref_id = self.net.gen_ids[0]
        self.ref_index = self.net.index_of(ref_id)
        self.ref_id = ref_id

    def node_index(self, bus_id: int) -> int:
        return self.net.index_of(bus_id)


def _parse_bounds(text: str) -> dict[str, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigurationError("--bounds expects 'm_lb,m_ub,d_lb,d_ub'")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse --bounds: {exc}") from exc
    return dict(zip(["m_lb", "m_ub", "d_lb", "d_ub"], values))


def _seed_point(cfg: RunConfig, params: DeviceParams) -> tuple[np.ndarray | None, np.ndarray | None]:
    if cfg.seed_point is None:
        return None, None
    try:
        parts = [float(p) for p in cfg.seed_point.split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse --seed-point: {exc}") from exc
    n = params.n
    if len(parts) == 1:
        lam = parts[0]
        if not 0.0 <= lam <= 1.0:
            raise ConfigurationError("--seed-point fraction must lie in [0, 1]")
        m0 = params.m_lb + lam * (params.m_ub - params.m_lb)
        d0 = params.d_lb + lam * (params.d_ub - params.d_lb)
        return m0, d0
    if len(parts) == 2 * n:
        return np.asarray(parts[:n]), np.asarray(parts[n:])
    raise ConfigurationError(
        f"--seed-point expects one interpolation fraction or {2 * n} comma-separated values"
    )


def _descent_config(cfg: RunConfig, params: DeviceParams) -> DescentConfig:
    init_m, init_d = _seed_point(cfg, params)
    return DescentConfig(
        max_iter=cfg.max_iter,
        grad_tol=cfg.grad_tol,
        init_m=init_m,
        init_d=init_d,
    )


def _disturbance(cfg: RunConfig, ctx: _Context) -> Disturbance:
    if cfg.disturb_node is None:
        raise ConfigurationError("--disturb-node is required for this command")
    return Disturbance(
        kind=cfg.disturb_kind,
        node=ctx.node_index(cfg.disturb_node),
        magnitude=cfg.magnitude,
    )


def _load_coeffs(path: Path, gen_ids: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read per-bus m/d values from a coefficients CSV (optimize output)."""
    by_id: dict[int, tuple[float, float]] = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                bus = int(row["bus"])
                if bus in by_id:
                    raise ValidationError(f"coefficients file {path} repeats bus {bus}")
                by_id[bus] = (float(row["m_opt"]), float(row["d_opt"]))
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
    return m, d


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

    Every value is a float, so one ``%.17g`` template per row prints the
    same text as ``_write_csv`` (``-0``, ``inf`` and ``nan`` included),
    with the same CRLF terminator as ``csv.writer``, at a fraction of
    the per-value cost.
    """
    header = ["t"] + [f"omega_{gid}" for gid in gen_ids]
    rows = np.column_stack([result.t, result.omega.T])
    template = ",".join(["%.17g"] * len(header)) + "\r\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(template % tuple(row) for row in rows.tolist())
    log.info("wrote %s", path)


def _write_coefficients(path: Path, ctx: _Context, m: np.ndarray, d: np.ndarray) -> None:
    p = ctx.params
    header = ["bus", "m_hat", "d_hat", "m_opt", "d_opt", "m_lb", "m_ub", "d_lb", "d_ub"]
    rows = [
        (gid, p.m_hat[i], p.d_hat[i], m[i], d[i], p.m_lb[i], p.m_ub[i], p.d_lb[i], p.d_ub[i])
        for i, gid in enumerate(ctx.net.gen_ids)
    ]
    _write_csv(path, header, rows)


def _run_optimizer(
    cfg: RunConfig, ctx: _Context, known_location: bool
) -> tuple[OptResult, ObjectiveConfig]:
    eta = None
    if known_location:
        if cfg.disturb_node is None:
            raise ConfigurationError("--known-location requires --disturb-node")
        eta = np.zeros(ctx.net.n)
        eta[ctx.node_index(cfg.disturb_node)] = 1.0
    obj = ObjectiveConfig(beta=cfg.beta, eta=eta)
    dcfg = _descent_config(cfg, ctx.params)
    result = optimize(ctx.net, ctx.params, obj, dcfg, ref_bus=ctx.ref_index)
    return result, obj


def cmd_reduce(cfg: RunConfig) -> int:
    ctx = _Context(cfg)
    net = ctx.net
    _write_csv(
        cfg.output_dir / "reduced_generators.csv",
        ["bus", "m_hat", "d_hat"],
        [(gid, ctx.params.m_hat[i], ctx.params.d_hat[i]) for i, gid in enumerate(net.gen_ids)],
    )
    _write_csv(
        cfg.output_dir / "reduced_laplacian.csv",
        ["bus"] + [str(g) for g in net.gen_ids],
        [(gid,) + tuple(net.L[i]) for i, gid in enumerate(net.gen_ids)],
    )
    removed = [b.id for b in ctx.doc.spec.buses if b.kind == "load"]
    print(
        f"reduced network: {net.n} generator buses {list(net.gen_ids)}, "
        f"eliminated load buses {removed}"
    )
    return EXIT_OK


def cmd_optimize(cfg: RunConfig) -> int:
    ctx = _Context(cfg)
    # A stated disturbance location switches to the single-channel model.
    result, obj = _run_optimizer(cfg, ctx, known_location=cfg.disturb_node is not None)
    _write_coefficients(cfg.output_dir / "coefficients.csv", ctx, result.m_star, result.d_star)
    _write_csv(
        cfg.output_dir / "convergence.csv",
        ["iteration", "J_total"],
        list(enumerate(result.J_history)),
    )
    _write_csv(
        cfg.output_dir / "summary.csv",
        ["beta", "ref_bus", "formulation", "iterations", "converged",
         "termination_reason", "J_initial", "J_final"],
        [(
            cfg.beta,
            ctx.ref_id,
            "known_location" if obj.eta is not None else "unknown_location",
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


def _params_for_simulation(cfg: RunConfig, ctx: _Context) -> DeviceParams:
    if cfg.coeffs_file is not None:
        m, d = _load_coeffs(cfg.coeffs_file, ctx.net.gen_ids)
        return ctx.params.with_design(m, d)
    # No explicit design: fall back to the lower bounds (minimal virtual support).
    return ctx.params.with_design(ctx.params.m_lb, ctx.params.d_lb)


def cmd_simulate(cfg: RunConfig) -> int:
    ctx = _Context(cfg)
    params = _params_for_simulation(cfg, ctx)
    dist = _disturbance(cfg, ctx)
    ss = assemble_state_space(ctx.net, params, ctx.ref_index)
    result = simulate(ss, dist, horizon=cfg.horizon, dt=cfg.dt)
    for note in result.warnings:
        log.warning("%s", note)
    _write_trajectory(cfg.output_dir / "trajectory.csv", ctx.net.gen_ids, result)
    _write_csv(
        cfg.output_dir / "metrics.csv",
        ["bus", "rocof_max", "nadir", "settle_time", "omega_ss"],
        _metrics_rows(ctx.net.gen_ids, result),
    )
    print(f"simulate: {dist.kind} of {dist.magnitude} p.u. at bus {cfg.disturb_node}, "
          f"horizon {cfg.horizon}s")
    return EXIT_OK


def cmd_compare(cfg: RunConfig) -> int:
    ctx = _Context(cfg)
    if cfg.coeffs_file is not None:
        m_opt, d_opt = _load_coeffs(cfg.coeffs_file, ctx.net.gen_ids)
    else:
        result, _ = _run_optimizer(cfg, ctx, known_location=cfg.known_location)
        m_opt, d_opt = result.m_star, result.d_star
    p = ctx.params
    variants = [
        ("d_max_m_min", p.with_design(p.m_lb, p.d_ub)),
        ("d_opt_m_opt", p.with_design(m_opt, d_opt)),
        ("d_max_m_max", p.with_design(p.m_ub, p.d_ub)),
    ]
    dist = _disturbance(cfg, ctx)
    results = compare_designs(
        ctx.net, variants, dist, horizon=cfg.horizon, dt=cfg.dt, ref_bus=ctx.ref_index
    )
    metric_rows = []
    for label, res in results:
        _write_trajectory(cfg.output_dir / f"trajectory_{label}.csv", ctx.net.gen_ids, res)
        metric_rows.extend(_metrics_rows(ctx.net.gen_ids, res, prefix=(label,)))
    _write_csv(
        cfg.output_dir / "metrics.csv",
        ["variant", "bus", "rocof_max", "nadir", "settle_time", "omega_ss"],
        metric_rows,
    )
    print(f"compare: {len(results)} variants simulated at bus {cfg.disturb_node}")
    return EXIT_OK


def cmd_sweep_beta(cfg: RunConfig) -> int:
    ctx = _Context(cfg)
    if not cfg.betas:
        raise ConfigurationError("--betas requires at least one value")
    dist = _disturbance(cfg, ctx)
    node = dist.node
    rows = []
    for k, beta in enumerate(cfg.betas):
        sweep_cfg = replace(cfg, beta=beta)
        try:
            result, _ = _run_optimizer(sweep_cfg, ctx, known_location=cfg.known_location)
            params = ctx.params.with_design(result.m_star, result.d_star)
            ss = assemble_state_space(ctx.net, params, ctx.ref_index)
            sim = simulate(ss, dist, horizon=cfg.horizon, dt=cfg.dt)
            _write_coefficients(
                cfg.output_dir / f"coefficients_b{k}.csv", ctx, result.m_star, result.d_star
            )
            rows.append((
                beta, "ok",
                float(result.m_star.sum()), float(result.d_star.sum()),
                sim.rocof_max[node], sim.nadir[node], sim.settle_time[node],
                "",
            ))
        except VsmtuneError as exc:
            log.error("beta=%g failed: %s", beta, exc)
            rows.append((beta, "failed", "", "", "", "", "", str(exc)))
    _write_csv(
        cfg.output_dir / "sweep.csv",
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


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    network = args.network if args.network is not None else bundled_network_path()
    cfg = RunConfig(
        network_file=Path(network),
        output_dir=Path(args.out),
        ref_bus=args.ref_bus,
        bounds=_parse_bounds(args.bounds) if args.bounds else None,
    )
    for name in ("beta", "max_iter", "grad_tol", "seed_point",
                 "disturb_node", "disturb_kind", "magnitude", "horizon", "dt",
                 "known_location"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "coeffs", None):
        cfg.coeffs_file = Path(args.coeffs)
    if getattr(args, "betas", None):
        try:
            cfg.betas = [float(b) for b in args.betas.split(",")]
        except ValueError as exc:
            raise ConfigurationError(f"cannot parse --betas: {exc}") from exc
    return cfg


COMMANDS = {
    "reduce": cmd_reduce,
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "sweep-beta": cmd_sweep_beta,
}


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("VSMTUNE_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return COMMANDS[args.command](cfg)
    except (ValidationError, ConfigurationError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except VsmtuneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
