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
from collections import deque
from pathlib import Path

import numpy as np

from . import pool
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

# Named, not __name__: under ``python -m vsmtune.cli`` that would be __main__.
log = logging.getLogger("vsmtune.cli")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INVALID = 2

# Trajectory rows formatted per call of ``_csv_rows``, one task on the pool.
# Measured on compare --coeffs, twelve-bus, 2 CPUs, OpenBLAS on one thread:
# small blocks serialize the threads on bytes.translate, which holds the
# interpreter lock (82 ms at 1024 rows), and blocks above about 3000 rows
# page-fault their temporaries afresh (29k minor faults at 4096 rows, 21k
# at 3072): the whole command took a median 0.173-0.176 s at 3072 rows,
# 0.174-0.178 s at 2048-2560 and 0.182-0.184 s at 4096.
POOL_BLOCK = 3072

# _csv_rows makes digits exactly only when the long double is x87 extended
# (64-bit significand) or IEEE quad: both round each operation once, to a
# fixed precision. Elsewhere, double-double (nmant 105) included, every
# value takes the ``%`` fallback.
_EXTENDED = np.finfo(np.longdouble).nmant in (63, 112)
_U = np.uint64
# 10**k for k <= 27 in long double: 5**27 < 2**63, so each entry is exact.
_POW10 = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))
_X_MIN, _X_MAX = -11, 43
# Per decimal exponent X in [_X_MIN, _X_MAX], the little-endian words of
# the ``0.000`` prefix (bytes 1-5) and the ``e+XX`` suffix (bytes 24-27).
_PREFIX = np.array([int.from_bytes(b"0." + b"0" * (-x - 1), "little") << 8 if -4 <= x < 0 else 0
                    for x in range(_X_MIN, _X_MAX + 1)], dtype=np.uint64)
_SUFFIX = np.array([int.from_bytes(b"e%+03d" % x, "little") if x < -4 or x >= 17 else 0
                    for x in range(_X_MIN, _X_MAX + 1)], dtype=np.uint64)
# The low k bytes of a word, for k = 0..8.
_KEEP = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# Moves the point from byte 7 to after digit p: [0, 2..p+1, 1, p+2..17].
_POINT_AFTER = np.array([[0, *range(2, p + 2), 1, *range(p + 2, 18)] for p in range(17)])
_COMMA, _CRLF = (_U(int.from_bytes(s, "little") << 32) for s in (b",", b"\r\n"))


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
            # optimize's tolerance takes the norm of the box midpoint, and beta * (m @ m)
            # and its gradient 2 * beta * m peak on the box at m_ub: each must be finite.
            m_ub, flag = self.params.m_ub, "--betas" if hasattr(args, "betas") else "--beta"
            with np.errstate(over="ignore", invalid="ignore"):
                if not np.isfinite(np.linalg.norm(np.concatenate(self.params.box_midpoint()))):
                    raise ConfigurationError(
                        "--bounds: the norm of the coefficient box's midpoint overflows")
                for beta in getattr(args, "betas", [args.beta]):
                    reg = (beta * (m_ub @ m_ub), 2 * beta * m_ub.max())
                    if beta and not np.isfinite(reg).all():
                        raise ConfigurationError(f"{flag} {beta!r}: beta * (m_ub @ m_ub) or "
                                                 "2 * beta * max(m_ub) overflows")


def _metrics_rows(gen_ids, result: SimResult, prefix: tuple = ()):
    for i, gid in enumerate(gen_ids):
        yield prefix + (
            gid,
            result.rocof_max[i],
            result.nadir[i],
            result.settle_time[i],
            result.omega_ss[i],
        )


def _digit_bytes(v: np.ndarray) -> np.ndarray:
    """Words whose little-endian bytes are the eight decimal digits of each ``v < 10**8``.

    The most significant digit is byte 0. Each step splits every lane in
    two, by a multiply and shift that divide exactly in the lane's range:
    4+4 digits, then 2+2 (``*10486 >> 20`` is ``//100`` below 10**4), then
    1+1 (``*103 >> 10`` is ``//10`` below 100).
    """
    hi = v // _U(10_000)
    x = hi | ((v - hi * _U(10_000)) << _U(32))
    hi = ((x * _U(10486)) >> _U(20)) & _U(0x0000007F0000007F)
    x = hi | ((x - hi * _U(100)) << _U(16))
    hi = ((x * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    return hi | ((x - hi * _U(10)) << _U(8))


def _percent_fields(values: np.ndarray) -> np.ndarray:
    """``b"%.17g" % v`` for each value, one NUL-padded 28-byte row each."""
    fields = np.array([b"%.17g" % v for v in values.tolist()], dtype="S28")
    return fields.view(np.uint8).reshape(-1, 28)


def _csv_rows(block: np.ndarray) -> bytes:
    """CSV rows of a 2-D float block: ``%.17g`` fields, commas, CRLF ends.

    The bytes equal ``b"%.17g" % x`` for every value ``x``. A finite
    nonzero ``x`` with decimal exponent ``X`` in [-11, 43] gets its 17
    digits ``d = round(|x| * 10**(16 - X))`` from one long double multiply
    or divide by an exact power of ten. Below 1e17 the long double's
    spacing is at most 2**-7, so half-integers are representable and the
    one rounding of the product cannot cross one: rounding the product
    gives ``d`` unless it is itself a half-integer. Each field fills four
    little-endian words of a 32-byte slot: sign, ``0.000`` prefix, leading
    digit and point; eight digits; eight digits; ``e+XX`` and separator.
    Unused bytes and trailing zero digits are NUL, so deleting every NUL
    packs the fields. Every other value goes through ``b"%.17g" % x``
    into its slot: zeros, inf, nan, ``X`` outside the range, half-integer
    products, a ``log10`` that misses ``X`` by one, a carry to 1e17, and
    every value when the long double is neither x87 extended nor IEEE
    quad (``_EXTENDED``).
    """
    n_rows, n_cols = block.shape
    x = block.ravel()
    n = x.size
    fast = np.isfinite(x) & (x != 0) & _EXTENDED
    ax = np.where(fast, np.abs(x), 1.0)
    X = np.floor(np.log10(ax)).astype(np.int64)
    fast &= (X >= _X_MIN) & (X <= _X_MAX)
    X[~fast] = 0
    k = 16 - X
    y = ax.astype(np.longdouble) * _POW10[np.maximum(k, 0)]
    if (k < 0).any():
        y /= _POW10[np.maximum(-k, 0)]
    d = np.rint(y)
    fast &= (y >= 1e16) & (d < 1e17) & (np.abs((y - d).astype(np.float64)) != 0.5)
    lead, d = np.divmod(np.where(fast, d, 1e16).astype(np.uint64), _U(10**16))
    digits = _digit_bytes(np.concatenate(np.divmod(d, _U(10**8))))
    # Bytes up to the last nonzero digit; frexp is exact here since no
    # byte exceeds 9, so no word rounds up to a power of two.
    used = (np.frexp(digits.astype(np.float64))[1] + 7) // 8
    n_sig = 1 + np.where(digits[n:] != 0, 8 + used[n:], used[:n])
    sci = (X < -4) | (X >= 17)
    # %g keeps the integer digits of a fixed-point value and its point
    # follows digit X; in scientific notation it follows the first digit.
    shown = np.where(sci | (X < 0), n_sig, np.maximum(n_sig, X + 1))
    point = np.where(sci, 0, X)
    has_point = (point >= 0) & (shown > point + 1)
    words = np.empty((n, 4), np.uint64)
    words[:, 0] = (np.where(np.signbit(x), _U(ord("-")), _U(0)) | _PREFIX[X - _X_MIN]
                   | ((lead + _U(ord("0"))) << _U(48))
                   | np.where(has_point & (point == 0), _U(ord(".") << 56), _U(0)))
    digits += _U(int.from_bytes(b"0" * 8, "little"))
    words[:, 1] = digits[:n] & _KEEP[np.clip(shown - 1, 0, 8)]
    words[:, 2] = digits[n:] & _KEEP[np.clip(shown - 9, 0, 8)]
    words[:, 3] = _SUFFIX[X - _X_MIN] | np.tile([_COMMA] * (n_cols - 1) + [_CRLF], n_rows)
    text = words.astype("<u8", copy=False).view(np.uint8)
    inner = np.flatnonzero(has_point & (point > 0))
    if inner.size:
        text[inner, 7] = ord(".")
        text[inner, 6:24] = np.take_along_axis(text[inner, 6:24], _POINT_AFTER[point[inner]], 1)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text[slow, :28] = _percent_fields(x[slow])
    return text.tobytes().translate(None, b"\0")


def _row_blocks(result: SimResult):
    """``t`` and every bus's ``omega`` as one row per sample, ``POOL_BLOCK`` rows at a time."""
    rows = np.column_stack([result.t, result.omega.T])
    for start in range(0, len(rows), POOL_BLOCK):
        yield rows[start:start + POOL_BLOCK]


def _write_trajectories(gen_ids, files) -> None:
    """Write each ``(path, SimResult)`` of ``files`` as a trajectory CSV, one row per sample.

    Each file is byte-identical to ``_write_csv`` over the same values: the
    ``csv.writer`` header line, ``t`` and then ``omega_<bus>`` columns,
    ``%.17g`` for every float (``-0``, ``inf`` and ``nan`` included) and
    CRLF line ends. Every value is a float, so ``_csv_rows`` formats a
    block of rows at a time with numpy integer arithmetic, falling back to
    ``%`` for the few values it cannot make exactly.

    No file is opened before ``files`` is exhausted, so a simulation that
    raises while it is iterated leaves no trajectory file. Each result's
    ``POOL_BLOCK``-row blocks are queued on the process's pool as soon as
    it is taken from ``files``, and the files are then written in order,
    block by block, as their text is ready; up to every file's text may be
    held at once. No queued block outlives the call.
    """
    header = ",".join(["t"] + [f"omega_{gid}" for gid in gen_ids]).encode() + b"\r\n"
    queued = []
    try:
        for path, result in files:
            queued.append((path, deque(pool.executor().submit(_csv_rows, block)
                                       for block in _row_blocks(result))))
        for path, blocks in queued:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(header)
                # Each block leaves the deque, and its text is dropped, once written.
                fh.writelines(blocks.popleft().result() for _ in range(len(blocks)))
            log.info("wrote %s", path)
    finally:
        pool.drain(task for _, blocks in queued for task in blocks)


def _write_coefficients(path: Path, ctx: _Context, m: np.ndarray, d: np.ndarray) -> None:
    p = ctx.params
    header = ["bus", "m_hat", "d_hat", "m_opt", "d_opt", "m_lb", "m_ub", "d_lb", "d_ub"]
    rows = [
        (gid, p.m_hat[i], p.d_hat[i], m[i], d[i], p.m_lb[i], p.m_ub[i], p.d_lb[i], p.d_ub[i])
        for i, gid in enumerate(ctx.net.gen_ids)
    ]
    _write_csv(path, header, rows)


def _write_summary(path: Path, ctx: _Context, beta: float, result: OptResult) -> None:
    formulation = "known_location" if ctx.eta is not None else "unknown_location"
    _write_csv(
        path,
        ["beta", "ref_bus", "formulation", "iterations", "converged",
         "termination_reason", "J_initial", "J_final"],
        [(beta, ctx.ref_id, formulation, result.iterations, result.converged,
          result.termination_reason.value, result.J_history[0], result.J_history[-1])],
    )


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
    _write_summary(args.out / "summary.csv", ctx, args.beta, result)
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
    _write_trajectories(ctx.net.gen_ids, [(args.out / "trajectory.csv", result)])
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
    results = []

    def trajectories():
        # Each result as its simulation returns, so that formatting starts while the next runs.
        for label, res in compare_designs(
            ctx.net, variants, ctx.dist, horizon=args.horizon, dt=args.dt, ref_bus=ctx.ref_index
        ):
            results.append((label, res))
            yield args.out / f"trajectory_{label}.csv", res

    _write_trajectories(ctx.net.gen_ids, trajectories())
    metric_rows = []
    for label, res in results:
        for note in res.warnings:
            log.warning("%s: %s", label, note)
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
            _write_summary(args.out / f"summary_b{k}.csv", ctx, beta, result)
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
            p.add_argument("--dt", type=float, default=1e-3, help="sample interval (s)")

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
