"""The three benchmark workloads: inputs, CLI arguments and output checks.

Each workload turns a seed into input files (untimed), names the
``vsmtune`` command that one operation runs, and checks what that command
wrote. A check that fails is recorded as a message; the operation then
counts as failed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import netgen
from reference import (
    Problem,
    cached_reference,
    design_quality,
    exact_step_response,
    lyapunov_residuals,
    rel_err,
)

# Relative amount by which a design may undercut J_ref and still count as
# rounding; lower values mean the reference is not the optimum.
GAP_ROUNDING = 1e-9
# J_final in summary.csv against J recomputed from coefficients.csv.
J_MATCH_TOL = 1e-9
# RK4 at the CLI default dt reads below 1e-12 on these cases and an exact
# propagator ~1e-15; a wrong RK4 coefficient already reads ~3e-10.
SIM_ERR_TOL = 1e-10

DISTURB_BUS = 1
MAGNITUDE = 0.1
HORIZON = 25.0
DT = 1e-3
SWEEP_BETAS = (-0.1, 0.0, 0.1)
GRID_MAX_ITER = 30
COEFF_HEADER = ["bus", "m_hat", "d_hat", "m_opt", "d_opt", "m_lb", "m_ub", "d_lb", "d_ub"]


class CheckError(Exception):
    """An output file is missing, malformed or wrong."""


@dataclass
class Outcome:
    """What the checks of one operation found."""

    failures: list[str] = field(default_factory=list)
    J_gap_rel: float = -math.inf
    kkt_residual: float = 0.0
    residual_rel: float = 0.0
    sim_err_rel: float = 0.0

    def design(self, vt, prob: Problem, J_ref: float, m: np.ndarray, d: np.ndarray, label: str):
        """Record gap, KKT residual and gramian residual of one design."""
        J, kkt, ev = design_quality(vt, prob, m, d)
        gap = (J - J_ref) / abs(J_ref)
        if gap < -GAP_ROUNDING:
            self.failures.append(f"{label}: J={J!r} undercuts J_ref={J_ref!r}")
        ss = vt.assemble_state_space(prob.net, prob.params.with_design(m, d), prob.ref_bus,
                                     eta=prob.cfg.eta)
        rel, bound_ratio = lyapunov_residuals(ss, ev.P, ev.Q)
        if bound_ratio > 1.0:
            self.failures.append(f"{label}: Lyapunov residual exceeds the documented bound")
        self.J_gap_rel = max(self.J_gap_rel, gap)
        self.kkt_residual = max(self.kkt_residual, kkt)
        self.residual_rel = max(self.residual_rel, rel)
        return J

    def simulation(self, label: str, err: float):
        if not err <= SIM_ERR_TOL:
            self.failures.append(f"{label}: simulator error {err:.3e} > {SIM_ERR_TOL:g}")
        self.sim_err_rel = max(self.sim_err_rel, err)


def read_csv(path: Path, header: list[str]) -> list[dict[str, str]]:
    """Rows of a CLI CSV file whose header must equal ``header``."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
            got = reader.fieldnames
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        raise CheckError(f"{path.name}: {exc}") from exc
    if got != header:
        raise CheckError(f"{path.name}: header {got} != {header}")
    for row in rows:
        if None in row or None in row.values():
            raise CheckError(f"{path.name}: ragged row {row}")
    return rows


def num(row: dict[str, str], key: str, path: Path) -> float:
    try:
        return float(row[key])
    except ValueError:
        raise CheckError(f"{path.name}: {key}={row[key]!r} is not a number") from None


def read_design(path: Path, prob: Problem, gen_ids: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``(m, d)`` from a coefficients CSV, checked against the box."""
    rows = read_csv(path, COEFF_HEADER)
    by_bus = {row["bus"]: row for row in rows}
    if sorted(by_bus) != sorted(str(g) for g in gen_ids) or len(rows) != len(gen_ids):
        raise CheckError(f"{path.name}: buses {sorted(by_bus)} != generators {gen_ids}")
    m = np.array([num(by_bus[str(g)], "m_opt", path) for g in gen_ids])
    d = np.array([num(by_bus[str(g)], "d_opt", path) for g in gen_ids])
    p = prob.params
    if np.any(m < p.m_lb) or np.any(m > p.m_ub) or np.any(d < p.d_lb) or np.any(d > p.d_ub):
        raise CheckError(f"{path.name}: design leaves the box")
    return m, d


def write_design(path: Path, prob: Problem, gen_ids, m, d) -> None:
    """Coefficients CSV in the format ``vsmtune optimize`` writes."""
    p = prob.params
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COEFF_HEADER)
        for i, gid in enumerate(gen_ids):
            writer.writerow([gid] + [repr(float(v[i])) for v in
                                     (p.m_hat, p.d_hat, m, d, p.m_lb, p.m_ub, p.d_lb, p.d_ub)])


class _Case:
    """A network loaded through the public API, with its design problems."""

    def __init__(self, vt, network: Path):
        self.vt = vt
        self.text = network.read_text()
        doc = vt.load_network(network)
        self.net = vt.reduce_network(doc.spec)
        self.params = vt.device_params(doc, self.net.gen_ids)
        ref_id = doc.ref_bus if doc.ref_bus is not None else self.net.gen_ids[0]
        self.ref = self.net.index_of(ref_id)

    def problem(self, beta: float, disturb_bus: int | None) -> Problem:
        eta = None
        if disturb_bus is not None:
            eta = np.zeros(self.net.n)
            eta[self.net.index_of(disturb_bus)] = 1.0
        cfg = self.vt.ObjectiveConfig(beta=beta, eta=eta)
        return Problem(net=self.net, params=self.params, cfg=cfg, ref_bus=self.ref)

    def exact(self, m: np.ndarray, d: np.ndarray):
        ss = self.vt.assemble_state_space(self.net, self.params.with_design(m, d), self.ref)
        return exact_step_response(ss, self.net.index_of(DISTURB_BUS), MAGNITUDE, HORIZON, DT)


class Workload:
    """Base: ``prepare`` makes inputs, ``argv`` names the command, ``check`` reads outputs."""

    name = ""
    # Whether the inputs depend on the seed (else they are fixed).
    seeded = False

    def __init__(self, vt, seed: int, inputs: Path, cache: Path):
        self.vt = vt
        self.seed = seed
        self.inputs = inputs
        self.cache = cache
        self.refs: dict[str, float] = {}
        self._exact: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def network(self) -> Path:
        return self.vt.bundled_network_path()

    def _reference(self, case: _Case, prob: Problem) -> dict:
        return cached_reference(self.vt, prob, case.text, self.cache)

    def _exact_cached(self, case: _Case, m: np.ndarray, d: np.ndarray):
        key = m.tobytes() + d.tobytes()
        if key not in self._exact:
            self._exact[key] = case.exact(m, d)
        return self._exact[key]


class TwelveSweep(Workload):
    """The paper's beta trade-off: optimizer iterations and per-evaluation cost at n=9."""

    name = "twelve-sweep"

    def prepare(self) -> None:
        self.case = _Case(self.vt, self.network())
        self.problems = [self.case.problem(b, DISTURB_BUS) for b in SWEEP_BETAS]
        for beta, prob in zip(SWEEP_BETAS, self.problems):
            self.refs[f"beta={beta:g}"] = self._reference(self.case, prob)["J_ref"]

    def argv(self, out: Path) -> list[str]:
        betas = ",".join(f"{b:g}" for b in SWEEP_BETAS)
        return ["sweep-beta", f"--betas={betas}", "--disturb-node", str(DISTURB_BUS),
                "--known-location", "--out", str(out)]

    def check(self, out: Path, outcome: Outcome) -> None:
        path = out / "sweep.csv"
        rows = read_csv(path, ["beta", "status", "sum_m", "sum_d", "rocof_max", "nadir",
                               "settle_time", "error"])
        if len(rows) != len(SWEEP_BETAS):
            raise CheckError(f"sweep.csv: {len(rows)} rows, expected {len(SWEEP_BETAS)}")
        node = self.case.net.index_of(DISTURB_BUS)
        for k, (beta, prob, row) in enumerate(zip(SWEEP_BETAS, self.problems, rows)):
            label = f"beta={beta:g}"
            if num(row, "beta", path) != beta or row["status"] != "ok":
                raise CheckError(f"sweep.csv row {k}: {row}")
            m, d = read_design(out / f"coefficients_b{k}.csv", prob, self.case.net.gen_ids)
            for key, vec in (("sum_m", m), ("sum_d", d)):
                if not math.isclose(num(row, key, path), float(vec.sum()), rel_tol=1e-12):
                    raise CheckError(f"sweep.csv row {k}: {key} disagrees with coefficients")
            num(row, "settle_time", path)
            outcome.design(self.vt, prob, self.refs[label], m, d, label)
            rocof, nadir = self._exact_cached(self.case, m, d)
            err = max(rel_err(num(row, "rocof_max", path), rocof[node]),
                      rel_err(num(row, "nadir", path), nadir[node]))
            outcome.simulation(label, err)


class Grid100Design(Workload):
    """Dense linear algebra: gramian solves of a 199-state model dominate."""

    name = "grid100-design"
    seeded = True

    def network(self) -> Path:
        return self.inputs / f"grid100-seed{self.seed}.json"

    def prepare(self) -> None:
        netgen.write_grid(self.vt, self.seed, self.network())
        self.case = _Case(self.vt, self.network())
        self.prob = self.case.problem(0.0, None)
        self.refs["beta=0"] = self._reference(self.case, self.prob)["J_ref"]

    def argv(self, out: Path) -> list[str]:
        return ["optimize", "--network", str(self.network()), "--max-iter", str(GRID_MAX_ITER),
                "--out", str(out)]

    def check(self, out: Path, outcome: Outcome) -> None:
        m, d = read_design(out / "coefficients.csv", self.prob, self.case.net.gen_ids)
        conv_path, sum_path = out / "convergence.csv", out / "summary.csv"
        conv = read_csv(conv_path, ["iteration", "J_total"])
        summary = read_csv(sum_path, ["beta", "ref_bus", "formulation", "iterations", "converged",
                                      "termination_reason", "J_initial", "J_final"])
        if len(summary) != 1:
            raise CheckError("summary.csv: expected one row")
        row = summary[0]
        iterations = int(num(row, "iterations", sum_path))
        if not 0 <= iterations <= GRID_MAX_ITER or len(conv) != iterations + 1:
            raise CheckError(f"convergence.csv: {len(conv)} rows for {iterations} iterations")
        J_hist = [num(r, "J_total", conv_path) for r in conv]
        J_final = num(row, "J_final", sum_path)
        if J_hist[0] != num(row, "J_initial", sum_path) or J_hist[-1] != J_final:
            raise CheckError("summary.csv disagrees with convergence.csv")
        J = outcome.design(self.vt, self.prob, self.refs["beta=0"], m, d, "optimize")
        if not math.isclose(J, J_final, rel_tol=J_MATCH_TOL):
            outcome.failures.append(f"summary.csv: J_final={J_final!r}, recomputed J={J!r}")


class TwelveVerify(Workload):
    """Time-domain check of a fixed design: simulator, CSV output and import."""

    name = "twelve-verify"

    def coeffs(self) -> Path:
        return self.inputs / "twelve-verify-coefficients.csv"

    def prepare(self) -> None:
        self.case = _Case(self.vt, self.network())
        self.prob = self.case.problem(0.0, DISTURB_BUS)
        ref = self._reference(self.case, self.prob)
        self.refs["beta=0"] = ref["J_ref"]
        self.m_ref, self.d_ref = np.array(ref["m"]), np.array(ref["d"])
        self.inputs.mkdir(parents=True, exist_ok=True)
        write_design(self.coeffs(), self.prob, self.case.net.gen_ids, self.m_ref, self.d_ref)

    def argv(self, out: Path) -> list[str]:
        return ["compare", "--disturb-node", str(DISTURB_BUS), "--coeffs", str(self.coeffs()),
                "--out", str(out)]

    def check(self, out: Path, outcome: Outcome) -> None:
        gen_ids = self.case.net.gen_ids
        p = self.case.params
        designs = {
            "d_max_m_min": (p.m_lb, p.d_ub),
            "d_opt_m_opt": (self.m_ref, self.d_ref),
            "d_max_m_max": (p.m_ub, p.d_ub),
        }
        path = out / "metrics.csv"
        rows = read_csv(path, ["variant", "bus", "rocof_max", "nadir", "settle_time", "omega_ss"])
        if [(r["variant"], r["bus"]) for r in rows] != [
                (v, str(g)) for v in sorted(designs) for g in gen_ids]:
            raise CheckError("metrics.csv: unexpected variant/bus rows")
        steps = int(round(HORIZON / DT))
        for label in sorted(designs):
            vrows = [r for r in rows if r["variant"] == label]
            rocof = np.array([num(r, "rocof_max", path) for r in vrows])
            nadir = np.array([num(r, "nadir", path) for r in vrows])
            for r in vrows:
                num(r, "settle_time", path)
                num(r, "omega_ss", path)
            traj = self._trajectory(out / f"trajectory_{label}.csv", gen_ids, steps)
            if not np.allclose(np.abs(traj[:, 1:]).max(axis=0), nadir, rtol=1e-12, atol=0.0):
                raise CheckError(f"trajectory_{label}.csv disagrees with the nadir in metrics.csv")
            ex_rocof, ex_nadir = self._exact_cached(self.case, *designs[label])
            outcome.simulation(label, max(rel_err(rocof, ex_rocof), rel_err(nadir, ex_nadir)))
        outcome.design(self.vt, self.prob, self.refs["beta=0"], self.m_ref, self.d_ref,
                       "reference design")

    @staticmethod
    def _trajectory(path: Path, gen_ids, steps: int) -> np.ndarray:
        try:
            with open(path) as fh:
                header = fh.readline().rstrip("\r\n").split(",")
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise CheckError(f"{path.name}: {exc}") from exc
        if header != ["t"] + [f"omega_{g}" for g in gen_ids]:
            raise CheckError(f"{path.name}: header {header}")
        if data.shape != (steps + 1, len(gen_ids) + 1):
            raise CheckError(f"{path.name}: shape {data.shape}")
        if not np.allclose(data[:, 0], np.arange(steps + 1) * DT, rtol=0.0, atol=1e-12):
            raise CheckError(f"{path.name}: time column is not the sample grid")
        return data


WORKLOADS = {w.name: w for w in (TwelveSweep, Grid100Design, TwelveVerify)}
