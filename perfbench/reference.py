"""Independent references the benchmark checks the program against.

* :func:`solve_reference` finds the reference optimum ``J_ref`` of a design
  problem with scipy's L-BFGS-B and a Barzilai-Borwein polish on the public
  ``eval_objective``, to a projected-gradient (KKT) residual of at most
  ``KKT_REF_TOL``.
* :func:`kkt_residual` is the first-order optimality certificate
  ``||alpha - Proj(alpha - grad J)||_inf`` for any design.
* :func:`exact_step_response` propagates the grounded dynamics with the
  zero-order-hold matrix exponential, which is exact for the piecewise
  constant input, and reads ROCOF and nadir at the same samples as the
  program's simulator.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize

KKT_REF_TOL = 1e-8
DESCENT_TOL = 1e-5
POLISH_STEPS = 200
MAX_ROUNDS = 3


@dataclass(frozen=True)
class Problem:
    """One design problem: network, box, objective settings, reference bus."""

    net: object
    params: object
    cfg: object
    ref_bus: int

    @property
    def lb(self) -> np.ndarray:
        return np.concatenate([self.params.m_lb, self.params.d_lb])

    @property
    def ub(self) -> np.ndarray:
        return np.concatenate([self.params.m_ub, self.params.d_ub])

    def evaluate(self, vt, m: np.ndarray, d: np.ndarray):
        """``eval_objective`` at design ``(m, d)``."""
        return vt.eval_objective(self.params.with_design(m, d), self.cfg, self.net, self.ref_bus)

    def cache_key(self, network_text: str, code_digest: str) -> str:
        eta = None if self.cfg.eta is None else self.cfg.eta.tolist()
        blob = json.dumps([network_text, float(self.cfg.beta), eta, self.ref_bus,
                           self.lb.tolist(), self.ub.tolist(), code_digest])
        return hashlib.sha256(blob.encode()).hexdigest()[:24]


def kkt_residual(alpha: np.ndarray, grad: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> float:
    """Projected-gradient residual with unit step, infinity norm."""
    return float(np.max(np.abs(alpha - np.clip(alpha - grad, lb, ub))))


def design_quality(vt, prob: Problem, m: np.ndarray, d: np.ndarray) -> tuple[float, float, object]:
    """``(J_total, kkt_residual, ObjectiveEval)`` of one design."""
    ev = prob.evaluate(vt, m, d)
    alpha = np.concatenate([m, d])
    grad = np.concatenate([ev.grad_m, ev.grad_d])
    return ev.J_total, kkt_residual(alpha, grad, prob.lb, prob.ub), ev


def solve_reference(vt, prob: Problem) -> dict:
    """Reference optimum: L-BFGS-B from the box midpoint, then a spectral polish.

    L-BFGS-B descends until its projected gradient is below ``DESCENT_TOL``.
    Its line search needs J to decrease, which near ``KKT_REF_TOL`` is below
    J's rounding, so Barzilai-Borwein projected-gradient steps, which use only
    gradients, take the KKT residual the rest of the way. Each round restarts
    L-BFGS-B from the best point found so far.
    """
    n = prob.params.n
    lb, ub = prob.lb, prob.ub
    evaluations = 0

    def fun(alpha: np.ndarray):
        nonlocal evaluations
        evaluations += 1
        alpha = np.clip(alpha, lb, ub)
        ev = prob.evaluate(vt, alpha[:n], alpha[n:])
        return ev.J_total, np.concatenate([ev.grad_m, ev.grad_d])

    alpha = np.concatenate(prob.params.box_midpoint())
    for _ in range(MAX_ROUNDS):
        res = minimize(fun, alpha, jac=True, method="L-BFGS-B", bounds=list(zip(lb, ub)),
                       options={"maxiter": 20000, "ftol": 0.0, "gtol": DESCENT_TOL, "maxcor": 20})
        alpha = np.clip(res.x, lb, ub)
        J, grad = fun(alpha)
        best = (kkt_residual(alpha, grad, lb, ub), J, alpha)
        prev = None
        for _ in range(POLISH_STEPS):
            if best[0] <= KKT_REF_TOL:
                break
            step = 1e-2
            if prev is not None:
                s, y = alpha - prev[0], grad - prev[1]
                if s @ y > 0:
                    step = (s @ s) / (s @ y)
            prev = (alpha, grad)
            alpha = np.clip(alpha - step * grad, lb, ub)
            J, grad = fun(alpha)
            best = min(best, (kkt_residual(alpha, grad, lb, ub), J, alpha), key=lambda b: b[0])
        if best[0] <= KKT_REF_TOL:
            return {"J_ref": best[1], "kkt": best[0], "m": best[2][:n].tolist(),
                    "d": best[2][n:].tolist(), "evaluations": evaluations}
        alpha = best[2]
    raise RuntimeError(f"reference solve stalled at KKT residual {best[0]:.3e} > {KKT_REF_TOL:g}")


def package_digest(vt) -> str:
    """sha256 of the package's Python sources."""
    digest = hashlib.sha256()
    for path in sorted(Path(vt.__file__).parent.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cached_reference(vt, prob: Problem, network_text: str, cache_dir: Path) -> dict:
    """:func:`solve_reference`, memoized on disk by problem and package source."""
    path = cache_dir / f"jref-{prob.cache_key(network_text, package_digest(vt))}.json"
    if path.exists():
        return json.loads(path.read_text())
    ref = solve_reference(vt, prob)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ref))
    tmp.replace(path)
    return ref


def exact_step_response(ss, node: int, magnitude: float, horizon: float, dt: float):
    """Per-bus ``(rocof_max, nadir)`` of a step at ``node``, sampled every ``dt``.

    Steps ``[x; 1]`` with ``expm(dt * [[A, B u], [0, 0]])``, so each sample is
    the exact solution up to rounding.
    """
    A, B = ss.A, ss.B
    dim = A.shape[0]
    na = ss.n_machines - 1
    col = 0 if B.shape[1] == 1 else node
    bu = B[:, col] * magnitude
    aug = np.zeros((dim + 1, dim + 1))
    aug[:dim, :dim] = A
    aug[:dim, dim] = bu
    E = expm(aug * dt)
    steps = int(round(horizon / dt))
    zs = np.empty((steps + 1, dim + 1))
    z = np.zeros(dim + 1)
    z[dim] = 1.0
    zs[0] = z
    Et = E.T.copy()
    for k in range(steps):
        z = z @ Et
        zs[k + 1] = z
    xs = zs[:, :dim]
    omega = xs[:, na:]
    rocof = np.abs(xs @ A.T + bu)[:, na:]
    return rocof.max(axis=0), np.abs(omega).max(axis=0)


def rel_err(value: np.ndarray, exact: np.ndarray) -> float:
    """``||value - exact||_inf / ||exact||_inf``."""
    value, exact = np.asarray(value, dtype=float), np.asarray(exact, dtype=float)
    return float(np.max(np.abs(value - exact)) / np.max(np.abs(exact)))


def lyapunov_residuals(ss, P: np.ndarray, Q: np.ndarray) -> tuple[float, float]:
    """Worst gramian residual, relative and against the ``lyapunov.py`` bound.

    Returns ``(rel, bound_ratio)`` maximized over the controllability and
    observability equations, where ``rel = ||res||_F / ||W||_F`` and
    ``bound_ratio = ||res||_F / (1e-8 * max(1, ||W||_F))``; the docstring of
    ``solve_lyapunov`` claims ``bound_ratio <= 1``.
    """
    A = ss.A
    rel = ratio = 0.0
    for res, W in ((A @ P + P @ A.T + ss.B @ ss.B.T, ss.B @ ss.B.T),
                   (A.T @ Q + Q @ A + ss.C.T @ ss.C, ss.C.T @ ss.C)):
        r, w = float(np.linalg.norm(res)), float(np.linalg.norm(W))
        rel = max(rel, r / w)
        ratio = max(ratio, r / (1e-8 * max(1.0, w)))
    return rel, ratio
