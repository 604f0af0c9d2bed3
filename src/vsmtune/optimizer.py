"""Spectral projected gradient over box-constrained device coefficients.

Iterates ``alpha <- Proj[alpha - gamma * grad J(alpha)]`` where
``alpha = [m, d]`` stacks the virtual inertia and damping vectors and
``Proj`` clamps to the box. Each iteration's first trial step is the
Barzilai-Borwein step ``s's / s'y`` from the last accepted step ``s`` and
gradient change ``y``; an Armijo line search along the projection arc
halves it until J decreases enough, and rejects trials whose dynamics
are not Hurwitz. A trial costs one Schur factorization and one triangular
solve, which give J; only the accepted trial's gradient is read, so only
it solves the dual gramian from the same factors, and that gradient
serves the next iteration.
Convergence is judged on the unit-step projected-gradient (KKT) residual
rather than the raw gradient norm, since optima routinely sit on the
box boundary.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParameterError, StabilityError
from .netmodel import DeviceParams, ReducedNetwork
# objective_value is unused here but stays bound: perfbench/traced.py wraps it by name.
from .objective import ObjectiveConfig, eval_objective, objective_value  # noqa: F401

log = logging.getLogger(__name__)

STEP_FLOOR = 1e-14
STEP_CAP = 1e10
SUFFICIENT_DECREASE = 1e-4
STEP_SHRINK = 0.5


class TerminationReason(str, enum.Enum):
    gradient_tol = "gradient_tol"
    max_iter = "max_iter"
    step_collapse = "step_collapse"


@dataclass(frozen=True)
class DescentConfig:
    """Termination settings and optional starting point for the descent loop."""

    max_iter: int = 5000
    grad_tol: float = 1e-6
    init_m: np.ndarray | None = None
    init_d: np.ndarray | None = None

    def __post_init__(self):
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be at least 1")
        if not 0 < self.grad_tol < np.inf:
            raise ConfigurationError("grad_tol must be positive and finite")


@dataclass(frozen=True)
class OptResult:
    """Optimizer output: final design, objective trace, termination info."""

    m_star: np.ndarray
    d_star: np.ndarray
    J_history: np.ndarray
    iterations: int
    converged: bool
    termination_reason: TerminationReason


def project(alpha: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Componentwise clamp of ``alpha`` to ``[lb, ub]``; idempotent."""
    alpha = np.asarray(alpha, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    if np.any(lb > ub):
        raise ConfigurationError("projection box has lb > ub in some component")
    return np.clip(alpha, lb, ub)


def optimize(
    net: ReducedNetwork,
    params: DeviceParams,
    cfg: ObjectiveConfig,
    dcfg: DescentConfig = DescentConfig(),
    ref_bus: int = 0,
) -> OptResult:
    """Minimize the regularized H2 objective over the coefficient box.

    The starting point is ``(dcfg.init_m, dcfg.init_d)`` when given and
    the box midpoint otherwise; it must lie inside the box and yield
    Hurwitz dynamics. With ``r(alpha) = alpha - Proj[alpha - grad J]``, the
    first trial step is ``1/||r(alpha_0)||_inf`` and later ones the
    Barzilai-Borwein step (``STEP_CAP`` when ``s'y <= 0``). Termination:
    unit-step residual ``||r(alpha)||_2`` below
    ``grad_tol * (1 + ||alpha_0||)``, the iteration cap, or the halved
    step falling below ``STEP_FLOOR``.
    """
    n = params.n
    lb = np.concatenate([params.m_lb, params.d_lb])
    ub = np.concatenate([params.m_ub, params.d_ub])

    mid_m, mid_d = params.box_midpoint()
    m0 = np.asarray(dcfg.init_m, dtype=float) if dcfg.init_m is not None else mid_m
    d0 = np.asarray(dcfg.init_d, dtype=float) if dcfg.init_d is not None else mid_d
    if m0.shape != (n,) or d0.shape != (n,):
        raise ConfigurationError("starting point has wrong dimension")
    alpha = np.concatenate([m0, d0])
    if np.any(alpha < lb) or np.any(alpha > ub):
        raise ConfigurationError("starting point is infeasible for the box bounds")

    def split(a: np.ndarray) -> DeviceParams:
        return params.with_design(a[:n], a[n:])

    tol = dcfg.grad_tol * (1.0 + float(np.linalg.norm(alpha)))

    ev = eval_objective(split(alpha), cfg, net, ref_bus)
    J = ev.J_total
    grad = np.concatenate([ev.grad_m, ev.grad_d])
    J_history = [J]
    iterations = 0
    converged = False

    while True:
        pg = alpha - project(alpha - grad, lb, ub)
        if float(np.linalg.norm(pg)) <= tol:
            converged = True
            reason = TerminationReason.gradient_tol
            break
        if iterations >= dcfg.max_iter:
            reason = TerminationReason.max_iter
            break

        gamma = bb_step if iterations else 1.0 / float(np.max(np.abs(pg)))
        accepted = None
        while gamma >= STEP_FLOOR:
            trial = project(alpha - gamma * grad, lb, ub)
            step = trial - alpha
            try:
                ev_trial = eval_objective(split(trial), cfg, net, ref_bus)
            except (StabilityError, ParameterError):
                gamma *= STEP_SHRINK
                continue
            if ev_trial.J_total <= J + SUFFICIENT_DECREASE * float(grad @ step):
                accepted = (trial, ev_trial)
                break
            gamma *= STEP_SHRINK

        if accepted is None:
            reason = TerminationReason.step_collapse
            break

        alpha, ev = accepted
        grad_prev, grad = grad, np.concatenate([ev.grad_m, ev.grad_d])
        sy = float(step @ (grad - grad_prev))
        bb_step = min(STEP_CAP, float(step @ step) / sy) if sy > 0 else STEP_CAP
        J = ev.J_total
        J_history.append(J)
        iterations += 1
        if log.isEnabledFor(logging.DEBUG) and iterations % 50 == 0:
            log.debug("iter %d: J=%.9g gamma=%.3g", iterations, J, gamma)

    return OptResult(
        m_star=alpha[:n].copy(),
        d_star=alpha[n:].copy(),
        J_history=np.asarray(J_history),
        iterations=iterations,
        converged=converged,
        termination_reason=reason,
    )
