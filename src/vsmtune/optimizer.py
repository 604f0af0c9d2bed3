"""Spectral projected gradient over box-constrained device coefficients.

Iterates ``alpha <- Proj[alpha - gamma * grad J(alpha)]`` where
``alpha = [m, d]`` stacks the virtual inertia and damping vectors and
``Proj`` clamps to the box. Each iteration's first trial step is the
Barzilai-Borwein step ``s's / s'y`` from the last accepted step ``s`` and
gradient change ``y``; an Armijo line search along the projection arc
halves it until J decreases enough, and rejects trials whose dynamics
are not Hurwitz. A halving whose clipped trial equals the one just
rejected is skipped without an evaluation. A trial costs at most one
Cayley factorization, whose only LAPACK calls act on the (n-1)-square
angle block, and one primal gramian solve from the factored right-hand
side ``B``, which give J. The trial passes its Armijo threshold to
``eval_objective`` as ``reject_above``, the stop rule of its primal
sum, so a trial whose partial Smith sum exceeds it stops before its
remaining squarings and certificate, rejected like a non-Hurwitz one.
Only an accepted trial solves the dual gramian from the same factor and
``C^T``, and its gradient serves the next iteration. At the final point
both gramians' Lyapunov residuals are checked, and a ``RuntimeWarning``
reports one that misses its bound.
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
    """Termination settings for the descent loop, which starts from ``params``' design."""

    max_iter: int = 5000
    grad_tol: float = 1e-6

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


def optimize(
    net: ReducedNetwork,
    params: DeviceParams,
    cfg: ObjectiveConfig,
    dcfg: DescentConfig = DescentConfig(),
    ref_bus: int = 0,
) -> OptResult:
    """Minimize the regularized H2 objective over the coefficient box.

    The starting point is the design ``(params.m, params.d)``, which
    ``DeviceParams`` has already checked against the box; it must yield
    Hurwitz dynamics. With ``r(alpha) = alpha - Proj[alpha - grad J]``, the
    first trial step is ``1/||r(alpha_0)||_inf`` and later ones the
    Barzilai-Borwein step (``STEP_CAP`` when ``s'y <= 0``). Termination:
    unit-step residual ``||r(alpha)||_2`` below
    ``grad_tol * (1 + ||alpha_mid||_2)``, with ``alpha_mid`` the box
    midpoint, so that every start stops at the same tolerance; the
    iteration cap; or the halved step falling below ``STEP_FLOOR``.
    """
    n = params.n
    # With every total damping positive (M > 0 and the network connected are
    # already checked), every design in the box is Hurwitz.
    undamped = [gid for gid, floor in zip(net.gen_ids, (params.d_hat + params.d_lb).tolist())
                if not floor > 0]
    if undamped:
        log.warning("total damping d_hat + d can reach 0 at buses %s, so not every "
                    "design in the box is guaranteed stable", undamped)
    lb = np.concatenate([params.m_lb, params.d_lb])
    ub = np.concatenate([params.m_ub, params.d_ub])
    alpha = np.concatenate([params.m, params.d])

    tol = dcfg.grad_tol * (1.0 + float(np.linalg.norm(np.concatenate(params.box_midpoint()))))

    ev = eval_objective(params, cfg, net, ref_bus)
    J = ev.J_total
    grad = np.concatenate([ev.grad_m, ev.grad_d])
    J_history = [J]
    iterations = 0
    converged = False

    while True:
        pg = alpha - np.clip(alpha - grad, lb, ub)
        if float(np.linalg.norm(pg)) <= tol:
            converged = True
            reason = TerminationReason.gradient_tol
            break
        if iterations >= dcfg.max_iter:
            reason = TerminationReason.max_iter
            break

        gamma = bb_step if iterations else 1.0 / float(np.max(np.abs(pg)))
        accepted = rejected = None
        while gamma >= STEP_FLOOR:
            trial = np.clip(alpha - gamma * grad, lb, ub)
            # A trial that clips to the last rejected one (None before the first)
            # would repeat its step, threshold and verdict, so it is not evaluated.
            if np.array_equal(trial, rejected):
                gamma *= STEP_SHRINK
                continue
            step = trial - alpha
            threshold = J + SUFFICIENT_DECREASE * float(grad @ step)
            try:
                ev_trial = eval_objective(
                    params.with_design(trial[:n], trial[n:]), cfg, net, ref_bus,
                    reject_above=threshold,
                )
            except (StabilityError, ParameterError):
                ev_trial = None
            if ev_trial is not None:
                accepted = (trial, ev_trial)
                break
            rejected = trial
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

    ev.check_residuals()

    return OptResult(
        m_star=alpha[:n].copy(),
        d_star=alpha[n:].copy(),
        J_history=np.asarray(J_history),
        iterations=iterations,
        converged=converged,
        termination_reason=reason,
    )
