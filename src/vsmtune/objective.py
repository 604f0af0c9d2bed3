"""Regularized H2 objective and its exact gradient.

The design objective is

    J_total(m, d) = trace(C P C^T) + beta * ||m||^2

where ``P`` is the controllability gramian of the grounded realization.
The H2 part equals the impulse-response output energy and, by duality,
``trace(B^T Q B)`` with ``Q`` the observability gramian.

The gradient is evaluated from a single pair of gramian solves: for any
scalar parameter entering ``A``, ``B`` or ``C``,

    dJ/da = 2 trace(dA/da P Q) + trace(d(B B^T)/da Q) + trace(P d(C^T C)/da)

Each coefficient perturbs the matrices in a rank-structured way (one
omega-row of ``A``, one diagonal entry of ``B B^T`` and ``C^T C``), so
all 2n partials reduce to O(n) cheap contractions of ``P Q`` instead of
2n extra Lyapunov solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .lyapunov import solve_lyapunov
from .netmodel import DeviceParams, ReducedNetwork, StateSpace, assemble_state_space


@dataclass(frozen=True)
class ObjectiveConfig:
    """Objective settings: regularization weight and disturbance direction.

    ``beta`` may be negative; boundedness of the objective is then
    guaranteed only through the box constraints on ``m``.
    """

    beta: float = 0.0
    eta: np.ndarray | None = None

    def __post_init__(self):
        if not np.isfinite(self.beta):
            raise ConfigurationError("beta must be finite")
        if self.eta is not None:
            eta = np.asarray(self.eta, dtype=float)
            eta.setflags(write=False)
            object.__setattr__(self, "eta", eta)


@dataclass(frozen=True)
class ObjectiveEval:
    """One objective evaluation: value split, gradient, and gramians."""

    J_h2: float
    J_reg: float
    J_total: float
    grad_m: np.ndarray
    grad_d: np.ndarray
    P: np.ndarray
    Q: np.ndarray


def gramians(ss: StateSpace) -> tuple[np.ndarray, np.ndarray]:
    """Controllability and observability gramians of ``(A, B, C)``."""
    return solve_lyapunov(ss.A, ss.B @ ss.B.T, ss.C.T @ ss.C)


def h2_norm_sq(ss: StateSpace) -> float:
    """Squared H2 norm ``trace(C P C^T)`` of the realization."""
    P = solve_lyapunov(ss.A, ss.B @ ss.B.T)
    return float(np.trace(ss.C @ P @ ss.C.T))


def grad_h2(
    ss: StateSpace,
    params: DeviceParams,
    P: np.ndarray | None = None,
    Q: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact partials of the squared H2 norm w.r.t. each ``m_i`` and ``d_i``.

    The omega-row of ``A`` for bus i scales with ``1/M_i``, so its
    m-derivative is ``-A[w_i, :] / M_i``; the d-derivative touches only
    the diagonal damping entry. ``B B^T`` and ``C^T C`` contribute the
    diagonal terms ``-2 M_i^-3`` (or the folded eta pattern) and ``+1``.
    """
    if P is None or Q is None:
        P, Q = gramians(ss)
    na = ss.n_machines - 1
    M = params.m_total
    # Column i of PQw is (P Q)[:, w_i] for the omega state w_i = na + i.
    PQw = P @ Q[:, na:]
    a_term = -2.0 / M * np.einsum("ij,ji->i", ss.A[na:, :], PQw)
    if ss.eta is None:
        b_term = -2.0 * np.diagonal(Q[na:, na:]) / M**3
    else:
        b_term = -2.0 * ss.eta / M**2 * (Q[na:, :] @ ss.B[:, 0])
    c_term = np.diagonal(P[na:, na:])
    grad_m = a_term + b_term + c_term
    grad_d = -2.0 / M * np.diagonal(PQw[na:, :])
    return grad_m, grad_d


def eval_objective(
    params: DeviceParams,
    cfg: ObjectiveConfig,
    net: ReducedNetwork,
    ref_bus: int,
) -> ObjectiveEval:
    """Assemble the realization and evaluate value plus gradient."""
    ss = assemble_state_space(net, params, ref_bus, eta=cfg.eta)
    P, Q = gramians(ss)
    J_h2 = float(np.trace(ss.C @ P @ ss.C.T))
    J_reg = float(cfg.beta * np.dot(params.m, params.m))
    grad_m, grad_d = grad_h2(ss, params, P=P, Q=Q)
    grad_m = grad_m + 2.0 * cfg.beta * params.m
    return ObjectiveEval(
        J_h2=J_h2,
        J_reg=J_reg,
        J_total=J_h2 + J_reg,
        grad_m=grad_m,
        grad_d=grad_d,
        P=P,
        Q=Q,
    )


def objective_value(
    params: DeviceParams,
    cfg: ObjectiveConfig,
    net: ReducedNetwork,
    ref_bus: int,
) -> float:
    """Value-only evaluation (single gramian solve) for tests and finite differences.

    ``optimizer.py`` keeps it bound because ``perfbench/traced.py`` wraps it there by name.
    """
    ss = assemble_state_space(net, params, ref_bus, eta=cfg.eta)
    return h2_norm_sq(ss) + float(cfg.beta * np.dot(params.m, params.m))
