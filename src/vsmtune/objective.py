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

``eval_objective`` is the one evaluator: it factors ``A`` once and solves
for ``P``, which gives J. ``Q`` and the gradient are solved from the same
Schur factors when one of them is first read, so a caller that only
compares values (a rejected line-search trial) pays one factorization
and one triangular solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
# solve_lyapunov is unused here but stays bound: perfbench/traced.py wraps it by name.
from .lyapunov import schur_factor, solve_factored, solve_lyapunov  # noqa: F401
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
    """One objective evaluation: value split, gradient, and gramians.

    ``J_*`` and ``P`` are computed on construction; ``Q``, ``grad_m`` and
    ``grad_d`` on first read, from the Schur factors ``(T, U)`` of
    ``ss.A``, and are then cached.
    """

    J_h2: float
    J_reg: float
    J_total: float
    P: np.ndarray
    ss: StateSpace = field(repr=False)
    params: DeviceParams = field(repr=False)
    beta: float = field(repr=False)
    T: np.ndarray = field(repr=False)
    U: np.ndarray = field(repr=False)

    @cached_property
    def Q(self) -> np.ndarray:
        return solve_factored(self.T, self.U, self.ss.C.T @ self.ss.C, dual=True)

    @cached_property
    def _grad(self) -> tuple[np.ndarray, np.ndarray]:
        grad_m, grad_d = grad_h2(self.ss, self.params, P=self.P, Q=self.Q)
        return grad_m + 2.0 * self.beta * self.params.m, grad_d

    @property
    def grad_m(self) -> np.ndarray:
        return self._grad[0]

    @property
    def grad_d(self) -> np.ndarray:
        return self._grad[1]


def grad_h2(
    ss: StateSpace,
    params: DeviceParams,
    P: np.ndarray,
    Q: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact partials of the squared H2 norm w.r.t. each ``m_i`` and ``d_i``.

    ``P`` and ``Q`` are the gramians of ``ss``, from the caller's Schur
    factors. The omega-row of ``A`` for bus i scales with ``1/M_i``, so its
    m-derivative is ``-A[w_i, :] / M_i``; the d-derivative touches only
    the diagonal damping entry. ``B B^T`` and ``C^T C`` contribute the
    diagonal terms ``-2 M_i^-3`` (or the folded eta pattern) and ``+1``.
    """
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
    """Assemble the realization and evaluate the value; the gradient follows on first read.

    Raises ``StabilityError`` here, from the factorization, when the
    realization is not Hurwitz.
    """
    ss = assemble_state_space(net, params, ref_bus, eta=cfg.eta)
    T, U = schur_factor(ss.A)
    P = solve_factored(T, U, ss.B @ ss.B.T)
    J_h2 = float(np.trace(ss.C @ P @ ss.C.T))
    J_reg = float(cfg.beta * np.dot(params.m, params.m))
    return ObjectiveEval(
        J_h2=J_h2,
        J_reg=J_reg,
        J_total=J_h2 + J_reg,
        P=P,
        ss=ss,
        params=params,
        beta=cfg.beta,
        T=T,
        U=U,
    )


def objective_value(
    params: DeviceParams,
    cfg: ObjectiveConfig,
    net: ReducedNetwork,
    ref_bus: int,
) -> float:
    """``J_total`` of ``eval_objective``: the finite-difference oracle of the tests.

    ``optimizer.py`` keeps it bound because ``perfbench/traced.py`` wraps it there by name.
    """
    return eval_objective(params, cfg, net, ref_bus).J_total
