"""Regularized H2 objective and its exact gradient.

The design objective is

    J_total(m, d) = trace(C P C^T) + beta * ||m||^2

where ``P`` is the controllability gramian of the grounded realization.
The H2 part equals the impulse-response output energy and, by duality,
``trace(B^T Q B)`` with ``Q`` the observability gramian.

The gradient is evaluated from a single pair of gramian solves: for any
scalar parameter entering ``A``, ``B`` or ``C``,

    dJ/da = 2 trace(dA/da P Q) + trace(d(B B^T)/da Q) + trace(P d(C^T C)/da)

Each coefficient perturbs one omega-row of ``A`` and of ``B`` and one
diagonal entry of ``C^T C``, so all 2n partials reduce to O(n)
contractions of ``P Q`` and ``Q B`` instead of 2n extra Lyapunov solves.
One ``B`` term serves all channels and a known disturbance location
alike; it needs only that the omega-rows of ``B`` scale as ``1/M``.

``eval_objective`` is the one evaluator: it factors ``A`` once as a
``CayleyFactor`` (the Cayley transform, with the damping block eliminated
so that LAPACK sees only the (n-1)-square angle block), and
``solve_lyapunov`` sums ``P`` from that factor and the factor ``B`` of
``B B^T``, squaring the transform as it goes, which gives J.
``C = [0, M^(1/2)]`` makes ``C^T C`` diagonal, so ``J_h2 = w @ diag(P)``
with ``w = diag(C^T C)``. ``Q`` is summed from the same factor and
``C^T``, and the gradient formed, in the same call, so the factor is
freed when it returns.
A caller that passes ``reject_above`` pays less when J is above it: it is
the primal sum's stop rule, and the partial value
``J_reg + w @ diag(X_k)``, which only rises towards J, ends the
evaluation (None) as soon as it exceeds the bound. A rejected or failed
evaluation then skips the dual solve.

The dual sum may run on the process's one worker thread, beside the
primal sum (``_overlap``). numpy releases the interpreter lock inside
BLAS, so the two sums run at once: two threads on 199-square GEMMs gave
1.7-2.3 times one thread's throughput on 2 CPUs. A rejected or failed
evaluation stops the worker's sum at its next step and waits for it, so
no task outlives the call, and both ways give the same bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .lyapunov import CayleyFactor, RejectAbove, check_residual, solve_lyapunov
from .netmodel import DeviceParams, ReducedNetwork, StateSpace, assemble_state_space


# Smallest state count at which eval_objective sums the dual gramian on the
# worker. Below it the hand-off costs more than the overlap saves:
# optimize (max_iter 30) on seeded grids, OpenBLAS on one thread, 2 CPUs,
# ran 8% slower with the worker at 79-87 states, 1-3% faster at 91-95 (in
# 11 of 15 runs), 4-10% faster at 99-111 and 30% faster at 199. With
# OpenBLAS on two threads the worker made grid100 optimize 59% slower.
OVERLAP_MIN_STATES = 100

# The variables that set the BLAS thread count, in the order OpenBLAS and MKL
# read them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS")

_worker = None  # (pid, executor), started on first use


def _overlap(states: int) -> bool:
    """Whether an evaluation with ``states`` states sums its dual gramian on the worker.

    It needs ``OVERLAP_MIN_STATES`` states and a second CPU that BLAS
    leaves free: two or more CPUs in the process's affinity mask, and BLAS
    pinned to one thread by the first of its thread variables that is set.
    A multithreaded BLAS already uses the second CPU, and on one CPU the
    threads only interleave.
    """
    if states < OVERLAP_MIN_STATES:
        return False
    blas_threads = next((os.environ[v] for v in _BLAS_THREAD_VARS if os.environ.get(v)), "")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return blas_threads.strip() == "1" and cpus > 1


def _executor():
    """The process's one single-worker executor, a fresh one in a forked child.

    A forked child's copy of the parent's executor has no thread, so work
    submitted to it would never run. ``concurrent.futures`` is imported
    here, so a process that never overlaps does not pay for the import.
    """
    global _worker
    if _worker is None or _worker[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor

        _worker = (os.getpid(), ThreadPoolExecutor(max_workers=1, thread_name_prefix="vsmtune"))
    return _worker[1]


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
    """One objective evaluation: value split, both gramians, and the gradient.

    ``ss`` is the realization that ``P`` and ``Q`` solve, kept for
    ``check_residuals``.
    """

    J_h2: float
    J_reg: float
    J_total: float
    P: np.ndarray
    Q: np.ndarray
    grad_m: np.ndarray
    grad_d: np.ndarray
    ss: StateSpace = field(repr=False)

    def check_residuals(self) -> None:
        """Warn when ``P`` or ``Q`` misses the kernel's residual bound (``check_residual``)."""
        A, B, C = self.ss.A, self.ss.B, self.ss.C
        check_residual(A, self.P, B @ B.T, "P")
        check_residual(A.T, self.Q, C.T @ C, "Q")


def grad_h2(
    ss: StateSpace,
    params: DeviceParams,
    P: np.ndarray,
    Q: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact partials of the squared H2 norm w.r.t. each ``m_i`` and ``d_i``.

    ``P`` and ``Q`` are the gramians of ``ss``, from the caller's factor.
    The omega-rows of ``A`` and ``B`` for bus i scale with ``1/M_i``, as in
    every realization ``assemble_state_space`` builds, so their
    m-derivatives are ``-A[w_i, :] / M_i`` and ``-B[w_i, :] / M_i``; the
    d-derivative touches only the diagonal damping entry. ``B`` enters as
    ``-(2 / M_i) (Q B)[w_i, :] @ B[w_i, :]``, one term for all channels
    and for a folded ``eta`` alike, and ``C^T C`` as ``P[w_i, w_i]``.
    """
    na = ss.n_machines - 1
    M = params.m_total
    # Column i of PQw is (P Q)[:, w_i] for the omega state w_i = na + i.
    PQw = P @ Q[:, na:]
    a_term = -2.0 / M * np.einsum("ij,ji->i", ss.A[na:, :], PQw)
    b_term = -2.0 / M * np.einsum("ij,ij->i", Q[na:, :] @ ss.B, ss.B[na:, :])
    c_term = np.diagonal(P[na:, na:])
    grad_m = a_term + b_term + c_term
    grad_d = -2.0 / M * np.diagonal(PQw[na:, :])
    return grad_m, grad_d


def eval_objective(
    params: DeviceParams,
    cfg: ObjectiveConfig,
    net: ReducedNetwork,
    ref_bus: int,
    reject_above: float | None = None,
) -> ObjectiveEval | None:
    """Assemble the realization and evaluate the value, both gramians and the gradient.

    With ``reject_above``, returns None when ``J_total`` exceeds it or is
    NaN. The primal sum then stops at the first Smith step whose partial
    value ``J_reg + w @ diag(X_k)`` exceeds it, which is sound because
    that value only rises towards ``J_total``; the caller forms no further
    power, and the dual sum is skipped or, on the worker, stopped.

    Raises ``StabilityError`` when the realization is not Hurwitz and the
    evaluation is not rejected first.
    """
    ss = assemble_state_space(net, params, ref_bus, eta=cfg.eta)
    # A zero weight adds exactly 0, even where m @ m overflows.
    J_reg = float(cfg.beta * np.dot(params.m, params.m)) if cfg.beta else 0.0
    # C = [0, M^(1/2)], so C^T C is diagonal and trace(C P C^T) = w @ diag(P).
    w = np.einsum("ij,ij->j", ss.C, ss.C)
    reject = None if reject_above is None else RejectAbove(w, J_reg, reject_above)
    overlap = _overlap(len(ss.A))
    factor = CayleyFactor(ss.A)
    dual = _executor().submit(solve_lyapunov, factor, ss.C.T, True) if overlap else None
    Q = None
    try:
        P = solve_lyapunov(factor, ss.B, reject=reject)
        if P is None:
            return None
        J_h2 = float(w @ np.diagonal(P))
        J_total = J_h2 + J_reg
        if reject is not None and not J_total <= reject_above:
            return None
        Q = solve_lyapunov(factor, ss.C.T, dual=True) if dual is None else dual.result()
    finally:
        if Q is None and dual is not None:
            # Rejected or failed: the worker's sum stops at its next step; its outcome is dropped.
            factor.stop()
            dual.exception()
    grad_m, grad_d = grad_h2(ss, params, P=P, Q=Q)
    return ObjectiveEval(
        J_h2=J_h2,
        J_reg=J_reg,
        J_total=J_total,
        P=P,
        Q=Q,
        grad_m=grad_m + 2.0 * cfg.beta * params.m,
        grad_d=grad_d,
        ss=ss,
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
