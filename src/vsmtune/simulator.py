"""Time-domain frequency-response simulation and metrics.

Integrates the grounded linear dynamics under a step or impulse power
disturbance and reports the classical frequency-response metrics per
bus: maximum rate of change of frequency (ROCOF), frequency nadir
(largest deviation), and settling time into a 2% band around the
steady state. The band is taken relative to ``max(|omega_ss|, nadir)``
so it stays meaningful for impulse responses that settle back to zero.

Integration uses the one-step map of the classical fourth-order
Runge-Kutta scheme, which for a constant-input linear system is the
affine map ``x+ = Phi x + Gamma B u`` with the matrix polynomial ``Phi``.
Because ``Gamma A = Phi - I``, that map is exactly ``x+ - x_eq =
Phi (x - x_eq)`` about the equilibrium ``A x_eq = -B u``, so sample k is
``x_eq + Phi^k (x(0) - x_eq)``. The trajectory is filled by power
doubling: the first ``f`` samples times ``Phi^f`` give the next ``f``,
and ``Phi^f`` is squared, so a horizon of K steps costs about log2(K)
matrix products instead of K matrix-vector products. ROCOF is read from
the state equation itself rather than from finite differences of the
samples, so the reported peak at t = 0 is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StabilityError, ValidationError
from .netmodel import DeviceParams, ReducedNetwork, StateSpace, assemble_state_space

STEP = "step"
IMPULSE = "impulse"

SETTLE_BAND_FRACTION = 0.02


@dataclass(frozen=True)
class Disturbance:
    """A power disturbance at one generator (index into the reduced order)."""

    kind: str
    node: int
    magnitude: float

    def __post_init__(self):
        if self.kind not in (STEP, IMPULSE):
            raise ValidationError(f"disturbance kind must be 'step' or 'impulse', got {self.kind!r}")
        if not np.isfinite(self.magnitude):
            raise ValidationError("disturbance magnitude must be finite")


@dataclass(frozen=True)
class SimResult:
    """Trajectories and per-bus frequency metrics.

    ``omega`` is n x T; ``settle_time`` entries are ``inf`` when the
    trajectory has not entered its settling band by the end of the
    horizon. ``warnings`` carries accuracy notes (e.g. the step size
    not resolving the fastest mode).
    """

    t: np.ndarray
    omega: np.ndarray
    rocof_max: np.ndarray
    nadir: np.ndarray
    settle_time: np.ndarray
    omega_ss: np.ndarray
    settle_band: np.ndarray
    warnings: tuple[str, ...] = ()


def _rk4_step_map(A: np.ndarray, dt: float) -> np.ndarray:
    """One-step RK4 propagator ``Phi`` of ``xdot = A x`` (about the equilibrium)."""
    hA = dt * A
    hA2 = hA @ hA
    hA3 = hA2 @ hA
    hA4 = hA3 @ hA
    return np.eye(A.shape[0]) + hA + hA2 / 2.0 + hA3 / 6.0 + hA4 / 24.0


def _fill_by_doubling(xs: np.ndarray, phi: np.ndarray) -> None:
    """Fill rows ``1..`` of ``xs`` with ``xs[k] = Phi^k xs[0]`` in place.

    Invariant: ``power = Phi^filled``, so the ``filled`` samples already
    written, times ``power``, are the next ``filled`` samples.
    """
    total = xs.shape[0]
    power = phi
    filled = 1
    while filled < total:
        m = min(filled, total - filled)
        np.matmul(xs[:m], power.T, out=xs[filled:filled + m])
        filled += m
        if filled < total:
            power = power @ power


def _settle_time(t: np.ndarray, dev: np.ndarray, band: float) -> float:
    """Earliest time after which |deviation| stays within the band.

    The band crossing between samples is refined by linear interpolation,
    so halving the step size leaves the result stable to integrator order.
    """
    outside = dev > band
    if not outside.any():
        return 0.0
    last_out = int(np.nonzero(outside)[0][-1])
    if last_out == len(dev) - 1:
        return float("inf")
    d0, d1 = dev[last_out], dev[last_out + 1]
    frac = (d0 - band) / (d0 - d1) if d0 > d1 else 1.0
    return float(t[last_out] + frac * (t[last_out + 1] - t[last_out]))


def simulate(
    ss: StateSpace,
    dist: Disturbance,
    horizon: float = 25.0,
    dt: float = 1e-3,
) -> SimResult:
    """Integrate the closed-loop response to one disturbance.

    A step is applied as a constant input from t = 0; an impulse is
    realized as the initial condition ``x(0) = B e_node * magnitude``.
    Requires a Hurwitz ``ss.A``; ``dt`` and ``horizon`` must be finite,
    ``horizon`` must cover at least 20 steps of size ``dt``, and the
    ``horizon / dt + 1`` samples of the state must fit in memory.
    """
    if not (np.isfinite(dt) and np.isfinite(horizon)):
        raise ValidationError(f"dt and horizon must be finite, got dt={dt}, horizon={horizon}")
    if dt <= 0:
        raise ValidationError("dt must be positive")
    if horizon < 20 * dt:
        raise ValidationError("horizon must cover at least 20 time steps")
    A, B = ss.A, ss.B
    n = ss.n_machines
    na = n - 1

    eigvals = np.linalg.eigvals(A)
    abscissa = float(np.max(eigvals.real))
    if abscissa >= 0.0:
        raise StabilityError(f"system matrix is not Hurwitz (spectral abscissa {abscissa:.3e})")

    warnings: list[str] = []
    tau_fastest = 1.0 / float(np.max(np.abs(eigvals)))
    if dt >= tau_fastest:
        warnings.append(
            f"dt={dt:g} does not resolve the fastest time constant {tau_fastest:.3g}s; "
            "metrics may be inaccurate"
        )

    if B.shape[1] == 1:
        col = 0
    else:
        if not 0 <= dist.node < B.shape[1]:
            raise ValidationError(f"disturbance node {dist.node} out of range")
        col = dist.node

    dim = A.shape[0]
    if dist.kind == STEP:
        u = np.zeros(B.shape[1])
        u[col] = dist.magnitude
        bu = B @ u
        x0 = np.zeros(dim)
    else:
        bu = np.zeros(dim)
        x0 = B[:, col] * dist.magnitude
    # Equilibrium A x_eq = -B u. Exact zeros when no input is sustained
    # keep omega_ss at +0.0 for impulses and zero-magnitude steps.
    x_eq = np.linalg.solve(A, -bu) if bu.any() else np.zeros(dim)

    try:
        steps = int(round(horizon / dt))
        xs = np.empty((steps + 1, dim))
    except (OverflowError, MemoryError, ValueError) as exc:
        raise ValidationError(
            f"horizon/dt asks for {horizon / dt + 1:.6g} samples of {dim} states, "
            "more than can be allocated"
        ) from exc
    t = np.arange(steps + 1) * dt
    xs[0] = x0 - x_eq
    _fill_by_doubling(xs, _rk4_step_map(A, dt))
    xs += x_eq

    omega = xs[:, na:].T
    # ROCOF straight from the dynamics: omega rows of A x + B u.
    xdot = xs @ A.T + bu
    rocof = np.abs(xdot[:, na:]).T
    rocof_max = rocof.max(axis=1)
    nadir = np.abs(omega).max(axis=1)
    omega_ss = x_eq[na:]

    band = SETTLE_BAND_FRACTION * np.maximum(np.abs(omega_ss), nadir)
    settle = np.array(
        [_settle_time(t, np.abs(omega[i] - omega_ss[i]), band[i]) for i in range(n)]
    )
    if np.isinf(settle).any():
        warnings.append("some buses did not settle within the horizon")

    return SimResult(
        t=t,
        omega=omega,
        rocof_max=rocof_max,
        nadir=nadir,
        settle_time=settle,
        omega_ss=omega_ss,
        settle_band=band,
        warnings=tuple(warnings),
    )


def compare_designs(
    net: ReducedNetwork,
    variants: list[tuple[str, DeviceParams]],
    dist: Disturbance,
    horizon: float = 25.0,
    dt: float = 1e-3,
    ref_bus: int = 0,
) -> list[tuple[str, SimResult]]:
    """Simulate several coefficient designs under one disturbance.

    Every variant sees the identical disturbance and grid; results are
    returned sorted by variant label so output ordering is deterministic.
    """
    labels = [label for label, _ in variants]
    if len(labels) != len(set(labels)):
        raise ValidationError("variant labels must be unique")
    results = []
    for label, params in sorted(variants, key=lambda lv: lv[0]):
        ss = assemble_state_space(net, params, ref_bus)
        results.append((label, simulate(ss, dist, horizon=horizon, dt=dt)))
    return results
