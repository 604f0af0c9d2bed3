"""Time-domain frequency-response simulation and metrics.

Samples the grounded linear dynamics under a step or impulse power
disturbance and reports the classical frequency-response metrics per
bus: maximum rate of change of frequency (ROCOF), frequency nadir
(largest deviation), and settling time into a 2% band around the
steady state. The band is taken relative to ``max(|omega_ss|, nadir)``
so it stays meaningful for impulse responses that settle back to zero.

The samples are exact to rounding at any ``dt``: about the equilibrium
``A x_eq = -B u`` of a constant input, ``x(k dt) - x_eq = Phi^k (x(0) -
x_eq)`` with the zero-order-hold propagator ``Phi = exp(A dt)``. ``Phi`` is
the Taylor series of ``X = A dt / 2^s`` to degree ``TAYLOR_DEGREE``, with
``s >= 0`` the smallest integer that gives ``||X||_1 <= 1/2``, squared
``s`` times ("Taylor series with scaling and squaring", Moler and Van
Loan, SIAM Review 45(1), 2003). The trajectory is filled by power
doubling: the first ``f`` samples times ``Phi^f`` give the next ``f``,
and ``Phi^f`` is squared, so a horizon of K steps costs about log2(K)
matrix products instead of K matrix-vector products. ROCOF is read from
the state equation itself rather than from finite differences of the
samples, so the reported peak at t = 0 is exact. The nadir and the
settling time are read on the sample grid: the largest sample, and the
band crossing interpolated linearly between two samples.

``compare_designs`` runs each design's simulation as a task on the
process's thread pool when a second CPU is free of BLAS
(``pool.second_cpu_free``), so that one design's trajectory is formatted
while the next is simulated; otherwise it simulates them in turn, in the
caller. Both give the same bytes.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import lyapunov, pool
from .errors import StabilityError, ValidationError
from .netmodel import DeviceParams, ReducedNetwork, StateSpace, assemble_state_space

STEP = "step"
IMPULSE = "impulse"

SETTLE_BAND_FRACTION = 0.02
# With ||X||_1 <= 1/2 the truncated tail is below 2^-17 / 17! < 1e-19.
TAYLOR_DEGREE = 16


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
    horizon. ``warnings`` notes the buses that did not settle; the
    samples themselves are exact at any step size.
    """

    t: np.ndarray
    omega: np.ndarray
    rocof_max: np.ndarray
    nadir: np.ndarray
    settle_time: np.ndarray
    omega_ss: np.ndarray
    warnings: tuple[str, ...] = ()


def _propagator(A: np.ndarray, dt: float) -> np.ndarray:
    """Zero-order-hold propagator ``exp(A dt)`` by the scaled and squared Taylor series."""
    # Smallest s >= 0 with ||A dt||_1 / 2^s <= 1/2, taken from the exponents of
    # ||A||_1 and dt so that no product overflows for any finite dt.
    (fa, ea), (fd, ed) = math.frexp(float(np.abs(A).sum(axis=0).max())), math.frexp(dt)
    f, e = math.frexp(fa * fd)
    s = max(0, ea + ed + e + (f > 0.5))
    X = A * math.ldexp(dt, -s)
    eye = np.eye(A.shape[0])
    phi = eye + X / TAYLOR_DEGREE
    for k in range(TAYLOR_DEGREE - 1, 0, -1):
        phi = eye + X @ phi / k
    for _ in range(s):
        phi = phi @ phi
    return phi


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
    whose error in the crossing time is O(dt^2).
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


def sample_buffer(horizon: float, dt: float, dim: int) -> np.ndarray:
    """Check a simulation's time grid and allocate its uninitialized ``(steps + 1) x dim`` samples.

    ``dt`` and ``horizon`` must be finite, ``dt`` positive, ``horizon`` at
    least 20 steps long, and the samples must fit in memory; a
    ``ValidationError`` names the violated condition. The CLI calls it
    before a command optimizes or simulates, so that a bad grid fails
    before any work.
    """
    if not (np.isfinite(dt) and np.isfinite(horizon)):
        raise ValidationError(f"dt and horizon must be finite, got dt={dt}, horizon={horizon}")
    if dt <= 0:
        raise ValidationError("dt must be positive")
    if horizon < 20 * dt:
        raise ValidationError("horizon must cover at least 20 time steps")
    try:
        return np.empty((int(round(horizon / dt)) + 1, dim))
    except (OverflowError, MemoryError, ValueError) as exc:
        raise ValidationError(
            f"horizon/dt asks for {horizon / dt + 1:.6g} samples of {dim} states, "
            "more than can be allocated"
        ) from exc


def simulate(
    ss: StateSpace,
    dist: Disturbance,
    horizon: float = 25.0,
    dt: float = 1e-3,
) -> SimResult:
    """Sample the closed-loop response to one disturbance.

    A step is applied as a constant input from t = 0; an impulse is
    realized as the initial condition ``x(0) = B e_node * magnitude``.
    Requires a Hurwitz ``ss.A`` and a time grid that ``sample_buffer``
    accepts; a magnitude whose response leaves the float range raises
    ``ValidationError``.
    """
    A, B = ss.A, ss.B
    xs = sample_buffer(horizon, dt, A.shape[0])
    n = ss.n_machines
    na = n - 1

    stable, abscissa = lyapunov.is_hurwitz(A)
    if not stable:
        raise StabilityError(f"system matrix is not Hurwitz (spectral abscissa {abscissa:.3e})")

    if B.shape[1] > 1 and not 0 <= dist.node < B.shape[1]:
        raise ValidationError(f"disturbance node {dist.node} out of range")
    col = 0 if B.shape[1] == 1 else dist.node

    dim = A.shape[0]
    t = np.arange(xs.shape[0]) * dt
    # A magnitude near the float range overflows; the check below names it.
    with np.errstate(over="ignore", invalid="ignore"):
        if dist.kind == STEP:
            bu, x0 = B[:, col] * dist.magnitude, np.zeros(dim)
        else:
            bu, x0 = np.zeros(dim), B[:, col] * dist.magnitude
        # Equilibrium A x_eq = -B u. Exact zeros when no input is sustained
        # keep omega_ss at +0.0 for impulses and zero-magnitude steps.
        x_eq = np.linalg.solve(A, -bu) if bu.any() else np.zeros(dim)

        xs[0] = x0 - x_eq
        _fill_by_doubling(xs, _propagator(A, dt))
        xs += x_eq

        omega = xs[:, na:].T
        # ROCOF straight from the dynamics: omega rows of A x + B u.
        rocof_max = np.abs((xs @ A.T + bu)[:, na:]).max(axis=0)
        nadir = np.abs(omega).max(axis=1)
        omega_ss = x_eq[na:]

        band = SETTLE_BAND_FRACTION * np.maximum(np.abs(omega_ss), nadir)
        settle = np.array(
            [_settle_time(t, np.abs(omega[i] - omega_ss[i]), band[i]) for i in range(n)]
        )
    if not (np.isfinite(xs).all() and np.isfinite(rocof_max).all()) or np.isnan(settle).any():
        raise ValidationError(
            f"disturbance magnitude {dist.magnitude:g} drives the response beyond the float range"
        )
    warnings = ("some buses did not settle within the horizon",) if np.isinf(settle).any() else ()

    return SimResult(t=t, omega=omega, rocof_max=rocof_max, nadir=nadir,
                     settle_time=settle, omega_ss=omega_ss, warnings=warnings)


def compare_designs(
    net: ReducedNetwork,
    variants: list[tuple[str, DeviceParams]],
    dist: Disturbance,
    horizon: float = 25.0,
    dt: float = 1e-3,
    ref_bus: int = 0,
) -> Iterator[tuple[str, SimResult]]:
    """Simulate several coefficient designs under one disturbance.

    Every variant sees the identical disturbance and grid. The labels are
    checked and every simulation is started when this is called; the
    returned iterator yields ``(label, SimResult)`` pairs sorted by label,
    so output ordering is deterministic. With a second CPU free of BLAS
    the simulations run on the process's pool and each pair is yielded
    once its simulation has returned; a simulation's exception is raised
    there, after the other simulations have been cancelled or have ended.
    Otherwise every simulation has run, in the caller, before this returns.
    """
    labels = [label for label, _ in variants]
    if len(labels) != len(set(labels)):
        raise ValidationError("variant labels must be unique")
    variants = sorted(variants, key=lambda lv: lv[0])

    def run(params: DeviceParams) -> SimResult:
        ss = assemble_state_space(net, params, ref_bus)
        return simulate(ss, dist, horizon=horizon, dt=dt)

    if not pool.second_cpu_free():
        return iter([(label, run(params)) for label, params in variants])
    return _in_order([(label, pool.executor().submit(run, params)) for label, params in variants])


def _in_order(tasks: list) -> Iterator[tuple[str, SimResult]]:
    """Each ``(label, task)``'s label and result in turn; no task outlives the iteration."""
    try:
        for label, task in tasks:
            yield label, task.result()
    finally:
        pool.drain(task for _, task in tasks)
