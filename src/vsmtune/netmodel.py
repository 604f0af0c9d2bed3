"""Power-network model for frequency-dynamics design.

Builds the susceptance Laplacian of a DC-power-flow network, eliminates
static load buses through Kron reduction, and assembles the linearized
swing dynamics in relative-angle coordinates:

    d/dt [theta; omega] = A [theta; omega] + B dP,      z = C [theta; omega]

where ``theta`` holds the n-1 generator angles measured against a
designated reference generator, ``omega`` the n frequency deviations,
``M_i = m_hat_i + m_i`` and ``D_i = d_hat_i + d_i`` combine synchronous
and virtual-device coefficients, and the output ``z = M^(1/2) omega``
measures the kinetic energy carried by frequency excursions. Grounding
the angles at the reference bus removes the rigid-rotation mode, so the
realization is Hurwitz whenever the reduced network is connected and
every total damping is positive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, ValidationError

GENERATOR = "generator"
LOAD = "load"


def _frozen_array(obj: object, name: str, value, dtype=float) -> np.ndarray:
    arr = np.array(value, dtype=dtype)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


@dataclass(frozen=True)
class Bus:
    """A single bus: generator buses carry inertia/damping, loads are static."""

    id: int
    kind: str
    m_hat: float = 0.0
    d_hat: float = 0.0


@dataclass(frozen=True)
class Line:
    """A branch with positive susceptance magnitude ``b`` (p.u.)."""

    from_bus: int
    to_bus: int
    b: float


@dataclass(frozen=True)
class NetworkSpec:
    """Raw bus/line description prior to reduction, checked when built.

    The first broken invariant raises a ValidationError, naming the bus or
    line where there is one: unique ids, consistent coefficients, ``b > 0``
    between two distinct known buses, a generator and a connected graph.
    """

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "lines", tuple(self.lines))
        ids = [b.id for b in self.buses]
        if len(ids) != len(set(ids)):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"duplicate bus ids: {dupes}")
        if not self.buses:
            raise ValidationError("network has no buses")

        known = set(ids)
        for bus in self.buses:
            if bus.kind not in (GENERATOR, LOAD):
                raise ValidationError(f"bus {bus.id}: unknown kind {bus.kind!r}")
            if bus.kind == GENERATOR:
                if bus.m_hat <= 0:
                    raise ValidationError(f"generator bus {bus.id} must have m_hat > 0")
                if bus.d_hat < 0:
                    raise ValidationError(f"generator bus {bus.id} must have d_hat >= 0")
            else:
                if bus.m_hat != 0:
                    raise ValidationError(f"load bus {bus.id} must have m_hat = 0")
                if bus.d_hat != 0:
                    raise ValidationError(
                        f"load bus {bus.id} carries damping; static loads cannot, "
                        "move it to a generator bus"
                    )

        for line in self.lines:
            if line.from_bus not in known or line.to_bus not in known:
                raise ValidationError(
                    f"line ({line.from_bus}, {line.to_bus}) references an unknown bus"
                )
            if line.from_bus == line.to_bus:
                raise ValidationError(f"line ({line.from_bus}, {line.to_bus}) is a self-loop")
            if not line.b > 0:
                raise ValidationError(
                    f"line ({line.from_bus}, {line.to_bus}) must have susceptance b > 0"
                )

        if not any(b.kind == GENERATOR for b in self.buses):
            raise ValidationError("network has no generator buses")
        if not _is_connected(self):
            raise ValidationError("network graph is not connected")

    @property
    def generator_ids(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.buses if b.kind == GENERATOR)

    @property
    def load_ids(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.buses if b.kind == LOAD)


@dataclass(frozen=True)
class ReducedNetwork:
    """Generator-only susceptance Laplacian after Kron reduction."""

    gen_ids: tuple[int, ...]
    L: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gen_ids", tuple(int(i) for i in self.gen_ids))
        L = _frozen_array(self, "L", self.L)
        n = len(self.gen_ids)
        if L.shape != (n, n):
            raise ValidationError(
                f"Laplacian shape {L.shape} does not match {n} generator ids"
            )

    @property
    def n(self) -> int:
        return len(self.gen_ids)

    def index_of(self, bus_id: int) -> int:
        """Position of a generator bus id in the reduced ordering."""
        try:
            return self.gen_ids.index(bus_id)
        except ValueError:
            raise ValidationError(f"bus {bus_id} is not a generator bus") from None


@dataclass(frozen=True)
class DeviceParams:
    """Fixed and decision coefficients for every generator bus.

    ``m_hat``/``d_hat`` are the synchronous-machine and load-damping
    coefficients already present at each bus; ``m``/``d`` are the
    virtual-device gains being designed, constrained to the boxes
    ``[m_lb, m_ub]`` and ``[d_lb, d_ub]``.
    """

    m_hat: np.ndarray
    d_hat: np.ndarray
    m: np.ndarray
    d: np.ndarray
    m_lb: np.ndarray
    m_ub: np.ndarray
    d_lb: np.ndarray
    d_ub: np.ndarray

    def __post_init__(self):
        fields = ["m_hat", "d_hat", "m", "d", "m_lb", "m_ub", "d_lb", "d_ub"]
        arrays = [_frozen_array(self, f, getattr(self, f)) for f in fields]
        n = arrays[0].shape[0]
        for name, arr in zip(fields, arrays):
            if arr.shape != (n,):
                raise ParameterError(f"{name} must be a length-{n} vector, got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ParameterError(f"{name} contains non-finite entries")
        for lo, hi, what in ((self.m_lb, self.m_ub, "m"), (self.d_lb, self.d_ub, "d")):
            if np.any(lo < 0):
                raise ParameterError(f"{what} lower bounds must be nonnegative")
            if np.any(lo > hi):
                raise ParameterError(f"{what} bounds must satisfy lb <= ub componentwise")
        if np.any(self.m < self.m_lb) or np.any(self.m > self.m_ub):
            raise ParameterError("m violates its box bounds")
        if np.any(self.d < self.d_lb) or np.any(self.d > self.d_ub):
            raise ParameterError("d violates its box bounds")

    @property
    def n(self) -> int:
        return self.m_hat.shape[0]

    @property
    def m_total(self) -> np.ndarray:
        return self.m_hat + self.m

    @property
    def d_total(self) -> np.ndarray:
        return self.d_hat + self.d

    def with_design(self, m: np.ndarray, d: np.ndarray) -> "DeviceParams":
        """Copy with new decision vectors (bounds and fixed parts unchanged)."""
        return replace(self, m=np.asarray(m, dtype=float), d=np.asarray(d, dtype=float))

    def box_midpoint(self) -> tuple[np.ndarray, np.ndarray]:
        return 0.5 * (self.m_lb + self.m_ub), 0.5 * (self.d_lb + self.d_ub)


@dataclass(frozen=True)
class StateSpace:
    """Grounded state-space realization ``(A, B, C)``.

    State ordering is ``[theta_1 .. theta_(n-1), omega_1 .. omega_n]``
    with the reference generator's angle removed. ``B`` has one column
    per input: one impulse channel per bus, or a single folded direction.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        for f in ("A", "B", "C"):
            _frozen_array(self, f, getattr(self, f))

    @property
    def n_machines(self) -> int:
        return self.C.shape[0]


def _is_connected(spec: NetworkSpec) -> bool:
    pos = {b.id: k for k, b in enumerate(spec.buses)}
    adj: list[list[int]] = [[] for _ in spec.buses]
    for line in spec.lines:
        i, j = pos[line.from_bus], pos[line.to_bus]
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(spec.buses)


def reduce_network(spec: NetworkSpec) -> ReducedNetwork:
    """Build the bus Laplacian (parallel lines add) and Kron-reduce every load bus.

    The result is the Schur complement ``L_gg - L_gl L_ll^{-1} L_lg``, with
    ``g`` and ``l`` the generator and load positions in ``spec.buses`` order.
    A connected spec with a generator has a nonsingular ``L_ll``, so a
    singular or non-finite reduction means susceptances out of float range.
    """
    pos = {b.id: k for k, b in enumerate(spec.buses)}
    gen = [k for k, b in enumerate(spec.buses) if b.kind == GENERATOR]
    load = [k for k, b in enumerate(spec.buses) if b.kind == LOAD]
    msg = "line susceptances are out of floating-point range: the reduced Laplacian is not finite"
    L = np.zeros((len(pos), len(pos)))
    with np.errstate(all="ignore"):
        for line in spec.lines:
            i, j = pos[line.from_bus], pos[line.to_bus]
            L[i, j] -= line.b
            L[j, i] -= line.b
            L[i, i] += line.b
            L[j, j] += line.b
        if load:
            L_gl = L[np.ix_(gen, load)]
            try:
                X = np.linalg.solve(L[np.ix_(load, load)], L_gl.T)
            except np.linalg.LinAlgError:
                raise ValidationError(msg) from None
            L = L[np.ix_(gen, gen)] - L_gl @ X
            L = 0.5 * (L + L.T)
    if not np.all(np.isfinite(L)):
        raise ValidationError(msg)
    return ReducedNetwork(gen_ids=spec.generator_ids, L=L)


def assemble_state_space(
    net: ReducedNetwork,
    params: DeviceParams,
    ref_bus: int,
    eta: np.ndarray | None = None,
) -> StateSpace:
    """Build the grounded realization of the linearized swing dynamics.

    Parameters
    ----------
    net:
        Kron-reduced generator network.
    params:
        Device coefficients; totals ``M = m_hat + m`` and ``D = d_hat + d``
        must be strictly positive.
    ref_bus:
        Position (into ``net.gen_ids``) of the reference generator whose
        angle grounds the realization.
    eta:
        Optional length-n disturbance direction. When given, ``B`` is the
        single column ``B_full @ eta``; otherwise ``B`` keeps one impulse
        channel per bus.
    """
    n = net.n
    if params.n != n:
        raise ParameterError(f"params are for {params.n} buses, network has {n}")
    if not 0 <= ref_bus < n:
        raise ParameterError(f"ref_bus must be a generator index in [0, {n}), got {ref_bus}")

    M = params.m_total
    D = params.d_total
    if np.any(M <= 0):
        bad = [net.gen_ids[i] for i in np.nonzero(M <= 0)[0]]
        raise ParameterError(f"total inertia must be positive, violated at buses {bad}")
    if np.any(D <= 0):
        bad = [net.gen_ids[i] for i in np.nonzero(D <= 0)[0]]
        raise ParameterError(f"total damping must be positive, violated at buses {bad}")

    keep = np.delete(np.arange(n), ref_bus)
    na = n - 1
    dim = 2 * n - 1
    theta = np.arange(na)
    omega = na + np.arange(n)

    A = np.zeros((dim, dim))
    A[theta, na + keep] = 1.0
    A[theta, na + ref_bus] = -1.0
    # Row sums of L are zero, so L @ delta depends only on relative angles
    # and the reference column drops out.
    A[na:, :na] = -net.L[:, keep] / M[:, None]
    A[omega, omega] = -D / M

    B = np.zeros((dim, n))
    B[na:, :] = np.diag(1.0 / M)
    if eta is not None:
        eta = np.asarray(eta, dtype=float)
        if eta.shape != (n,):
            raise ParameterError(f"eta must be a length-{n} vector, got shape {eta.shape}")
        B = (B @ eta).reshape(dim, 1)

    C = np.zeros((n, dim))
    C[:, na:] = np.diag(np.sqrt(M))

    return StateSpace(A=A, B=B, C=C)
