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
    """Raw bus/line description prior to reduction."""

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "lines", tuple(self.lines))

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
    per bus (impulse channel) unless a disturbance direction ``eta`` was
    folded in, in which case it is the single column ``B_full @ eta``.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    ref_bus: int
    eta: np.ndarray | None = None

    def __post_init__(self):
        for f in ("A", "B", "C"):
            _frozen_array(self, f, getattr(self, f))
        if self.eta is not None:
            _frozen_array(self, "eta", self.eta)

    @property
    def n_machines(self) -> int:
        return self.C.shape[0]

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    def omega_index(self, i: int) -> int:
        """State index of the frequency deviation at generator ``i``."""
        return self.n_machines - 1 + i


def validate_network(spec: NetworkSpec) -> None:
    """Check NetworkSpec invariants, raising ValidationError with context."""
    ids = [b.id for b in spec.buses]
    if len(ids) != len(set(ids)):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValidationError(f"duplicate bus ids: {dupes}")
    if not spec.buses:
        raise ValidationError("network has no buses")

    known = set(ids)
    for bus in spec.buses:
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

    for line in spec.lines:
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

    if not any(b.kind == GENERATOR for b in spec.buses):
        raise ValidationError("network has no generator buses")
    if not _is_connected(spec):
        raise ValidationError("network graph is not connected")


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


def build_laplacian(spec: NetworkSpec) -> np.ndarray:
    """Assemble the full-bus susceptance Laplacian.

    Bus ordering follows ``spec.buses``. Parallel lines between the same
    pair of buses sum their susceptances. The result is symmetric with
    zero row sums and nonpositive off-diagonal entries.
    """
    validate_network(spec)
    pos = {b.id: k for k, b in enumerate(spec.buses)}
    n = len(spec.buses)
    L = np.zeros((n, n))
    for line in spec.lines:
        i, j = pos[line.from_bus], pos[line.to_bus]
        L[i, j] -= line.b
        L[j, i] -= line.b
        L[i, i] += line.b
        L[j, j] += line.b
    return L


def kron_reduce(
    L_full: np.ndarray,
    load_indices,
    keep_ids: tuple[int, ...] | None = None,
) -> ReducedNetwork:
    """Eliminate passive buses via the Schur complement.

    Computes ``L_red = L_gg - L_gl L_ll^{-1} L_lg`` where ``g`` indexes
    the retained (generator) buses and ``l`` the eliminated ones.

    Parameters
    ----------
    L_full:
        Full bus Laplacian.
    load_indices:
        Positions (into ``L_full``) of the buses to eliminate.
    keep_ids:
        Labels for the retained buses, in retained order. Defaults to the
        retained positions themselves.
    """
    L_full = np.asarray(L_full, dtype=float)
    N = L_full.shape[0]
    loads = sorted({int(i) for i in load_indices})
    if any(i < 0 or i >= N for i in loads):
        raise ValidationError("load index out of range")
    keep = [i for i in range(N) if i not in set(loads)]
    if not keep:
        raise ValidationError("cannot eliminate every bus")
    if keep_ids is None:
        keep_ids = tuple(keep)
    elif len(keep_ids) != len(keep):
        raise ValidationError("keep_ids length does not match retained bus count")

    if not loads:
        return ReducedNetwork(gen_ids=keep_ids, L=L_full.copy())

    L_gg = L_full[np.ix_(keep, keep)]
    L_gl = L_full[np.ix_(keep, loads)]
    L_ll = L_full[np.ix_(loads, loads)]
    try:
        X = np.linalg.solve(L_ll, L_gl.T)
    except np.linalg.LinAlgError:
        raise ValidationError("load subnetwork disconnected from generators") from None
    L_red = L_gg - L_gl @ X
    if not np.all(np.isfinite(L_red)):
        raise ValidationError("load subnetwork disconnected from generators")
    return ReducedNetwork(gen_ids=keep_ids, L=0.5 * (L_red + L_red.T))


def reduce_network(spec: NetworkSpec) -> ReducedNetwork:
    """Build the Laplacian and Kron-reduce all static load buses."""
    L = build_laplacian(spec)
    load_idx = [k for k, b in enumerate(spec.buses) if b.kind == LOAD]
    return kron_reduce(L, load_idx, keep_ids=spec.generator_ids)


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

    return StateSpace(A=A, B=B, C=C, ref_bus=int(ref_bus), eta=eta)
