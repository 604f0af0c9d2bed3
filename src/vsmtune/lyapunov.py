"""Dense continuous-time Lyapunov kernel.

Solves ``A X + X A^T + W = 0`` for Hurwitz ``A`` and a right-hand side
given by its factor, ``W = F F^T``, and, from the same factorization, the
dual ``A^T Y + Y A + W = 0``. Controllability and observability gramians
are the two instances used by the H2 objective: ``F = B`` and ``F = C^T``.
``cayley_factor(A)`` factors ``A`` and checks stability, and
``solve_lyapunov(factor, F, dual)`` sums one series from that factor, so
a caller can solve the dual equation later, or never. No entry point
takes a dense ``W``.

One squaring loop, ``_squarings``, forms the powers of ``T`` and ends in
the stability certificate. ``cayley_factor(A)`` runs it to the end.
``cayley_factor(A, reject)`` leaves it to the first primal sum, which
squares one power per Smith step and tests ``reject``, a ``RejectAbove``
bound on the weighted diagonal of the partial sum, before each squaring.
Every Smith term is positive semidefinite, so with nonnegative weights
the partial value only rises: once it exceeds the bound, or is NaN, the
solve returns None, and the remaining squarings, steps and certificate
are skipped. An unstable ``A`` whose unstable modes the sum sees has
partial sums that grow without bound, and a singular shift makes them
NaN at once, so either is rejected without an eigenvalue call; any other
unstable ``A`` reaches the certificate, which raises. A sum that is not rejected runs the same
products as ``cayley_factor(A)`` followed by ``solve_lyapunov``.

The solver is the squared Smith iteration (Smith, SIAM J. Appl. Math.
16(1), 1968). With ``q = |det A|^(1/n)``, the geometric mean of the
eigenvalue moduli, the Cayley transform ``R = (A - qI)^-1``,
``T = R (A + qI)`` turns the equation into the Stein equation
``X = T X T^T + 2q R W R^T``, whose solution is the series
``sum_k T^k (2q R W R^T) (T^k)^T``. ``T`` is squared until the next
square is known to have ``||T^(2^(j+1))||_F <= POWER_TOL``: it was formed
and measured, or ``||T^(2^j)||_F^2 <= POWER_TOL`` bounds it unformed,
since ``||T^2||_F <= ||T||_F^2``. The ``j + 1`` stored powers
``T, ..., T^(2^j)`` sum the first ``2^(j+1)`` terms in steps
``X <- X + T^(2^i) X (T^(2^i))^T``, and the truncation error is below
``POWER_TOL**2`` relative. The dual equation uses the transposed powers.
Every step is a dense matrix product or one LU, so numpy alone runs it.

Three facts of the swing models keep each step small:

* The right-hand sides come factored. ``solve_lyapunov`` starts the sum
  from ``(S F)(S F)^T`` and carries a factor ``G`` of width ``w`` as
  ``[G, T G]`` while ``w`` is at most the state count (``T G`` costs
  ``2 n^2 w`` flops against ``4 n^3`` for a dense step), then goes dense.
  The rank-1 known-location ``B`` stays factored for its first
  ``log2(n) + 1`` powers. The dense steps write through two preallocated
  buffers.
* ``A`` ends in a diagonal block (the damping block ``-D/M``). ``det A``
  and ``(A - qI)^-1`` are eliminated through it, so LAPACK factors only
  the Schur complement of that block. Without a usable diagonal block
  the same code is the dense inverse.
* The squaring stops one product early, on the bound above.

The squaring also certifies stability: with ``N`` the last norm measured
or bounded, ``N >= ||T^(2^m)||_F`` for ``m`` stored powers, the root
``r = N^(2^-m)`` bounds the spectral radius of ``T``, and so every
eigenvalue of ``A`` has ``Re(lambda) <= -(1 - r^2) q / 4``. Only when
that bound does not clear ``STABILITY_MARGIN`` are the eigenvalues
computed.
"""

from __future__ import annotations

import warnings
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import StabilityError

# Systems with spectral abscissa above this are rejected: near-marginal
# dynamics produce huge, noise-dominated gramians.
STABILITY_MARGIN = -1e-9

# Squaring stops once ||T^(2^j)||_F^2 is at most POWER_TOL, which leaves a
# relative truncation error below POWER_TOL**2, or after MAX_SQUARINGS.
POWER_TOL = 1e-8
MAX_SQUARINGS = 64

# Gramians whose ||A X + X A^T + W||_F exceeds RESIDUAL_TOL * max(1, ||W||_F)
# draw a RuntimeWarning from check_residual.
RESIDUAL_TOL = 1e-8


def _as_square(mat: np.ndarray, name: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} contains non-finite entries")
    return mat


# No package code calls is_hurwitz; it stays because perfbench/traced.py wraps it by name.
def is_hurwitz(A: np.ndarray) -> tuple[bool, float]:
    """Check asymptotic stability of ``A``.

    Returns
    -------
    (stable, abscissa)
        ``stable`` is True iff every eigenvalue has strictly negative real
        part; ``abscissa`` is ``max Re(eig(A))``.
    """
    A = _as_square(A, "A")
    abscissa = float(np.max(np.linalg.eigvals(A).real))
    return abscissa < 0.0, abscissa


def _diagonal_split(A: np.ndarray) -> int:
    """Start ``k`` of the trailing diagonal block that ``_shift_inverse`` eliminates.

    ``A[k:, k:]`` is the largest trailing block with zero off-diagonal
    entries. It is used when it has at least two rows (a single entry is
    trivially diagonal) and a negative diagonal, so that neither it nor
    its shift by ``-qI`` has a zero pivot; otherwise ``k`` is the order
    of ``A`` and the block is empty.
    """
    n = A.shape[0]
    coupled = A != 0
    np.fill_diagonal(coupled, False)
    coupled |= coupled.T
    # Row i couples to a later state when its last nonzero lies right of the diagonal.
    last = n - 1 - np.argmax(coupled[:, ::-1], axis=1)
    rows = np.arange(n)
    later = np.flatnonzero(coupled[rows, last] & (last > rows))
    k = int(later[-1]) + 1 if later.size else 0
    if n - k < 2 or not np.all(np.diagonal(A)[k:] < 0.0):
        return n
    return k


def _shift_inverse(A: np.ndarray) -> tuple[float, np.ndarray]:
    """``q = |det A|^(1/n)`` and ``(A - qI)^-1``, by elimination of a diagonal block.

    With ``A = [[A11, A12], [A21, diag(a)]]`` split at ``_diagonal_split``,
    ``det A = prod(a) det(A11 - A12 diag(a)^-1 A21)``, and ``(A - qI)^-1``
    follows from ``Z^-1``, ``Z = A11 - qI - A12 diag(a - q)^-1 A21``. Only
    these two Schur complements reach LAPACK. ``(A - qI)^-1`` is all NaN
    when ``Z`` is singular.
    """
    k = _diagonal_split(A)
    A11, A12, A21 = A[:k, :k], A[:k, k:], A[k:, :k]
    a = np.diagonal(A)[k:]
    logdet = np.log(np.abs(a)).sum() + np.linalg.slogdet(A11 - (A12 / a) @ A21)[1]
    q = float(np.exp(logdet / A.shape[0]))
    h = a - q
    H = A12 / h  # A12 diag(h)^-1
    G = A21 / h[:, None]  # diag(h)^-1 A21
    Z = A11 - H @ A21
    Z[np.diag_indices(k)] -= q
    try:
        Z_inv = np.linalg.inv(Z)
    except np.linalg.LinAlgError:
        return q, np.full_like(A, np.nan)
    R = np.empty_like(A)
    R[:k, :k] = Z_inv
    R[:k, k:] = -(Z_inv @ H)
    R[k:, :k] = -(G @ Z_inv)
    R[k:, k:] = -(G @ R[:k, k:])
    R[k:, k:][np.diag_indices(A.shape[0] - k)] += 1.0 / h
    return q, R


def _squarings(A: np.ndarray, q: float, R: np.ndarray) -> Iterator[np.ndarray]:
    """The squaring loop: yield ``T, T^2, T^4, ...``, then certify stability.

    ``R = (A - qI)^-1`` from ``_shift_inverse``. Each square is formed
    only when the consumer asks for the next power, so a consumer that
    stops early skips the remaining squarings and the certificate. After
    the last power, stability is accepted from the squaring's bound
    on the spectral radius of ``T``. When the bound does not clear
    ``STABILITY_MARGIN``, or ``A - qI`` is singular, or the powers turn
    non-finite or do not fall below ``POWER_TOL`` within
    ``MAX_SQUARINGS``, the spectral abscissa is read from
    ``np.linalg.eigvals`` instead.

    Raises
    ------
    StabilityError
        If the spectral abscissa is at or above ``STABILITY_MARGIN``, or
        the powers of ``T`` do not converge.
    """
    n = A.shape[0]
    with np.errstate(all="ignore"):
        T = 2.0 * q * R
        T[np.diag_indices(n)] += 1.0
        # norm bounds ||T^(2^stored)||_F: it is that norm, or the square of
        # the last stored power's norm.
        norm = np.linalg.norm(T)
    stored = 0
    for _ in range(MAX_SQUARINGS):
        if not norm > POWER_TOL:
            break
        yield T
        stored += 1
        with np.errstate(all="ignore"):
            if norm * norm <= POWER_TOL:
                norm *= norm
                break
            T = T @ T
            norm = np.linalg.norm(T)
    with np.errstate(all="ignore"):
        converged = bool(norm <= POWER_TOL)
        r = norm ** (0.5 ** stored)
        certified = converged and -(1.0 - r * r) * q / 4.0 < STABILITY_MARGIN
    if not certified:
        abscissa = float(np.max(np.linalg.eigvals(A).real))
        if abscissa >= STABILITY_MARGIN:
            raise StabilityError(
                f"system matrix is not Hurwitz (spectral abscissa {abscissa:.3e})"
            )
        if not converged:
            raise StabilityError(
                f"Cayley powers of the system matrix did not converge "
                f"(spectral abscissa {abscissa:.3e})"
            )


class RejectAbove(NamedTuple):
    """Stop rule of a primal sum: reject ``X`` once ``offset + weights @ diag(X) > limit``.

    With nonnegative ``weights`` the partial value only rises towards the
    full one, since every Smith term is positive semidefinite. A NaN
    partial value is a rejection.
    """

    weights: np.ndarray
    offset: float
    limit: float

    def rejects(self, diag: np.ndarray) -> bool:
        """Whether the sum whose diagonal is ``diag`` is rejected."""
        return not self.offset + self.weights @ diag <= self.limit


class CayleyFactor:
    """Factor of ``cayley_factor``.

    ``S = sqrt(2q) (A - qI)^-1`` and the powers ``T, T^2, T^4, ...`` of
    ``T = (A - qI)^-1 (A + qI)`` that ``solve_lyapunov`` sums. The powers
    come from ``_squarings`` as they are read, and ``powers`` reads them
    all, so its first read also certifies stability. ``reject`` is the
    stop rule of the primal sums, or None.
    """

    def __init__(self, S: np.ndarray, squarings: Iterator[np.ndarray],
                 reject: RejectAbove | None):
        self.S = S
        self.reject = reject
        self._squarings = squarings
        self._stored: list[np.ndarray] = []

    @property
    def powers(self) -> tuple[np.ndarray, ...]:
        self._stored.extend(self._squarings)
        return tuple(self._stored)

    def _iter_powers(self) -> Iterator[np.ndarray]:
        """The stored powers, then each further square as soon as it is formed."""
        yield from self._stored
        for T in self._squarings:
            self._stored.append(T)
            yield T


def cayley_factor(A: np.ndarray, reject: RejectAbove | None = None) -> CayleyFactor:
    """Cayley transform of a Hurwitz ``A`` and its repeated squares, for ``solve_lyapunov``.

    Without ``reject``, every power is squared and stability is certified
    here (``_squarings``). With it, the squaring is left to the first
    primal ``solve_lyapunov``, which runs it one power per Smith step and
    stops early when ``reject`` fires.

    Raises
    ------
    StabilityError
        Without ``reject``: if the spectral abscissa is at or above
        ``STABILITY_MARGIN``, or the powers of ``T`` do not converge.
    ValueError
        If ``A`` is not a finite square matrix.
    """
    A = _as_square(A, "A")
    with np.errstate(all="ignore"):
        q, R = _shift_inverse(A)
        S = np.sqrt(2.0 * q) * R
    factor = CayleyFactor(S, _squarings(A, q, R), reject)
    if reject is None:
        factor.powers  # squares to the end, so an unstable A raises here
    return factor


def _oriented(factor: CayleyFactor, dual: bool) -> tuple[np.ndarray, Iterable[np.ndarray]]:
    """``factor``, or the factor of ``A^T`` (every matrix transposed) when ``dual``."""
    if dual:
        return factor.S.T, [T.T for T in factor.powers]
    return factor.S, factor._iter_powers()


def solve_lyapunov(
    factor: CayleyFactor, F: np.ndarray, dual: bool = False
) -> np.ndarray | None:
    """Solve ``A X + X A^T + F F^T = 0``, or ``A^T X + X A + F F^T = 0`` when ``dual``.

    ``factor`` is ``cayley_factor(A)``, and ``F`` has one row per state.
    The dual equation is the primal one for ``A^T``, whose factor is the
    transpose of every matrix in ``factor``. The sum starts from ``G G^T``
    with ``G = S F`` and applies ``X <- X + T X T^T`` for each power ``T``;
    a factor of width ``w`` stays a factor, ``[G, T G]``, while ``w`` is at
    most the state count, and the remaining steps are dense. The result is
    explicitly symmetrized and positive semidefinite.

    A primal sum reads each power as it needs it, so the squaring and its
    stability certificate run inside the sum, and ``StabilityError`` can
    be raised here. When ``factor.reject`` is set, it is tested on the
    starting sum and after each step, and the first partial sum that it
    rejects ends the solve, before the next squaring, with None.

    The residual ``||A X + X A^T + F F^T||_F`` stays within
    ``RESIDUAL_TOL * max(1, ||F F^T||_F)`` on the dense, well-damped
    systems this package produces; stiff ones need not meet it, since the
    Cayley transform loses about ``eps * cond(A - qI)``. ``check_residual``
    tests the bound, and ``optimize`` runs it on both gramians at its
    final point.

    Raises
    ------
    ValueError
        If ``F`` has the wrong number of rows or non-finite entries.
    """
    S, powers = _oriented(factor, dual)
    F = np.asarray(F, dtype=float)
    dim = S.shape[0]
    if F.ndim != 2 or F.shape[0] != dim:
        raise ValueError(f"F must have {dim} rows, got shape {F.shape}")
    if not np.all(np.isfinite(F)):
        raise ValueError("F contains non-finite entries")
    reject = None if dual else factor.reject
    width = F.shape[1]
    rows = width
    while rows <= dim:
        rows *= 2
    # Rows of Gt are the columns of G, so each doubling fills a contiguous row block.
    Gt = np.empty((rows, dim))
    Gt[:width] = (S @ F).T
    X = None

    def rejected() -> bool:
        if reject is None:
            return False
        diag = np.einsum("ij,ij->j", Gt[:width], Gt[:width]) if X is None else np.diagonal(X)
        return reject.rejects(diag)

    with np.errstate(all="ignore"):
        if rejected():
            return None
        for T in powers:
            if X is None and width <= dim:
                np.matmul(Gt[:width], T.T, out=Gt[width:2 * width])
                width *= 2
            else:
                if X is None:
                    X = Gt[:width].T @ Gt[:width]
                    TX = np.empty_like(X)
                    TXT = np.empty_like(X)
                np.matmul(T, X, out=TX)
                np.matmul(TX, T.T, out=TXT)
                X += TXT
            if rejected():
                return None
    if X is None:
        X = Gt[:width].T @ Gt[:width]
    P = X + X.T
    P *= 0.5
    return P


def check_residual(A: np.ndarray, X: np.ndarray, W: np.ndarray, name: str) -> None:
    """Warn when ``||A X + X A^T + W||_F`` exceeds ``RESIDUAL_TOL * max(1, ||W||_F)``.

    ``X`` and ``W`` are symmetric, so ``X A^T`` is ``(A X)^T`` and the
    check costs one product.
    """
    AX = A @ X
    residual = float(np.linalg.norm(AX + AX.T + W))
    bound = RESIDUAL_TOL * max(1.0, float(np.linalg.norm(W)))
    if not residual <= bound:
        warnings.warn(
            f"Lyapunov residual for {name} is {residual:.3e}, {residual / bound:.3g} times "
            f"its bound {bound:.3e}; the system matrix may be too stiff for the solver",
            RuntimeWarning,
            stacklevel=3,
        )
