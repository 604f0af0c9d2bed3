"""Dense continuous-time Lyapunov kernel.

Solves ``A X + X A^T + W = 0`` for Hurwitz ``A`` and a right-hand side
given by its factor, ``W = F F^T``, and, from the same factorization, the
dual ``A^T Y + Y A + W = 0``. Controllability and observability gramians
are the two instances used by the H2 objective: ``F = B`` and ``F = C^T``.
``cayley_factor(A)`` factors ``A`` and checks stability, and
``solve_lyapunov(factor, F, dual)`` sums one series from that factor, so
a caller can solve the dual equation later, or never. No entry point
takes a dense ``W``.

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
from typing import NamedTuple, Sequence

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


class CayleyFactor(NamedTuple):
    """Factor of ``cayley_factor``.

    ``S = sqrt(2q) (A - qI)^-1`` and the stored powers ``T, T^2, T^4, ...``
    of ``T = (A - qI)^-1 (A + qI)`` that ``solve_lyapunov`` sums.
    """

    S: np.ndarray
    powers: tuple[np.ndarray, ...]


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


def cayley_factor(A: np.ndarray) -> CayleyFactor:
    """Cayley transform of a Hurwitz ``A`` and its repeated squares, for ``solve_lyapunov``.

    Stability is accepted from the squaring's bound on the spectral
    radius of ``T``. When the bound does not clear ``STABILITY_MARGIN``,
    or ``A - qI`` is singular, or the powers turn non-finite or do not
    fall below ``POWER_TOL`` within ``MAX_SQUARINGS``, the spectral
    abscissa is read from ``np.linalg.eigvals`` instead.

    Raises
    ------
    StabilityError
        If the spectral abscissa is at or above ``STABILITY_MARGIN``, or
        the powers of ``T`` do not converge.
    ValueError
        If ``A`` is not a finite square matrix.
    """
    A = _as_square(A, "A")
    n = A.shape[0]
    powers = []
    with np.errstate(all="ignore"):
        q, R = _shift_inverse(A)
        T = 2.0 * q * R
        T[np.diag_indices(n)] += 1.0
        # norm bounds ||T^(2^len(powers))||_F: it is that norm, or the
        # square of the last stored power's norm.
        norm = np.linalg.norm(T)
        for _ in range(MAX_SQUARINGS):
            if not norm > POWER_TOL:
                break
            powers.append(T)
            if norm * norm <= POWER_TOL:
                norm *= norm
                break
            T = T @ T
            norm = np.linalg.norm(T)
        converged = bool(norm <= POWER_TOL)
        r = norm ** (0.5 ** len(powers))
    if not (converged and -(1.0 - r * r) * q / 4.0 < STABILITY_MARGIN):
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
    return CayleyFactor(np.sqrt(2.0 * q) * R, tuple(powers))


def _oriented(factor: CayleyFactor, dual: bool) -> tuple[np.ndarray, Sequence[np.ndarray]]:
    """``factor``, or the factor of ``A^T`` (every matrix transposed) when ``dual``."""
    S, powers = factor
    if dual:
        return S.T, [T.T for T in powers]
    return S, powers


def solve_lyapunov(factor: CayleyFactor, F: np.ndarray, dual: bool = False) -> np.ndarray:
    """Solve ``A X + X A^T + F F^T = 0``, or ``A^T X + X A + F F^T = 0`` when ``dual``.

    ``factor`` is ``cayley_factor(A)``, which has already checked
    stability, and ``F`` has one row per state. The dual equation is the
    primal one for ``A^T``, whose factor is the transpose of every matrix
    in ``factor``. The sum starts from ``G G^T`` with ``G = S F`` and
    applies ``X <- X + T X T^T`` for each stored power ``T``; a factor of
    width ``w`` stays a factor, ``[G, T G]``, while ``w`` is at most the
    state count, and the remaining steps are dense. The result is
    explicitly symmetrized and positive semidefinite.

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
    width = F.shape[1]
    steps = 0
    while steps < len(powers) and width << steps <= dim:
        steps += 1
    # Rows of Gt are the columns of G, so each doubling fills a contiguous row block.
    Gt = np.empty((width << steps, dim))
    Gt[:width] = (S @ F).T
    for T in powers[:steps]:
        np.matmul(Gt[:width], T.T, out=Gt[width:2 * width])
        width *= 2
    X = Gt.T @ Gt
    TX = np.empty_like(X)
    TXT = np.empty_like(X)
    for T in powers[steps:]:
        np.matmul(T, X, out=TX)
        np.matmul(TX, T.T, out=TXT)
        X += TXT
    np.add(X, X.T, out=TX)
    TX *= 0.5
    return TX


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
