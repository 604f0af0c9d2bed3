"""Dense continuous-time Lyapunov kernel.

Solves ``A X + X A^T + W = 0`` for Hurwitz ``A`` and a right-hand side
given by its factor, ``W = F F^T``, and, from the same factorization, the
dual ``A^T Y + Y A + W = 0``. Controllability and observability gramians
are the two instances used by the H2 objective: ``F = B`` and ``F = C^T``.
``CayleyFactor(A)`` factors ``A``, and ``solve_lyapunov(factor, F, dual)``
sums one series from that factor, so a caller can solve the dual equation
later, or never. No entry point takes a dense ``W``.

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

Two facts of the swing models keep each step small:

* The right-hand sides come factored. ``solve_lyapunov`` starts the sum
  from ``(S F)(S F)^T`` and carries a factor ``G`` of ``w`` columns as
  ``[G, T G]`` while ``w`` is at most the state count (``T G`` costs
  ``2 n^2 w`` flops against ``4 n^3`` for a dense step), then goes dense.
  The rank-1 known-location ``B`` stays factored for its first
  ``log2(n) + 1`` powers. The dense steps write through two preallocated
  buffers.
* ``A`` ends in a diagonal block (the damping block ``-D/M``). ``det A``
  and ``(A - qI)^-1`` are eliminated through it, so LAPACK factors only
  the Schur complement of that block. Without a usable diagonal block
  the same code is the dense inverse.

The squaring also certifies stability: with ``N`` the last norm measured
or bounded, ``N >= ||T^(2^m)||_F`` for ``m`` stored powers, the root
``r = N^(2^-m)`` bounds the spectral radius of ``T``, and so every
eigenvalue of ``A`` has ``Re(lambda) <= -(1 - r^2) q / 4``. Only when
that bound does not clear ``STABILITY_MARGIN`` does ``is_hurwitz``
compute the eigenvalues.

A ``CayleyFactor`` holds no power until a sum asks for one: it keeps the
powers of ``T`` in one list, ``powers``, and ``square()`` appends the next
one or, when none is needed, ends in the stability certificate. A sum
asks for each power through ``power(j)`` when it reaches it, and a
missing power is formed there. Any number of threads may sum from one
factor: a thread forms a power only while it holds the factor's lock, so
each power is formed once, by the same product, and a thread that needs
a power another is forming waits for it. ``stop()`` makes every later
``power()`` call raise ``FactorStopped``, so a sum in another thread
ends at its next step. A sum may take ``reject``, a ``RejectAbove``
bound on the weighted diagonal of the partial sum, which it tests before
each squaring. Every Smith term is positive semidefinite, so with
nonnegative weights the partial value only rises: once it exceeds the
bound, or is NaN, the solve returns None, and its remaining squarings,
steps and certificate are skipped. An unstable ``A`` whose unstable
modes the sum sees has partial sums that grow without bound, and a
singular shift makes them NaN at once, so either is rejected without an
eigenvalue call; any other unstable ``A`` reaches the certificate, which
raises. A sum that is not rejected runs the same products, in the same
order, as one without ``reject``.
"""

from __future__ import annotations

import threading
import warnings
from typing import NamedTuple

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
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
        raise ValueError(f"{name} must be a non-empty square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} contains non-finite entries")
    return mat


def is_hurwitz(A: np.ndarray) -> tuple[bool, float]:
    """Check asymptotic stability of ``A``, a finite non-empty square matrix (else ``ValueError``).

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
    # The block starts past min(i, j) of every off-diagonal nonzero (i, j): the
    # row of one in the strict upper triangle, the column of one in the lower.
    coupled = np.triu(A, 1).any(axis=1) | np.tril(A, -1).any(axis=0)
    k = 1 + int(np.flatnonzero(coupled).max(initial=-1))
    n = A.shape[0]
    return k if n - k >= 2 and np.all(np.diagonal(A)[k:] < 0.0) else n


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


class FactorStopped(Exception):
    """Raised by ``CayleyFactor.power`` once the factor's ``stop()`` has been called."""


class CayleyFactor:
    """Cayley transform of ``A``: ``S = sqrt(2q) (A - qI)^-1``, ``T`` and its stored powers.

    ``powers`` lists ``T, T^2, T^4, ...`` as far as ``square()`` has formed
    them, none at first. Any number of threads may take powers from one
    factor through ``power()``. Raises ``ValueError`` if ``A`` is not a
    finite, non-empty square matrix.
    """

    def __init__(self, A: np.ndarray):
        A = _as_square(A, "A")
        with np.errstate(all="ignore"):
            q, R = _shift_inverse(A)
            self.S = np.sqrt(2.0 * q) * R
            self._T = 2.0 * q * R
            self._T[np.diag_indices(len(R))] += 1.0
        self._A = A
        self._q = q
        self.powers: list[np.ndarray] = []
        self._norm = np.inf  # ||powers[-1]||_F
        self._complete = False
        self._failure: str | None = None  # the certificate's StabilityError message
        self._lock = threading.Lock()  # held by the one thread inside square()
        self._stopped = False

    def power(self, j: int) -> np.ndarray | None:
        """``T^(2^j)``, or None once the certificate has passed and ``j`` is past the last power.

        Missing powers up to ``j`` are formed here, through ``square()`` under
        the factor's lock, so each power is formed once, whichever thread asks.

        Raises
        ------
        StabilityError
            As ``square()`` does, in every thread that reaches the certificate.
        FactorStopped
            Once ``stop()`` has been called.
        """
        # powers only grows, so a stored power is read without the lock.
        while True:
            if self._stopped:
                raise FactorStopped("the Cayley factor was stopped")
            if j < len(self.powers):
                return self.powers[j]
            with self._lock:
                if not self._stopped and j >= len(self.powers) and not self.square():
                    return None

    def stop(self) -> None:
        """Make every later ``power()`` call, in any thread, raise ``FactorStopped``."""
        self._stopped = True

    def square(self) -> bool:
        """Store the next power and return True, or certify stability and return False.

        When the module's bound on the spectral radius of ``T`` does not
        clear ``STABILITY_MARGIN``, or ``A - qI`` is singular, or the powers
        turn non-finite or do not fall below ``POWER_TOL`` within
        ``MAX_SQUARINGS``, the certificate reads the spectral abscissa from
        ``is_hurwitz``. A complete factor returns False at once, and a
        failed one raises its message again. Sums call it through
        ``power()``, which holds the factor's lock around it, so only one
        thread squares at a time.

        Raises
        ------
        StabilityError
            If the spectral abscissa is at or above ``STABILITY_MARGIN``,
            or the powers of ``T`` do not converge.
        """
        if self._failure is not None:
            raise StabilityError(self._failure)
        if self._complete:
            return False
        stored = len(self.powers)
        with np.errstate(all="ignore"):
            if stored and self._norm * self._norm <= POWER_TOL:
                norm = self._norm * self._norm
            else:
                T = self.powers[-1] @ self.powers[-1] if stored else self._T
                norm = np.linalg.norm(T)
        # norm is ||T^(2^stored)||_F, or bounds it by the square of the last power's norm.
        if stored < MAX_SQUARINGS and norm > POWER_TOL:
            self.powers.append(T)
            self._norm = norm
            return True
        with np.errstate(all="ignore"):
            converged = bool(norm <= POWER_TOL)
            r = norm ** (0.5 ** stored)
            certified = converged and -(1.0 - r * r) * self._q / 4.0 < STABILITY_MARGIN
        if not certified:
            abscissa = is_hurwitz(self._A)[1]
            if abscissa >= STABILITY_MARGIN or not converged:
                what = ("system matrix is not Hurwitz" if abscissa >= STABILITY_MARGIN
                        else "Cayley powers of the system matrix did not converge")
                self._failure = f"{what} (spectral abscissa {abscissa:.3e})"
                raise StabilityError(self._failure)
        self._complete = True
        return False


def solve_lyapunov(
    factor: CayleyFactor, F: np.ndarray, dual: bool = False, reject: RejectAbove | None = None
) -> np.ndarray | None:
    """Solve ``A X + X A^T + F F^T = 0``, or ``A^T X + X A + F F^T = 0`` when ``dual``.

    ``factor`` is ``CayleyFactor(A)``, and ``F`` has one row per state.
    The dual equation is the primal one for ``A^T``, whose factor is the
    transpose of every matrix in ``factor``. The sum starts from ``G G^T``
    with ``G = S F`` and applies ``X <- X + T X T^T`` for each power ``T``;
    a factor of ``w`` columns stays a factor, ``[G, T G]``, while ``w`` is at
    most the state count, and the remaining steps are dense. The result is
    explicitly symmetrized and positive semidefinite.

    A sum takes each power from ``factor.power()``, so it can raise
    ``StabilityError``, and ``FactorStopped`` once another thread has
    stopped the factor. It returns None at the first partial sum, the
    starting one included, that ``reject`` rejects.

    The residual ``||A X + X A^T + F F^T||_F`` stays within
    ``RESIDUAL_TOL * max(1, ||F F^T||_F)`` on the dense, well-damped
    systems this package produces; stiff ones need not meet it, since the
    Cayley transform loses about ``eps * cond(A - qI)``. ``check_residual``
    tests the bound, and ``optimize`` runs it on both gramians at its
    final point.

    Raises
    ------
    ValueError
        If ``F`` has the wrong number of rows, no columns or non-finite entries.
    """
    S = factor.S.T if dual else factor.S
    F = np.asarray(F, dtype=float)
    dim = S.shape[0]
    if F.ndim != 2 or F.shape[0] != dim:
        raise ValueError(f"F must have {dim} rows, got shape {F.shape}")
    if F.shape[1] == 0:
        raise ValueError("F has no columns")
    if not np.all(np.isfinite(F)):
        raise ValueError("F contains non-finite entries")
    # Rows of Gt are the columns of G. Gt is C-ordered: on a Fortran-ordered one
    # the factored steps round differently, and the results' last digits move.
    Gt = np.ascontiguousarray((S @ F).T)
    X = None

    def rejected() -> bool:
        if reject is None:
            return False
        diag = np.einsum("ij,ij->j", Gt, Gt) if X is None else np.diagonal(X)
        return reject.rejects(diag)

    with np.errstate(all="ignore"):
        if rejected():
            return None
        j = 0
        while (T := factor.power(j)) is not None:
            if dual:
                T = T.T
            j += 1
            if X is None and len(Gt) <= dim:
                Gt = np.concatenate([Gt, Gt @ T.T])
            else:
                if X is None:
                    X = Gt.T @ Gt
                    TX = np.empty_like(X)
                    TXT = np.empty_like(X)
                np.matmul(T, X, out=TX)
                np.matmul(TX, T.T, out=TXT)
                X += TXT
            if rejected():
                return None
    if X is None:
        X = Gt.T @ Gt
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
