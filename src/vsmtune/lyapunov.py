"""Dense continuous-time Lyapunov kernel.

Solves ``A X + X A^T + W = 0`` for Hurwitz ``A`` and symmetric ``W`` and,
from the same factorization, the dual ``A^T Y + Y A + W_dual = 0``.
Controllability and observability gramians are the two instances used by
the H2 objective: ``W = B B^T`` and ``W_dual = C^T C``.

The solver is the squared Smith iteration (Smith, SIAM J. Appl. Math.
16(1), 1968). With ``q = |det A|^(1/n)``, the geometric mean of the
eigenvalue moduli, the Cayley transform ``R = (A - qI)^-1``,
``T = R (A + qI)`` turns the equation into the Stein equation
``X = T X T^T + 2q R W R^T``, whose solution is the series
``sum_k T^k (2q R W R^T) (T^k)^T``. ``T`` is squared until
``||T^(2^j)||_F <= POWER_TOL``; the stored powers sum the first ``2^j``
terms in ``j`` steps ``X <- X + T^(2^i) X (T^(2^i))^T``, and the
truncation error is below ``POWER_TOL**2`` relative. The dual equation uses the
transposed powers. ``cayley_factor`` and ``solve_factored`` expose the two
steps, so a caller can solve the dual equation later, or never, from the
same factor. Every step is a dense matrix product or one LU, so numpy
alone runs it.

The squaring also certifies stability: ``r = ||T^(2^j)||_F^(2^-j)`` bounds
the spectral radius of ``T``, and so every eigenvalue of ``A`` has
``Re(lambda) <= -(1 - r^2) q / 4``. Only when that bound does not clear
``STABILITY_MARGIN`` are the eigenvalues computed.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .errors import StabilityError

# Systems with spectral abscissa above this are rejected: near-marginal
# dynamics produce huge, noise-dominated gramians.
STABILITY_MARGIN = -1e-9

# Squaring stops once ||T^(2^j)||_F is at most POWER_TOL, which leaves a
# relative truncation error below POWER_TOL**2, or after MAX_SQUARINGS.
POWER_TOL = 1e-8
MAX_SQUARINGS = 64

# solve_lyapunov warns when ||A X + X A^T + W||_F exceeds
# RESIDUAL_TOL * max(1, ||W||_F).
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


def _as_symmetric(W: np.ndarray, name: str, shape: tuple[int, int]) -> np.ndarray:
    W = _as_square(W, name)
    if W.shape != shape:
        raise ValueError(f"A and {name} must have equal shapes, got {shape} and {W.shape}")
    if not np.allclose(W, W.T, rtol=1e-10, atol=1e-12 * max(1.0, float(np.abs(W).max()))):
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (W + W.T)


class CayleyFactor(NamedTuple):
    """Factor of ``cayley_factor``.

    ``S = sqrt(2q) (A - qI)^-1`` and the stored powers ``T, T^2, T^4, ...``
    of ``T = (A - qI)^-1 (A + qI)`` that ``solve_factored`` sums.
    """

    S: np.ndarray
    powers: tuple[np.ndarray, ...]


def cayley_factor(A: np.ndarray) -> CayleyFactor:
    """Cayley transform of a Hurwitz ``A`` and its repeated squares, for ``solve_factored``.

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
        q = float(np.exp(np.linalg.slogdet(A)[1] / n))
        try:
            R = np.linalg.inv(A - q * np.eye(n))
        except np.linalg.LinAlgError:
            R = np.full_like(A, np.nan)
        T = 2.0 * q * R
        T[np.diag_indices(n)] += 1.0
        norm = np.linalg.norm(T)
        for _ in range(MAX_SQUARINGS):
            if not norm > POWER_TOL:
                break
            powers.append(T)
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


def solve_factored(factor: CayleyFactor, W: np.ndarray, dual: bool = False) -> np.ndarray:
    """Solve ``A X + X A^T + W = 0``, or ``A^T X + X A + W = 0`` when ``dual``.

    ``factor`` is ``cayley_factor(A)``. The dual equation is the primal
    one for ``A^T``, whose factor is the transpose of every matrix in
    ``factor``. The result is explicitly symmetrized.
    """
    S, powers = factor
    W = _as_symmetric(W, "W_dual" if dual else "W", S.shape)
    if dual:
        S, powers = S.T, [T.T for T in powers]
    X = S @ W @ S.T
    for T in powers:
        X += T @ X @ T.T
    return 0.5 * (X + X.T)


def _check_residual(A: np.ndarray, X: np.ndarray, W: np.ndarray, name: str) -> None:
    W = np.asarray(W, dtype=float)
    residual = float(np.linalg.norm(A @ X + X @ A.T + 0.5 * (W + W.T)))
    bound = RESIDUAL_TOL * max(1.0, float(np.linalg.norm(W)))
    if not residual <= bound:
        warnings.warn(
            f"Lyapunov residual for {name} is {residual:.3e}, {residual / bound:.3g} times "
            f"its bound {bound:.3e}; the system matrix may be too stiff for the solver",
            RuntimeWarning,
            stacklevel=3,
        )


def solve_lyapunov(
    A: np.ndarray, W: np.ndarray, W_dual: np.ndarray | None = None
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Solve ``A X + X A^T + W = 0`` and optionally ``A^T Y + Y A + W_dual = 0``.

    Factors ``A`` once with ``cayley_factor``, which also checks
    stability, and solves each equation from the factor with
    ``solve_factored``; results are explicitly symmetrized. The residual
    ``||A X + X A^T + W||_F`` of each returned solution is checked against
    ``RESIDUAL_TOL * max(1, ||W||_F)``, and a ``RuntimeWarning`` naming the
    ratio is issued when it fails. The dense, well-damped systems this
    package produces meet the bound; stiff ones need not, since the
    Cayley transform loses about ``eps * cond(A - qI)``. ``X`` is positive
    semidefinite whenever ``W`` is.

    Returns
    -------
    X, or (X, Y) when ``W_dual`` is given.

    Raises
    ------
    StabilityError
        If the spectral abscissa of ``A`` is above the stability margin,
        in which case the equation has no meaningful solution and callers
        must treat the operating point as infeasible.
    ValueError
        On non-square, non-finite, mismatched, or asymmetric inputs.
    """
    A = _as_square(A, "A")
    factor = cayley_factor(A)
    X = solve_factored(factor, W)
    _check_residual(A, X, W, "W")
    if W_dual is None:
        return X
    Y = solve_factored(factor, W_dual, dual=True)
    _check_residual(A.T, Y, W_dual, "W_dual")
    return X, Y
