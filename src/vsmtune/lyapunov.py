"""Dense continuous-time Lyapunov kernel.

Solves ``A X + X A^T + W = 0`` for Hurwitz ``A`` and symmetric ``W`` and,
from the same factorization, the dual ``A^T Y + Y A + W_dual = 0``.
Controllability and observability gramians are the two instances used by
the H2 objective: ``W = B B^T`` and ``W_dual = C^T C``. Each call costs
one real Schur factorization ``A = U T U^T`` (Bartels and Stewart, 1972),
which also gives the stability check, plus one triangular Sylvester solve
(LAPACK ``dtrsyl``) per equation.

scipy is imported at the first solve, not with the module: ``import
vsmtune`` and the commands that never solve a Lyapunov equation
(``reduce``, ``simulate``, ``compare --coeffs``) run on numpy alone.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import StabilityError

# Systems with spectral abscissa above this are rejected: near-marginal
# dynamics produce huge, noise-dominated gramians.
STABILITY_MARGIN = -1e-9


def _as_square(mat: np.ndarray, name: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} contains non-finite entries")
    return mat


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


def _solve_schur(T: np.ndarray, U: np.ndarray, W: np.ndarray, trans: str) -> np.ndarray:
    """Back-transformed solution of one equation in Schur coordinates.

    ``trans="N"`` solves ``T X + X T^T = -U^T W U`` (the primal equation),
    ``trans="T"`` solves ``T^T X + X T = -U^T W U`` (the dual one).
    """
    from scipy.linalg import lapack

    tranb = "T" if trans == "N" else "N"
    Xt, scale, info = lapack.dtrsyl(T, T, -(U.T @ W @ U), trana=trans, tranb=tranb)
    if info < 0:
        raise ValueError(f"dtrsyl: illegal value in argument {-info}")
    if info == 1:
        warnings.warn(
            "A has an eigenvalue pair whose sum is close to zero; dtrsyl "
            "perturbed the coefficients to obtain the solution",
            RuntimeWarning,
            stacklevel=3,
        )
    X = U @ (Xt / scale) @ U.T
    return 0.5 * (X + X.T)


def solve_lyapunov(
    A: np.ndarray, W: np.ndarray, W_dual: np.ndarray | None = None
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Solve ``A X + X A^T + W = 0`` and optionally ``A^T Y + Y A + W_dual = 0``.

    Factors ``A = U T U^T`` once (real Schur form, ``scipy.linalg.schur``;
    scipy is imported here on the first call). The spectral abscissa
    is read as ``max(diag(T))``: LAPACK standardizes each 2x2 block of
    ``T`` to equal diagonal entries, which are the real part of that
    complex pair, and 1x1 blocks are the real eigenvalues. Each equation
    is then one triangular Sylvester solve in Schur coordinates; results
    are explicitly symmetrized. The residual ``||A X + X A^T + W||_F``
    stays below ``1e-8 * max(1, ||W||_F)`` for the dense, well-damped
    systems this package produces (checked for both equations by
    ``tests/test_lyapunov.py::TestSolveLyapunovPair``), and ``X`` is
    positive semidefinite whenever ``W`` is.

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
    from scipy import linalg

    A = _as_square(A, "A")
    W = _as_symmetric(W, "W", A.shape)
    if W_dual is not None:
        W_dual = _as_symmetric(W_dual, "W_dual", A.shape)

    T, U = linalg.schur(A, output="real")
    abscissa = float(np.max(np.diag(T)))
    if abscissa >= STABILITY_MARGIN:
        raise StabilityError(
            f"system matrix is not Hurwitz (spectral abscissa {abscissa:.3e})"
        )

    X = _solve_schur(T, U, W, "N")
    if W_dual is None:
        return X
    return X, _solve_schur(T, U, W_dual, "T")
