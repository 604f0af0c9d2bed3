"""Dense continuous-time Lyapunov kernel.

Solves ``A X + X A^T + W = 0`` for Hurwitz ``A`` and symmetric ``W`` and,
from the same factorization, the dual ``A^T Y + Y A + W_dual = 0``.
Controllability and observability gramians are the two instances used by
the H2 objective: ``W = B B^T`` and ``W_dual = C^T C``. Each call costs
one real Schur factorization ``A = U T U^T`` (Bartels and Stewart, 1972),
which also gives the stability check, plus one triangular solve per
equation. ``schur_factor`` and ``solve_factored`` expose the two steps, so
a caller can solve the dual equation later, or never, from the same
factors.

The triangular solve is recursive and blocked (Jonsson and Kagstrom, ACM
TOMS 28(4), 2002): it halves ``T`` until the blocks have at most ``LEAF``
rows and columns, hands those to LAPACK ``dtrsyl``, and does the coupling
updates as matrix products. Unblocked ``dtrsyl`` on the whole matrix works
through level-2 operations; at 199 states the blocked solve is about half
its time.

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

# Largest block handed to dtrsyl. At 199 states one solve took 4.3, 3.5
# and 3.6 ms for leaves of 16, 32 and 64, against 8.2 ms unblocked
# (2-core x86_64, OpenBLAS on one thread, best of 15).
LEAF = 32


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


def _split(T: np.ndarray) -> int:
    """Split index near the middle of ``T`` that never cuts a 2x2 block."""
    k = T.shape[0] // 2
    return k + 1 if T[k, k - 1] != 0.0 else k


def _solve_triangular(T: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, bool]:
    """Recursive blocked solve of ``T X + X T^T = F`` (Jonsson and Kagstrom, 2002).

    ``T`` is quasi-upper-triangular and ``F`` symmetric. Splitting ``T``
    into 2x2 block form gives ``X22`` from the trailing diagonal block,
    then the off-diagonal Sylvester block ``X12``, then ``X11``; the
    Sylvester solves ``TA X + X TB^T = F`` recurse on their larger
    dimension. Only blocks of at most ``LEAF`` rows and columns reach
    LAPACK ``dtrsyl``; the updates between them are matrix products.
    Returns ``X`` and whether some leaf had to perturb its coefficients.
    """
    from scipy.linalg import lapack

    perturbed = False

    def leaf(TA, TB, F):
        nonlocal perturbed
        X, scale, info = lapack.dtrsyl(TA, TB, F, tranb="T")
        if info < 0:
            raise ValueError(f"dtrsyl: illegal value in argument {-info}")
        perturbed = perturbed or info == 1
        return X / scale

    def sylvester(TA, TB, F):
        m, p = F.shape
        if m <= LEAF and p <= LEAF:
            return leaf(TA, TB, F)
        X = np.empty((m, p))
        if m >= p:
            k = _split(TA)
            X[k:] = sylvester(TA[k:, k:], TB, F[k:])
            X[:k] = sylvester(TA[:k, :k], TB, F[:k] - TA[:k, k:] @ X[k:])
        else:
            k = _split(TB)
            X[:, k:] = sylvester(TA, TB[k:, k:], F[:, k:])
            X[:, :k] = sylvester(TA, TB[:k, :k], F[:, :k] - X[:, k:] @ TB[:k, k:].T)
        return X

    def lyapunov(T, F):
        n = T.shape[0]
        if n <= LEAF:
            return leaf(T, T, F)
        k = _split(T)
        X = np.empty((n, n))
        X[k:, k:] = lyapunov(T[k:, k:], F[k:, k:])
        X[:k, k:] = sylvester(T[:k, :k], T[k:, k:], F[:k, k:] - T[:k, k:] @ X[k:, k:])
        X[k:, :k] = X[:k, k:].T
        G = T[:k, k:] @ X[k:, :k]
        X[:k, :k] = lyapunov(T[:k, :k], F[:k, :k] - G - G.T)
        return X

    return lyapunov(T, F), perturbed


def schur_factor(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real Schur form ``A = U T U^T`` of a Hurwitz ``A``, for ``solve_factored``.

    scipy is imported here on the first call. The spectral abscissa is
    read as ``max(diag(T))``: LAPACK standardizes each 2x2 block of ``T``
    to equal diagonal entries, which are the real part of that complex
    pair, and 1x1 blocks are the real eigenvalues.

    Raises
    ------
    StabilityError
        If the spectral abscissa is at or above ``STABILITY_MARGIN``.
    ValueError
        If ``A`` is not a finite square matrix.
    """
    from scipy import linalg

    A = _as_square(A, "A")
    T, U = linalg.schur(A, output="real")
    abscissa = float(np.max(np.diag(T)))
    if abscissa >= STABILITY_MARGIN:
        raise StabilityError(
            f"system matrix is not Hurwitz (spectral abscissa {abscissa:.3e})"
        )
    return T, U


def solve_factored(T: np.ndarray, U: np.ndarray, W: np.ndarray, dual: bool = False) -> np.ndarray:
    """Solve ``A X + X A^T + W = 0``, or ``A^T X + X A + W = 0`` when ``dual``.

    ``(T, U)`` is ``schur_factor(A)``. The equation is solved in Schur
    coordinates by ``_solve_triangular`` and transformed back; the result
    is explicitly symmetrized. The dual equation ``T^T Z + Z T = F`` is the
    primal one for the index-reversed ``T[::-1, ::-1]^T``, which is again
    quasi-upper-triangular, so one triangular solver serves both.
    """
    W = _as_symmetric(W, "W_dual" if dual else "W", T.shape)
    F = -(U.T @ W @ U)
    if dual:
        Z, perturbed = _solve_triangular(np.ascontiguousarray(T[::-1, ::-1].T), F[::-1, ::-1])
        Z = Z[::-1, ::-1]
    else:
        Z, perturbed = _solve_triangular(T, F)
    if perturbed:
        warnings.warn(
            "A has an eigenvalue pair whose sum is close to zero; dtrsyl "
            "perturbed the coefficients to obtain the solution",
            RuntimeWarning,
            stacklevel=2,
        )
    X = U @ Z @ U.T
    return 0.5 * (X + X.T)


def solve_lyapunov(
    A: np.ndarray, W: np.ndarray, W_dual: np.ndarray | None = None
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Solve ``A X + X A^T + W = 0`` and optionally ``A^T Y + Y A + W_dual = 0``.

    Factors ``A = U T U^T`` once with ``schur_factor``, which also checks
    stability, and solves each equation in Schur coordinates with
    ``solve_factored`` (one blocked triangular solve each); results are
    explicitly symmetrized. The residual ``||A X + X A^T + W||_F``
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
    T, U = schur_factor(A)
    X = solve_factored(T, U, W)
    if W_dual is None:
        return X
    return X, solve_factored(T, U, W_dual, dual=True)
