import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg

import vsmtune as vt
from vsmtune import StabilityError, is_hurwitz, solve_lyapunov
from vsmtune.lyapunov import LEAF, _solve_triangular, solve_factored

from conftest import random_connected_spec, random_stable_system


def residual(A, X, W):
    return np.linalg.norm(A @ X + X @ A.T + W, "fro")


def rel_diff(X, ref):
    return np.linalg.norm(X - ref, "fro") / np.linalg.norm(ref, "fro")


def grid_system(seed, n_buses=50):
    """Grounded realization of a random connected grid with n_buses generators."""
    net = vt.reduce_network(random_connected_spec(np.random.default_rng(seed), n_buses))
    n = net.n
    rng = np.random.default_rng(seed + 1)
    params = vt.DeviceParams(
        m_hat=0.5 + 2.0 * rng.random(n), d_hat=0.2 + rng.random(n),
        m=rng.random(n), d=rng.random(n),
        m_lb=np.zeros(n), m_ub=np.ones(n), d_lb=np.zeros(n), d_ub=np.ones(n),
    )
    ss = vt.assemble_state_space(net, params, ref_bus=0)
    return ss.A, ss.B, ss.C


class TestIsHurwitz:
    def test_scalar_stable(self):
        ok, absc = is_hurwitz(np.array([[-1.0]]))
        assert ok
        assert absc == pytest.approx(-1.0)

    def test_oscillator(self):
        # Roots of s^2 + s + 1: real part -0.5.
        ok, absc = is_hurwitz(np.array([[0.0, 1.0], [-1.0, -1.0]]))
        assert ok
        assert absc == pytest.approx(-0.5, rel=1e-12)

    def test_double_integrator(self):
        ok, absc = is_hurwitz(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not ok
        assert absc == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            is_hurwitz(np.zeros((2, 3)))


class TestSolveLyapunov:
    def test_scalar(self):
        X = solve_lyapunov(np.array([[-1.0]]), np.array([[1.0]]))
        assert X[0, 0] == pytest.approx(0.5, rel=1e-14)

    def test_hand_solved_2x2(self):
        A = np.array([[0.0, 1.0], [-1.0, -1.0]])
        W = np.diag([0.0, 1.0])
        X = solve_lyapunov(A, W)
        assert np.allclose(X, np.diag([0.5, 0.5]), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_parametric_companion_form(self, k, c):
        # For A = [[0, 1], [-k, -c]] and W = diag(0, w), solving the two
        # orientations by hand gives:
        #   A X + X A^T + W = 0   ->  X = diag(w/(2ck), w/(2c))
        #   A^T X + X A + W = 0   ->  X = diag(kw/(2c), w/(2c))
        w = 1.7
        A = np.array([[0.0, 1.0], [-k, -c]])
        W = np.diag([0.0, w])
        X_primal = solve_lyapunov(A, W)
        X_dual = solve_lyapunov(A.T, W)
        assert np.allclose(X_primal, np.diag([w / (2 * c * k), w / (2 * c)]), rtol=1e-10)
        assert np.allclose(X_dual, np.diag([k * w / (2 * c), w / (2 * c)]), rtol=1e-10)

    def test_residual_and_psd_on_random_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            dim = int(rng.integers(1, 41))
            A, B, _ = random_stable_system(rng, dim)
            W = B @ B.T
            X = solve_lyapunov(A, W)
            assert residual(A, X, W) <= 1e-8 * max(1.0, np.linalg.norm(W, "fro"))
            assert np.linalg.norm(X - X.T, "fro") <= 1e-10 * max(np.linalg.norm(X, "fro"), 1e-300)
            assert np.min(np.linalg.eigvalsh(X)) >= -1e-10 * np.linalg.norm(X, 2)

    def test_trace_duality(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            dim = int(rng.integers(2, 20))
            A, B, C = random_stable_system(rng, dim)
            P = solve_lyapunov(A, B @ B.T)
            Q = solve_lyapunov(A.T, C.T @ C)
            left = np.trace(C @ P @ C.T)
            right = np.trace(B.T @ Q @ B)
            assert abs(left - right) <= 1e-10 * abs(left)

    def test_scaling_linearity(self):
        rng = np.random.default_rng(13)
        A, B, _ = random_stable_system(rng, 8)
        W = B @ B.T
        X1 = solve_lyapunov(A, W)
        X3 = solve_lyapunov(A, 3.0 * W)
        assert np.allclose(X3, 3.0 * X1, rtol=1e-12)

    def test_rejects_unstable(self):
        with pytest.raises(StabilityError, match="not Hurwitz"):
            solve_lyapunov(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    def test_rejects_near_marginal(self):
        # Spectral abscissa -1e-10 sits inside the rejection margin.
        with pytest.raises(StabilityError):
            solve_lyapunov(np.array([[-1e-10]]), np.array([[1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            solve_lyapunov(np.array([[np.nan]]), np.array([[1.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            solve_lyapunov(np.array([[-1.0]]), np.array([[np.inf]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal shapes"):
            solve_lyapunov(-np.eye(2), np.eye(3))
        with pytest.raises(ValueError, match="square"):
            solve_lyapunov(np.zeros((2, 3)), np.eye(2))

    def test_rejects_asymmetric_w(self):
        with pytest.raises(ValueError, match="symmetric"):
            solve_lyapunov(-np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_residual_symmetry(self, dim, seed):
        rng = np.random.default_rng(seed)
        A, B, _ = random_stable_system(rng, dim)
        W = B @ B.T
        X = solve_lyapunov(A, W)
        assert residual(A, X, W) <= 1e-8 * max(1.0, np.linalg.norm(W, "fro"))
        assert np.allclose(X, X.T, atol=1e-12 * max(1.0, np.abs(X).max()))


class TestSolveLyapunovPair:
    """One factorization solves both gramian equations."""

    @pytest.fixture(
        params=[("random", 3), ("random", 17), ("random", 40), ("grid", 50)],
        ids=lambda p: f"{p[0]}-{p[1]}",
    )
    def system(self, request):
        kind, size = request.param
        if kind == "grid":
            return grid_system(seed=5, n_buses=size)
        return random_stable_system(np.random.default_rng(size), size)

    def test_matches_single_solves_and_scipy(self, system):
        A, B, C = system
        W, W_dual = B @ B.T, C.T @ C
        X, Y = solve_lyapunov(A, W, W_dual)
        assert rel_diff(X, solve_lyapunov(A, W)) <= 1e-12
        assert rel_diff(Y, solve_lyapunov(A.T, W_dual)) <= 1e-12
        assert rel_diff(X, linalg.solve_continuous_lyapunov(A, -W)) <= 1e-12
        assert rel_diff(Y, linalg.solve_continuous_lyapunov(A.T, -W_dual)) <= 1e-12

    def test_residuals_within_documented_bound(self, system):
        A, B, C = system
        W, W_dual = B @ B.T, C.T @ C
        X, Y = solve_lyapunov(A, W, W_dual)
        assert residual(A, X, W) <= 1e-8 * max(1.0, np.linalg.norm(W, "fro"))
        assert residual(A.T, Y, W_dual) <= 1e-8 * max(1.0, np.linalg.norm(W_dual, "fro"))

    @pytest.mark.parametrize("real_part", [1e-3, -1e-10])
    def test_rejects_complex_pair_above_margin(self, real_part):
        # The only modes at or above the margin are a complex pair, so the
        # abscissa must be read from a 2x2 block of the Schur form.
        block = linalg.block_diag([[real_part, 1.0], [-1.0, real_part]], [[-1.0, 0.3], [0.0, -2.0]])
        V, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
        A = V @ block @ V.T
        with pytest.raises(StabilityError, match="not Hurwitz"):
            solve_lyapunov(A, np.eye(4), np.eye(4))

    def test_rejects_bad_dual_input(self):
        with pytest.raises(ValueError, match="equal shapes"):
            solve_lyapunov(-np.eye(2), np.eye(2), np.eye(3))
        with pytest.raises(ValueError, match="W_dual must be symmetric"):
            solve_lyapunov(-np.eye(2), np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_sylvester_scale_and_info(self, monkeypatch):
        # Six states make one dtrsyl leaf; 2 * LEAF + 1 states make several,
        # each scaled by its own factor, so every leaf must divide out its own.
        dtrsyl = linalg.lapack.dtrsyl
        for dim in (6, 2 * LEAF + 1):
            monkeypatch.setattr(linalg.lapack, "dtrsyl", dtrsyl)
            A, B, C = random_stable_system(np.random.default_rng(2), dim)
            W, W_dual = B @ B.T, C.T @ C
            X_ref, Y_ref = solve_lyapunov(A, W, W_dual)
            calls = []

            def scaled(*args, **kwargs):
                # dtrsyl returns scale * solution when it rescales to avoid overflow.
                x, _, info = dtrsyl(*args, **kwargs)
                scale = 0.5 ** (len(calls) % 3 + 1)
                calls.append(scale)
                return scale * x, scale, info

            monkeypatch.setattr(linalg.lapack, "dtrsyl", scaled)
            X, Y = solve_lyapunov(A, W, W_dual)
            assert rel_diff(X, X_ref) <= 1e-14 and rel_diff(Y, Y_ref) <= 1e-14
            assert len(calls) == 2 if dim <= LEAF else len(set(calls)) == 3

            leaves = []

            def perturbed(*args, **kwargs):
                leaves.append(None)
                return (*dtrsyl(*args, **kwargs)[:2], 1)

            monkeypatch.setattr(linalg.lapack, "dtrsyl", perturbed)
            with pytest.warns(RuntimeWarning, match="perturbed") as record:
                solve_lyapunov(A, W)
            assert len(leaves) == 1 if dim <= LEAF else len(leaves) > 2
            assert len(record) == 1

            monkeypatch.setattr(linalg.lapack, "dtrsyl", lambda *a, **k: (*dtrsyl(*a, **k)[:2], -3))
            with pytest.raises(ValueError, match="illegal value in argument 3"):
                solve_lyapunov(A, W)


def pair_cut_schur_form(rng, n):
    """Quasi-upper-triangular T, mostly 2x2 blocks, with a complex pair at every cut.

    The blocked solver splits a range of more than ``LEAF`` rows at its
    midpoint ``c`` and moves the cut to ``c + 1`` when rows ``c - 1, c``
    form a 2x2 block. A pair is placed on each midpoint that the primal
    recursion meets (the dual one runs on the index-reversed form and meets
    most of them), then the free rows are filled with pairs where two fit,
    and 1x1 blocks elsewhere.
    """
    starts = set()

    def place(lo, hi):
        if hi - lo <= LEAF:
            return
        c = lo + (hi - lo) // 2
        starts.add(c - 1)
        place(lo, c + 1)
        place(c + 1, hi)

    place(0, n)
    taken = {i for s in starts for i in (s, s + 1)}
    for i in range(n - 1):
        if i not in taken and i + 1 not in taken:
            starts.add(i)
            taken |= {i, i + 1}
    # Off-diagonal entries of order 1/n keep T close enough to normal that
    # the solution, and so the 1e-12 comparison, stays well conditioned.
    T = np.triu(rng.standard_normal((n, n)), 1) / n
    for i in range(n):
        T[i, i] = -0.5 - rng.random()
    for s in starts:
        re, b, c = -0.3 - rng.random(), 0.5 + rng.random(), 0.5 + rng.random()
        T[s:s + 2, s:s + 2] = [[re, b], [-c, re]]
    return T, sorted(starts)


class TestBlockedTriangularSolve:
    """The recursive blocked solve against scipy's unblocked Bartels-Stewart solver."""

    @pytest.mark.parametrize("dim", [1, LEAF, LEAF + 1, 2 * LEAF + 1, 401])
    def test_random_systems_match_scipy(self, dim):
        A, B, C = random_stable_system(np.random.default_rng(dim), dim)
        W, W_dual = B @ B.T, C.T @ C
        X, Y = solve_lyapunov(A, W, W_dual)
        assert rel_diff(X, linalg.solve_continuous_lyapunov(A, -W)) <= 1e-12
        assert rel_diff(Y, linalg.solve_continuous_lyapunov(A.T, -W_dual)) <= 1e-12
        assert residual(A, X, W) <= 1e-8 * max(1.0, np.linalg.norm(W, "fro"))
        assert residual(A.T, Y, W_dual) <= 1e-8 * max(1.0, np.linalg.norm(W_dual, "fro"))

    @pytest.mark.parametrize("dim", [2 * LEAF + 2, 4 * LEAF + 3])
    def test_complex_pair_at_every_cut(self, dim):
        rng = np.random.default_rng(dim)
        T, starts = pair_cut_schur_form(rng, dim)
        mid = dim // 2
        assert mid - 1 in starts
        assert 2 * len(starts) >= 0.9 * dim
        B = rng.standard_normal((dim, 3))
        W = B @ B.T
        identity = np.eye(dim)
        X = solve_factored(T, identity, W)
        Y = solve_factored(T, identity, W, dual=True)
        assert rel_diff(X, linalg.solve_continuous_lyapunov(T, -W)) <= 1e-12
        assert rel_diff(Y, linalg.solve_continuous_lyapunov(T.T, -W)) <= 1e-12
        assert residual(T, X, W) <= 1e-8 * max(1.0, np.linalg.norm(W, "fro"))
        assert residual(T.T, Y, W) <= 1e-8 * max(1.0, np.linalg.norm(W, "fro"))

    def test_triangular_solve_is_symmetric(self):
        T, _ = pair_cut_schur_form(np.random.default_rng(3), 3 * LEAF)
        F = np.random.default_rng(4).standard_normal(T.shape)
        X, perturbed = _solve_triangular(T, F + F.T)
        assert not perturbed
        assert np.linalg.norm(X - X.T) <= 1e-12 * np.linalg.norm(X)
