import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg

import vsmtune as vt
from vsmtune import StabilityError, is_hurwitz, solve_lyapunov

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
        A, B, C = random_stable_system(np.random.default_rng(2), 6)
        W, W_dual = B @ B.T, C.T @ C
        X_ref, Y_ref = solve_lyapunov(A, W, W_dual)
        dtrsyl = linalg.lapack.dtrsyl

        def scaled(*args, **kwargs):
            # dtrsyl returns scale * solution when it rescales to avoid overflow.
            x, _, info = dtrsyl(*args, **kwargs)
            return 0.25 * x, 0.25, info

        monkeypatch.setattr(linalg.lapack, "dtrsyl", scaled)
        X, Y = solve_lyapunov(A, W, W_dual)
        assert rel_diff(X, X_ref) <= 1e-14 and rel_diff(Y, Y_ref) <= 1e-14

        monkeypatch.setattr(linalg.lapack, "dtrsyl", lambda *a, **k: (*dtrsyl(*a, **k)[:2], 1))
        with pytest.warns(RuntimeWarning, match="perturbed"):
            solve_lyapunov(A, W)

        monkeypatch.setattr(linalg.lapack, "dtrsyl", lambda *a, **k: (*dtrsyl(*a, **k)[:2], -3))
        with pytest.raises(ValueError, match="illegal value in argument 3"):
            solve_lyapunov(A, W)
