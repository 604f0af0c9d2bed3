import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg

import vsmtune as vt
from vsmtune import StabilityError, lyapunov
from vsmtune.lyapunov import CayleyFactor, check_residual, is_hurwitz, solve_lyapunov

from conftest import grid_problem, netgen, random_connected_spec, random_stable_system


def residual(A, X, W):
    return np.linalg.norm(A @ X + X @ A.T + W, "fro")


def rel_diff(X, ref):
    return np.linalg.norm(X - ref, "fro") / np.linalg.norm(ref, "fro")


def solve(A, F):
    """The kernel's ``X`` in ``A X + X A^T + F F^T = 0``, from a fresh factor of ``A``."""
    return solve_lyapunov(CayleyFactor(A), F)


def scipy_solve(A, F):
    """The oracle: scipy's Bartels-Stewart solve of the same equation."""
    return linalg.solve_continuous_lyapunov(A, -F @ F.T)


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
        X = solve(np.array([[-1.0]]), np.array([[1.0]]))
        assert X[0, 0] == pytest.approx(0.5, rel=1e-14)

    def test_hand_solved_2x2(self):
        A = np.array([[0.0, 1.0], [-1.0, -1.0]])
        X = solve(A, np.array([[0.0], [1.0]]))
        assert np.allclose(X, np.diag([0.5, 0.5]), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_parametric_companion_form(self, k, c):
        # For A = [[0, 1], [-k, -c]] and F F^T = diag(0, w), solving the two
        # orientations by hand gives:
        #   A X + X A^T + F F^T = 0   ->  X = diag(w/(2ck), w/(2c))
        #   A^T X + X A + F F^T = 0   ->  X = diag(kw/(2c), w/(2c))
        w = 1.7
        factor = CayleyFactor(np.array([[0.0, 1.0], [-k, -c]]))
        F = np.array([[0.0], [np.sqrt(w)]])
        X_primal = solve_lyapunov(factor, F)
        X_dual = solve_lyapunov(factor, F, dual=True)
        assert np.allclose(X_primal, np.diag([w / (2 * c * k), w / (2 * c)]), rtol=1e-10)
        assert np.allclose(X_dual, np.diag([k * w / (2 * c), w / (2 * c)]), rtol=1e-10)

    def test_residual_and_psd_on_random_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            dim = int(rng.integers(1, 41))
            A, B, _ = random_stable_system(rng, dim)
            W = B @ B.T
            X = solve(A, B)
            assert residual(A, X, W) <= 1e-8 * max(1.0, np.linalg.norm(W, "fro"))
            assert np.linalg.norm(X - X.T, "fro") <= 1e-10 * max(np.linalg.norm(X, "fro"), 1e-300)
            assert np.min(np.linalg.eigvalsh(X)) >= -1e-10 * np.linalg.norm(X, 2)

    def test_trace_duality(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            dim = int(rng.integers(2, 20))
            A, B, C = random_stable_system(rng, dim)
            factor = CayleyFactor(A)
            P = solve_lyapunov(factor, B)
            Q = solve_lyapunov(factor, C.T, dual=True)
            left = np.trace(C @ P @ C.T)
            right = np.trace(B.T @ Q @ B)
            assert abs(left - right) <= 1e-10 * abs(left)

    def test_scaling_linearity(self):
        rng = np.random.default_rng(13)
        A, B, _ = random_stable_system(rng, 8)
        X1 = solve(A, B)
        X3 = solve(A, np.sqrt(3.0) * B)
        assert np.allclose(X3, 3.0 * X1, rtol=1e-12)

    def test_rejects_unstable(self):
        with pytest.raises(StabilityError, match="not Hurwitz"):
            solve(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    def test_rejects_near_marginal(self):
        # Spectral abscissa -1e-10 sits inside the rejection margin.
        with pytest.raises(StabilityError):
            solve(np.array([[-1e-10]]), np.eye(1))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            CayleyFactor(np.array([[np.nan]]))
        with pytest.raises(ValueError, match="non-finite"):
            solve(np.array([[-1.0]]), np.array([[np.inf]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="2 rows"):
            solve(-np.eye(2), np.eye(3))
        with pytest.raises(ValueError, match="square"):
            CayleyFactor(np.zeros((2, 3)))

    @pytest.mark.parametrize("check", [CayleyFactor, is_hurwitz], ids=["factor", "is_hurwitz"])
    def test_rejects_empty_matrix(self, check):
        with pytest.raises(ValueError, match=r"non-empty square matrix, got shape \(0, 0\)"):
            check(np.zeros((0, 0)))

    def test_rejects_right_hand_side_without_columns(self):
        with pytest.raises(ValueError, match="no columns"):
            solve(-np.eye(3), np.zeros((3, 0)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_residual_symmetry(self, dim, seed):
        rng = np.random.default_rng(seed)
        A, B, _ = random_stable_system(rng, dim)
        W = B @ B.T
        X = solve(A, B)
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
        # The dual solve from the factor of A matches a primal solve from
        # the factor of A^T, and both gramians match scipy.
        A, B, C = system
        factor = CayleyFactor(A)
        X = solve_lyapunov(factor, B)
        Y = solve_lyapunov(factor, C.T, dual=True)
        assert rel_diff(Y, solve(A.T, C.T)) <= 1e-12
        assert rel_diff(X, scipy_solve(A, B)) <= 1e-12
        assert rel_diff(Y, scipy_solve(A.T, C.T)) <= 1e-12

    def test_residuals_within_documented_bound(self, system):
        A, B, C = system
        W, W_dual = B @ B.T, C.T @ C
        factor = CayleyFactor(A)
        X = solve_lyapunov(factor, B)
        Y = solve_lyapunov(factor, C.T, dual=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_residual(A, X, W, "P")
            check_residual(A.T, Y, W_dual, "Q")
        assert residual(A, X, W) <= 1e-8 * max(1.0, np.linalg.norm(W, "fro"))
        assert residual(A.T, Y, W_dual) <= 1e-8 * max(1.0, np.linalg.norm(W_dual, "fro"))

    def test_warns_when_residual_exceeds_bound(self):
        # Stiff spectrum: the Cayley transform loses about eps * cond(A - qI).
        V, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((10, 10)))
        A = V @ np.diag([-1e-3] * 9 + [-1e5]) @ V.T
        W = np.eye(10)
        factor = CayleyFactor(A)
        X = solve_lyapunov(factor, W)
        Y = solve_lyapunov(factor, W, dual=True)
        assert residual(A, X, W) > 1e-8 * np.linalg.norm(W, "fro")
        with pytest.warns(RuntimeWarning) as record:
            check_residual(A, X, W, "P")
            check_residual(A.T, Y, W, "Q")
        assert {str(w.message).split(" is ")[0] for w in record} == {
            "Lyapunov residual for P", "Lyapunov residual for Q"
        }
        assert all(" times its bound " in str(w.message) for w in record)

    @pytest.mark.parametrize("real_part", [1e-3, -1e-10])
    def test_rejects_complex_pair_above_margin(self, real_part):
        # The only modes at or above the margin are a complex pair, so
        # stability turns on the real part of a conjugate pair.
        block = linalg.block_diag([[real_part, 1.0], [-1.0, real_part]], [[-1.0, 0.3], [0.0, -2.0]])
        V, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
        A = V @ block @ V.T
        with pytest.raises(StabilityError, match="not Hurwitz"):
            solve(A, np.eye(4))

    def test_rejects_bad_dual_input(self):
        factor = CayleyFactor(-np.eye(2))
        with pytest.raises(ValueError, match="2 rows"):
            solve_lyapunov(factor, np.eye(3), dual=True)
        with pytest.raises(ValueError, match="non-finite"):
            solve_lyapunov(factor, np.array([[1.0], [np.nan]]), dual=True)


def complex_pair_schur_form(rng, n):
    """Quasi-upper-triangular T with a complex pair on every row pair, one 1x1 block if n is odd."""
    # Off-diagonal entries of order 1/n keep T close enough to normal that
    # the solution, and so the 1e-12 comparison, stays well conditioned.
    T = np.triu(rng.standard_normal((n, n)), 1) / n
    for i in range(n):
        T[i, i] = -0.5 - rng.random()
    for s in range(0, n - 1, 2):
        re, b, c = -0.3 - rng.random(), 0.5 + rng.random(), 0.5 + rng.random()
        T[s:s + 2, s:s + 2] = [[re, b], [-c, re]]
    return T


class TestBlockedTriangularSolve:
    """Random and quasi-triangular systems of up to 401 states against scipy's Bartels-Stewart solver."""

    @pytest.mark.parametrize("dim", [1, 32, 33, 65, 401])
    def test_random_systems_match_scipy(self, dim):
        A, B, C = random_stable_system(np.random.default_rng(dim), dim)
        W, W_dual = B @ B.T, C.T @ C
        factor = CayleyFactor(A)
        X = solve_lyapunov(factor, B)
        Y = solve_lyapunov(factor, C.T, dual=True)
        assert rel_diff(X, scipy_solve(A, B)) <= 1e-12
        assert rel_diff(Y, scipy_solve(A.T, C.T)) <= 1e-12
        assert residual(A, X, W) <= 1e-8 * max(1.0, np.linalg.norm(W, "fro"))
        assert residual(A.T, Y, W_dual) <= 1e-8 * max(1.0, np.linalg.norm(W_dual, "fro"))

    @pytest.mark.parametrize("dim", [66, 131])
    def test_complex_pair_forms_match_scipy(self, dim):
        rng = np.random.default_rng(dim)
        T = complex_pair_schur_form(rng, dim)
        B = rng.standard_normal((dim, 3))
        W = B @ B.T
        factor = CayleyFactor(T)
        X = solve_lyapunov(factor, B)
        Y = solve_lyapunov(factor, B, dual=True)
        assert rel_diff(X, scipy_solve(T, B)) <= 1e-12
        assert rel_diff(Y, scipy_solve(T.T, B)) <= 1e-12
        assert residual(T, X, W) <= 1e-8 * max(1.0, np.linalg.norm(W, "fro"))
        assert residual(T.T, Y, W) <= 1e-8 * max(1.0, np.linalg.norm(W, "fro"))


def count_eigvals(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counting(A):
        calls.append(None)
        return eigvals(A)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return calls


def count_is_hurwitz(monkeypatch):
    calls = []
    is_hurwitz = lyapunov.is_hurwitz

    def counting(A):
        calls.append(None)
        return is_hurwitz(A)

    monkeypatch.setattr(lyapunov, "is_hurwitz", counting)
    return calls


class TestKernelEdgeCases:
    """Inputs at the edges of the Cayley-power solver, against scipy."""

    def assert_pair_matches_scipy(self, A, F, tol):
        factor = CayleyFactor(A)
        assert rel_diff(solve_lyapunov(factor, F), scipy_solve(A, F)) <= tol
        assert rel_diff(solve_lyapunov(factor, F, dual=True), scipy_solve(A.T, F)) <= tol

    @pytest.mark.parametrize(
        "A", [[[-1.0, 1.0], [0.0, -1.0]], [[0.0, 1.0], [-1.0, -2.0]]],
        ids=["jordan-block", "critically-damped"],
    )
    def test_defective_matrices(self, A, monkeypatch):
        calls = count_eigvals(monkeypatch)
        F = np.linalg.cholesky(np.array([[1.0, 0.3], [0.3, 2.0]]))
        self.assert_pair_matches_scipy(np.array(A), F, 1e-12)
        assert not calls

    def test_stiff_diagonal_within_transform_conditioning(self):
        # With q = sqrt(1e-6 * 1e4) = 0.1, the slow mode maps to
        # mu = (lambda + q) / (lambda - q) = -1 + 2e-5. Rounding mu to double
        # perturbs 1 / (1 - mu^2), and so the gramian, by up to about
        # eps * q / (2 |lambda|) = 1e-11 relative (6.1e-12 measured).
        self.assert_pair_matches_scipy(np.diag([-1e-6, -1e4]), np.eye(2), 1e-10)

    def test_inconclusive_certificate_falls_back_to_eigvals(self, monkeypatch):
        # One fast mode among nine slow ones: q is about 6.3e-3, the fast
        # mode's Cayley eigenvalue is 1 - 1.3e-7, and the bound on the
        # abscissa (-4e-10) does not clear the margin. The eigenvalues
        # show the matrix is Hurwitz, so the gramians are returned.
        calls = count_eigvals(monkeypatch)
        checks = count_is_hurwitz(monkeypatch)
        A = np.diag(np.r_[np.full(9, -1e-3), -1e5])
        W = np.random.default_rng(0).standard_normal((10, 10))
        F = np.linalg.cholesky(W + W.T + 20.0 * np.eye(10))
        self.assert_pair_matches_scipy(A, F, 1e-12)
        assert len(calls) == len(checks) == 1

    @pytest.mark.parametrize("scale", [1e-3, 2.0, 1e3])
    def test_invariant_to_scaling_a(self, scale):
        A, B, _ = random_stable_system(np.random.default_rng(21), 20)
        assert rel_diff(scale * solve(scale * A, B), solve(A, B)) <= 1e-12
        self.assert_pair_matches_scipy(scale * A, B, 1e-12)

    @pytest.mark.parametrize("kind", ["singular", "unstable-50", "undamped-oscillator"])
    def test_rejects_without_warnings(self, kind, monkeypatch):
        # A singular A - qI, powers that overflow, and powers of modulus one
        # that reach the squaring cap all end in the eigenvalue check.
        if kind == "singular":
            A = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, -2.0]])
        elif kind == "unstable-50":
            A = np.random.default_rng(3).standard_normal((50, 50))
            assert np.max(np.linalg.eigvals(A).real) > 1.0
        else:
            A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        checks = count_is_hurwitz(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StabilityError, match="^system matrix is not Hurwitz \\(spectral"):
                solve(A, np.eye(len(A)))
        assert len(checks) == 1

    def test_hurwitz_but_unresolved_by_the_transform(self, monkeypatch):
        # q = sqrt(1e27) rounds the slow mode's Cayley eigenvalue to -1, so
        # its powers never decay although A is Hurwitz.
        checks = count_is_hurwitz(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StabilityError, match="did not converge.*-1.000e-03"):
                solve(np.diag([-1e-3, -1e30]), np.eye(2))
        assert len(checks) == 1


class TestCertificateFallback:
    """The certificate computes eigenvalues only through ``is_hurwitz``, and only when its bound fails."""

    @pytest.mark.parametrize("case", ["twelve-bus", "grid100"])
    def test_certified_midpoint_skips_is_hurwitz(self, monkeypatch, case, twelve_net, twelve_params):
        # device_params puts the design at the box midpoint.
        if case == "twelve-bus":
            net, params = twelve_net, twelve_params
        else:
            doc = vt.parse_network(netgen.grid_document(vt, 1))
            net = vt.reduce_network(doc.spec)
            params = vt.device_params(doc, net.gen_ids)
        calls = count_is_hurwitz(monkeypatch)
        eigvals = count_eigvals(monkeypatch)
        ev = vt.eval_objective(params, vt.ObjectiveConfig(), net, 0)
        assert np.isfinite(ev.J_total)
        assert not calls and not eigvals


def swing_systems(twelve_net, twelve_params):
    """Swing models at random box points: ``(all-channel realization, known-location B)``.

    Three twelve-bus points (17 states) with a random ``eta`` and reference
    bus, and two 50-generator grids (99 states) with a one-bus ``eta``.
    """
    rng = np.random.default_rng(31)
    p = twelve_params
    for _ in range(3):
        m = p.m_lb + rng.random(p.n) * (p.m_ub - p.m_lb)
        d = p.d_lb + rng.random(p.n) * (p.d_ub - p.d_lb)
        yield twelve_net, p.with_design(m, d), int(rng.integers(p.n)), rng.random(p.n)
    for seed in (5, 6):
        net = vt.reduce_network(random_connected_spec(np.random.default_rng(seed), 50))
        n = net.n
        params = vt.DeviceParams(
            m_hat=0.5 + 2.0 * rng.random(n), d_hat=0.2 + rng.random(n),
            m=3.0 * rng.random(n), d=2.0 * rng.random(n),
            m_lb=np.zeros(n), m_ub=np.full(n, 3.0), d_lb=np.zeros(n), d_ub=np.full(n, 2.0),
        )
        yield net, params, 0, np.eye(n)[int(rng.integers(n))]


class TestFactoredKernel:
    """Block elimination of the damping block and factored right-hand sides, on swing models."""

    def test_shift_inverse_matches_dense_lapack(self, twelve_net, twelve_params):
        for net, params, ref, _ in swing_systems(twelve_net, twelve_params):
            A = vt.assemble_state_space(net, params, ref).A
            dim = A.shape[0]
            assert lyapunov._diagonal_split(A) == net.n - 1
            q, R = lyapunov._shift_inverse(A)
            assert q == pytest.approx(np.exp(np.linalg.slogdet(A)[1] / dim), rel=1e-13)
            assert rel_diff(R, np.linalg.inv(A - q * np.eye(dim))) <= 1e-13

    def test_factored_solves_match_dense_solves(self, twelve_net, twelve_params):
        # The dense solves are scipy's, from W = F F^T.
        for net, params, ref, eta in swing_systems(twelve_net, twelve_params):
            ss = vt.assemble_state_space(net, params, ref)
            B_eta = vt.assemble_state_space(net, params, ref, eta=eta).B
            factor = CayleyFactor(ss.A)
            for F, dual in ((ss.B, False), (B_eta, False), (ss.C.T, True)):
                W = F @ F.T
                A = ss.A.T if dual else ss.A
                X = solve_lyapunov(factor, F, dual=dual)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    check_residual(A, X, W, "X")
                assert rel_diff(X, scipy_solve(A, F)) <= 1e-13
                assert np.array_equal(X, X.T)
                assert residual(A, X, W) <= 1e-8 * max(1.0, np.linalg.norm(W, "fro"))

    def test_squaring_stops_on_the_bound(self, twelve_net, twelve_params):
        for net, params, ref, _ in swing_systems(twelve_net, twelve_params):
            ss = vt.assemble_state_space(net, params, ref)
            factor = CayleyFactor(ss.A)
            solve_lyapunov(factor, ss.B)
            powers = factor.powers
            # Each stored power's square was needed; the last one's square is
            # below the tolerance, formed or not.
            norms = [np.linalg.norm(T) for T in powers]
            assert all(norm**2 > lyapunov.POWER_TOL for norm in norms[:-1])
            assert np.linalg.norm(powers[-1] @ powers[-1]) <= lyapunov.POWER_TOL

    @pytest.mark.parametrize("kind", ["generic", "zero-in-diagonal-block"])
    def test_without_usable_block_takes_dense_path(self, kind):
        if kind == "generic":
            A, B, _ = random_stable_system(np.random.default_rng(41), 12)
        else:
            # Swing-like: a coupling block over a diagonal block with one zero entry.
            rng = np.random.default_rng(42)
            A = np.zeros((7, 7))
            A[:3, 3:] = rng.standard_normal((3, 4))
            A[3:, :3] = -A[:3, 3:].T
            A[3:, 3:] = np.diag([-1.0, 0.0, -2.0, -0.5])
            A[:3, :3] = -np.eye(3)
            B = rng.standard_normal((7, 2))
        assert np.max(np.linalg.eigvals(A).real) < -1e-3
        assert lyapunov._diagonal_split(A) == A.shape[0]
        q, R = lyapunov._shift_inverse(A)
        assert q == pytest.approx(np.exp(np.linalg.slogdet(A)[1] / A.shape[0]), rel=1e-13)
        assert rel_diff(R, np.linalg.inv(A - q * np.eye(A.shape[0]))) <= 1e-13
        factor = CayleyFactor(A)
        X = solve_lyapunov(factor, B)
        Y = solve_lyapunov(factor, B, dual=True)
        assert rel_diff(X, scipy_solve(A, B)) <= 1e-12
        assert rel_diff(Y, scipy_solve(A.T, B)) <= 1e-12

    def test_rejects_bad_factor(self):
        factor = CayleyFactor(-np.eye(3))
        with pytest.raises(ValueError, match="3 rows"):
            solve_lyapunov(factor, np.ones((2, 1)))
        with pytest.raises(ValueError, match="non-finite"):
            solve_lyapunov(factor, np.full((3, 1), np.nan))


class TestLazySquaring:
    """A factor holds no power until a sum squares; a stop rule that never fires changes nothing."""

    @pytest.mark.parametrize("case", ["twelve-bus", "grid50"])
    def test_unfired_reject_gives_the_eager_factor(self, case, twelve_net, twelve_params):
        net, params = (twelve_net, twelve_params) if case == "twelve-bus" else grid_problem(3)
        ss = vt.assemble_state_space(net, params, 0)
        w = np.einsum("ij,ij->j", ss.C, ss.C)
        lazy = CayleyFactor(ss.A)
        assert lazy.powers == []
        P = solve_lyapunov(lazy, ss.B, reject=lyapunov.RejectAbove(w, 0.0, np.inf))
        # The reference is squared by a sum without a stop rule.
        eager = CayleyFactor(ss.A)
        P_eager = solve_lyapunov(eager, ss.B)
        assert len(lazy.powers) == len(eager.powers) > 1
        assert all(np.array_equal(a, b) for a, b in zip(lazy.powers, eager.powers))
        assert np.array_equal(P, P_eager)
        assert np.array_equal(solve_lyapunov(lazy, ss.C.T, dual=True),
                              solve_lyapunov(eager, ss.C.T, dual=True))

    @pytest.mark.parametrize("kind", ["unstable", "unresolved"])
    def test_dual_of_lazy_factor_raises_like_the_eager_one(self, kind):
        if kind == "unstable":
            A, _, C = random_stable_system(np.random.default_rng(13), 20)
            A = A + 3.0 * np.eye(20)
        else:
            A, C = np.diag([-1e-3, -1e30]), np.eye(2)
        # The reference is raised by a primal sum, the other by a dual sum on a fresh factor.
        with pytest.raises(StabilityError) as eager:
            solve_lyapunov(CayleyFactor(A), C.T)
        with pytest.raises(StabilityError) as raised:
            solve_lyapunov(CayleyFactor(A), C.T, dual=True)
        assert str(raised.value) == str(eager.value)

    def test_factor_of_unstable_matrix_raises_at_its_first_sum(self):
        factor = CayleyFactor(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert factor.powers == []
        with pytest.raises(StabilityError) as raised:
            solve_lyapunov(factor, np.eye(2))
        assert str(raised.value) == "system matrix is not Hurwitz (spectral abscissa 0.000e+00)"


def each_power_formed_once():
    """Four threads sum from one factor: each power is formed once, and every sum is serial's.

    Sums are bitwise equal to the serial ones only with BLAS on one thread,
    the only configuration in which the package shares a factor between
    threads (``objective._overlap``); a multithreaded OpenBLAS sometimes
    rounds them differently.
    """
    net, params = grid_problem(4, 60)
    ss = vt.assemble_state_space(net, params, 0)
    eager = CayleyFactor(ss.A)
    P, Q = solve_lyapunov(eager, ss.B), solve_lyapunov(eager, ss.C.T, dual=True)
    square = CayleyFactor.square
    stored = []

    def counting(factor):
        formed = square(factor)
        stored.append(formed)
        return formed

    # Four sums, more threads than two cores, switching often.
    sums = [(False, ss.B, P), (True, ss.C.T, Q)] * 2
    interval = sys.getswitchinterval()
    CayleyFactor.square = counting
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            factor = CayleyFactor(ss.A)
            stored.clear()
            barrier = threading.Barrier(len(sums))
            results = [None] * len(sums)

            def run(k, dual, F):
                barrier.wait(10)
                results[k] = solve_lyapunov(factor, F, dual=dual)

            threads = [threading.Thread(target=run, args=(k, dual, F))
                       for k, (dual, F, _) in enumerate(sums)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
            assert sum(stored) == len(factor.powers) == len(eager.powers)
            assert all(np.array_equal(a, b) for a, b in zip(factor.powers, eager.powers))
            assert all(np.array_equal(X, ref) for X, (_, _, ref) in zip(results, sums))
    finally:
        sys.setswitchinterval(interval)
        CayleyFactor.square = square


class TestTwoThreads:
    """Two threads taking powers from one factor, as ``eval_objective``'s worker and caller do."""

    def test_each_power_formed_once(self):
        # In a child with BLAS on one thread, whatever this process was started with.
        tests = Path(__file__).resolve().parent
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
        out = subprocess.run(
            [sys.executable, "-c", "import test_lyapunov; test_lyapunov.each_power_formed_once()"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr

    def test_stop_ends_a_waiting_sum(self):
        net, params = grid_problem(4, 60)
        ss = vt.assemble_state_space(net, params, 0)
        factor = CayleyFactor(ss.A)
        factor._lock.acquire()  # as if another thread were forming the first power
        outcome = []

        def run():
            try:
                solve_lyapunov(factor, ss.C.T, dual=True)
            except lyapunov.FactorStopped as exc:
                outcome.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(0.05)
        assert thread.is_alive()
        factor.stop()
        factor._lock.release()  # the squaring it waits on ends
        thread.join(10)
        assert not thread.is_alive() and len(outcome) == 1
        with pytest.raises(lyapunov.FactorStopped):
            factor.power(0)
