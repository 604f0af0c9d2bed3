import gc
import multiprocessing
import os
import threading
import time
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vsmtune as vt
import vsmtune.objective as objective_module
from vsmtune import ObjectiveConfig, StateSpace, lyapunov

from conftest import (
    gramians,
    grid_problem,
    h2_value,
    random_connected_spec,
    random_stable_system,
    single_machine,
)


def finite_difference_gradient(params, cfg, net, ref_bus):
    """Central differences of the objective value, the independent oracle."""
    n = params.n
    alpha = np.concatenate([params.m, params.d])
    fd = np.empty(2 * n)
    for i in range(2 * n):
        h = 1e-5 * max(1.0, abs(alpha[i]))
        up, dn = alpha.copy(), alpha.copy()
        up[i] += h
        dn[i] -= h
        J_up = vt.objective_value(params.with_design(up[:n], up[n:]), cfg, net, ref_bus)
        J_dn = vt.objective_value(params.with_design(dn[:n], dn[n:]), cfg, net, ref_bus)
        fd[i] = (J_up - J_dn) / (2 * h)
    return fd


def interior_point(params, rng):
    span_m = params.m_ub - params.m_lb
    span_d = params.d_ub - params.d_lb
    m = params.m_lb + (0.1 + 0.8 * rng.random(params.n)) * span_m
    d = params.d_lb + (0.1 + 0.8 * rng.random(params.n)) * span_d
    return params.with_design(m, d)


class TestH2Norm:
    def test_scalar_first_order_system(self):
        ss = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        assert h2_value(ss) == pytest.approx(0.5, rel=1e-12)

    def test_duality_on_two_bus(self, two_bus):
        net, params = two_bus
        ss = vt.assemble_state_space(net, params, ref_bus=0)
        P, Q = gramians(ss)
        direct = h2_value(ss)
        dual = float(np.trace(ss.B.T @ Q @ ss.B))
        assert direct == pytest.approx(dual, rel=1e-10)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("mass", [0.5, 1.0, 2.0])
    def test_mass_spring_damper_value(self, k, mass):
        # mass * xddot + c * xdot + k * x = u observed through sqrt(mass) * xdot:
        # the H2 norm is 1/(2c) independent of stiffness and mass, which is
        # exactly why the H2 value alone cannot steer inertia.
        c = 1.0
        ss = StateSpace(
            A=[[0.0, 1.0], [-k / mass, -c / mass]],
            B=[[0.0], [1.0 / mass]],
            C=[[0.0, np.sqrt(mass)]],
        )
        assert h2_value(ss) == pytest.approx(0.5, rel=1e-10)

    def test_single_machine_closed_form(self):
        for d_hat, d in [(1.0, 0.0), (0.5, 0.3), (2.0, 1.0)]:
            net, params = single_machine(m_hat=1.3, d_hat=d_hat, d=d)
            ss = vt.assemble_state_space(net, params, ref_bus=0)
            assert h2_value(ss) == pytest.approx(1.0 / (2 * (d_hat + d)), rel=1e-12)

    def test_propagates_stability_error(self, two_bus):
        # Two unconnected machines: their angle difference is undriven, so
        # the grounded realization has a zero eigenvalue.
        _, params = two_bus
        net = vt.ReducedNetwork(gen_ids=(1, 2), L=np.zeros((2, 2)))
        with pytest.raises(vt.StabilityError, match="not Hurwitz"):
            vt.eval_objective(params, ObjectiveConfig(), net, 0)


class TestGradH2:
    def test_single_machine_closed_form_gradient(self):
        for m_hat, d_hat in [(1.0, 1.0), (2.0, 0.5), (0.7, 1.8)]:
            net, params = single_machine(m_hat=m_hat, d_hat=d_hat, m=0.4, d=0.2)
            ss = vt.assemble_state_space(net, params, ref_bus=0)
            P, Q = gramians(ss)
            grad_m, grad_d = vt.grad_h2(ss, params, P=P, Q=Q)
            D = d_hat + 0.2
            assert grad_d[0] == pytest.approx(-1.0 / (2 * D**2), rel=1e-10)
            assert grad_m[0] == pytest.approx(0.0, abs=1e-12)

    @staticmethod
    def assert_matches_finite_differences(net, params, cfg, rng, points):
        for _ in range(points):
            p = interior_point(params, rng)
            ev = vt.eval_objective(p, cfg, net, 0)
            grad = np.concatenate([ev.grad_m, ev.grad_d])
            fd = finite_difference_gradient(p, cfg, net, 0)
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-12)
            assert rel.max() < 1e-5

    def test_matches_finite_differences_full_b(self, twelve_net, twelve_params):
        cfg = ObjectiveConfig(beta=0.0)
        self.assert_matches_finite_differences(twelve_net, twelve_params, cfg,
                                               np.random.default_rng(3), 5)

    def test_matches_finite_differences_known_location(self, twelve_net, twelve_params):
        eta = np.zeros(twelve_net.n)
        eta[twelve_net.index_of(6)] = 1.0
        cfg = ObjectiveConfig(beta=0.0, eta=eta)
        self.assert_matches_finite_differences(twelve_net, twelve_params, cfg,
                                               np.random.default_rng(4), 5)

    def test_matches_finite_differences_spread_eta(self, twelve_net, twelve_params):
        # A disturbance shared unevenly by every bus: each omega-row of B is nonzero.
        rng = np.random.default_rng(10)
        cfg = ObjectiveConfig(beta=0.0, eta=0.2 + rng.random(twelve_net.n))
        self.assert_matches_finite_differences(twelve_net, twelve_params, cfg, rng, 3)

    def test_matches_finite_differences_all_channels_grid50(self):
        net, params = grid_problem(4)
        self.assert_matches_finite_differences(net, params, ObjectiveConfig(beta=0.0),
                                               np.random.default_rng(11), 1)

    @pytest.mark.parametrize("known_location", [False, True])
    def test_matches_per_bus_loop(self, twelve_net, twelve_params, known_location):
        # Reference: the per-bus loop the vectorized contraction replaced.
        eta = np.random.default_rng(6).random(twelve_net.n) if known_location else None
        p = interior_point(twelve_params, np.random.default_rng(5))
        ss = vt.assemble_state_space(twelve_net, p, 3, eta=eta)
        P, Q = gramians(ss)
        n, na, M = p.n, p.n - 1, p.m_total
        PQ, QB = P @ Q, Q @ ss.B
        ref_m, ref_d = np.empty(n), np.empty(n)
        for i in range(n):
            w = na + i
            a_term = -2.0 / M[i] * float(ss.A[w, :] @ PQ[:, w])
            if eta is None:
                b_term = -2.0 * Q[w, w] / M[i] ** 3
            else:
                b_term = -2.0 * eta[i] / M[i] ** 2 * float(QB[w, 0])
            ref_m[i] = a_term + b_term + P[w, w]
            ref_d[i] = -2.0 / M[i] * PQ[w, w]
        grad_m, grad_d = vt.grad_h2(ss, p, P=P, Q=Q)
        assert np.max(np.abs(grad_m - ref_m)) <= 1e-13 * np.max(np.abs(ref_m))
        assert np.max(np.abs(grad_d - ref_d)) <= 1e-13 * np.max(np.abs(ref_d))

    def test_symmetric_network_symmetric_gradient(self, two_bus):
        net, params = two_bus
        p = params.with_design([0.5, 0.5], [0.3, 0.3])
        ss = vt.assemble_state_space(net, p, ref_bus=0)
        P, Q = gramians(ss)
        grad_m, grad_d = vt.grad_h2(ss, p, P=P, Q=Q)
        assert grad_m[0] == pytest.approx(grad_m[1], rel=1e-9)
        assert grad_d[0] == pytest.approx(grad_d[1], rel=1e-9)


class TestEvalObjective:
    def test_beta_zero_means_pure_h2(self, twelve_net, twelve_params):
        ev = vt.eval_objective(twelve_params, ObjectiveConfig(beta=0.0), twelve_net, 0)
        assert ev.J_reg == 0.0
        assert ev.J_total == ev.J_h2
        ss = vt.assemble_state_space(twelve_net, twelve_params, 0)
        grad_m, _ = vt.grad_h2(ss, twelve_params, P=ev.P, Q=ev.Q)
        assert np.array_equal(ev.grad_m, grad_m)
        # Gradients from scipy's gramians agree to rounding.
        P, Q = gramians(ss)
        scipy_grad_m, _ = vt.grad_h2(ss, twelve_params, P=P, Q=Q)
        assert np.max(np.abs(ev.grad_m - scipy_grad_m)) <= 1e-13 * np.max(np.abs(grad_m))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_beta_zero_adds_nothing_where_m_squared_overflows(self):
        # m @ m = 2.25e308 overflows; 0 * inf would make J_reg NaN.
        m = 1.5e154
        net, params = single_machine(m=m, m_box=(0.0, m), d=1e-4 * m, d_box=(0.0, 1e-4 * m))
        ev = vt.eval_objective(params, ObjectiveConfig(beta=0.0), net, 0)
        assert ev.J_reg == 0.0
        assert ev.J_total == ev.J_h2 == pytest.approx(1.0 / (2.0 * (1.0 + 1e-4 * m)), rel=1e-14)
        assert np.all(np.isfinite(ev.grad_m)) and np.all(np.isfinite(ev.grad_d))

    def test_zero_m_kills_regularizer(self, twelve_net, twelve_params):
        p = twelve_params.with_design(np.zeros(twelve_params.n), twelve_params.d)
        ev0 = vt.eval_objective(p, ObjectiveConfig(beta=0.0), twelve_net, 0)
        ev1 = vt.eval_objective(p, ObjectiveConfig(beta=1.0), twelve_net, 0)
        assert ev1.J_reg == 0.0
        assert np.array_equal(ev0.grad_m, ev1.grad_m)

    def test_negative_beta_arithmetic(self, twelve_net, twelve_params):
        n = twelve_params.n
        p = twelve_params.with_design(np.ones(n), twelve_params.d)
        ev0 = vt.eval_objective(p, ObjectiveConfig(beta=0.0), twelve_net, 0)
        ev = vt.eval_objective(p, ObjectiveConfig(beta=-0.1), twelve_net, 0)
        assert ev.J_reg == pytest.approx(-0.1 * n, rel=1e-15)
        assert ev.J_total == pytest.approx(ev.J_h2 - 0.1 * n, rel=1e-15)
        assert np.allclose(ev.grad_m, ev0.grad_m - 0.2, atol=1e-14)

    def test_h2_part_always_nonnegative(self, twelve_net, twelve_params):
        ev = vt.eval_objective(twelve_params, ObjectiveConfig(beta=-10.0), twelve_net, 0)
        assert ev.J_h2 >= 0.0
        assert ev.J_total == ev.J_h2 + ev.J_reg

    def test_trace_duality_at_evaluation(self, twelve_net, twelve_params):
        ev = vt.eval_objective(twelve_params, ObjectiveConfig(), twelve_net, 0)
        ss = vt.assemble_state_space(twelve_net, twelve_params, 0)
        dual = float(np.trace(ss.B.T @ ev.Q @ ss.B))
        assert abs(ev.J_h2 - dual) <= 1e-10 * ev.J_h2

    def test_damping_strictly_reduces_h2(self, twelve_net, twelve_params):
        rng = np.random.default_rng(5)
        cfg = ObjectiveConfig(beta=0.0)
        for _ in range(5):
            p = interior_point(twelve_params, rng)
            base = vt.objective_value(p, cfg, twelve_net, 0)
            i = int(rng.integers(twelve_params.n))
            d_up = np.array(p.d)
            d_up[i] += 0.05
            bumped = vt.DeviceParams(
                m_hat=p.m_hat, d_hat=p.d_hat, m=p.m, d=d_up,
                m_lb=p.m_lb, m_ub=p.m_ub, d_lb=p.d_lb, d_ub=p.d_ub + 0.05,
            )
            assert vt.objective_value(bumped, cfg, twelve_net, 0) < base

    def test_reference_bus_invariance(self, twelve_net, twelve_params):
        # Grounding at any generator gives the same J and gradient, up to rounding.
        p = interior_point(twelve_params, np.random.default_rng(11))
        for eta in (None, np.eye(twelve_net.n)[2]):
            cfg = ObjectiveConfig(beta=0.01, eta=eta)
            evals = [vt.eval_objective(p, cfg, twelve_net, rb) for rb in range(twelve_net.n)]
            J = np.array([ev.J_total for ev in evals])
            grads = np.array([np.concatenate([ev.grad_m, ev.grad_d]) for ev in evals])
            assert np.abs(J - J[0]).max() <= 1e-12 * abs(J[0])
            assert np.abs(grads - grads[0]).max() <= 1e-12 * np.abs(grads[0]).max()

    def test_known_location_bounded_by_unknown(self, twelve_net, twelve_params):
        J_full = vt.objective_value(twelve_params, ObjectiveConfig(), twelve_net, 0)
        for bus in twelve_net.gen_ids:
            eta = np.zeros(twelve_net.n)
            eta[twelve_net.index_of(bus)] = 1.0
            J_chan = vt.objective_value(
                twelve_params, ObjectiveConfig(eta=eta), twelve_net, 0
            )
            assert J_chan <= J_full + 1e-12

    @pytest.mark.parametrize("known_location", [False, True])
    def test_lazy_dual_matches_eager_gramians(self, twelve_net, twelve_params, known_location):
        eta = np.random.default_rng(8).random(twelve_net.n) if known_location else None
        cfg = ObjectiveConfig(beta=0.3, eta=eta)
        p = interior_point(twelve_params, np.random.default_rng(9))
        ev = vt.eval_objective(p, cfg, twelve_net, 2)
        ss = vt.assemble_state_space(twelve_net, p, 2, eta=eta)
        P, Q = gramians(ss)
        grad_m, grad_d = vt.grad_h2(ss, p, P=P, Q=Q)
        grad_m = grad_m + 2.0 * cfg.beta * p.m
        assert np.max(np.abs(ev.P - P)) <= 1e-13 * np.max(np.abs(P))
        assert np.max(np.abs(ev.Q - Q)) <= 1e-13 * np.max(np.abs(Q))
        assert np.max(np.abs(ev.grad_m - grad_m)) <= 1e-13 * np.max(np.abs(grad_m))
        assert np.max(np.abs(ev.grad_d - grad_d)) <= 1e-13 * np.max(np.abs(grad_d))

    @pytest.mark.parametrize("with_reject", [False, True])
    def test_factor_is_freed_when_the_call_returns(self, monkeypatch, twelve_net, twelve_params,
                                                   with_reject):
        # An evaluation that is not rejected keeps its gramians and gradient,
        # not the Cayley factor and its powers.
        CayleyFactor, refs = objective_module.CayleyFactor, []

        def recording(*args, **kwargs):
            factor = CayleyFactor(*args, **kwargs)
            refs.append(weakref.ref(factor))
            return factor

        monkeypatch.setattr(objective_module, "CayleyFactor", recording)
        cfg = ObjectiveConfig(beta=0.1)
        J = vt.objective_value(twelve_params, cfg, twelve_net, 0)
        reject_above = 2.0 * J if with_reject else None
        ev = vt.eval_objective(twelve_params, cfg, twelve_net, 0, reject_above=reject_above)
        gc.collect()
        assert len(refs) == 2 and refs[-1]() is None
        assert ev.J_total == J

    def test_beta_must_be_finite(self):
        with pytest.raises(vt.ConfigurationError, match="finite"):
            ObjectiveConfig(beta=np.inf)


def rejection_cases(twelve_net, twelve_params):
    """Twelve-bus with both objectives and beta in {-0.1, 0, 0.1}, and a seeded 50-bus grid."""
    eta = np.eye(twelve_net.n)[0]
    for beta in (-0.1, 0.0, 0.1):
        for known_location in (False, True):
            cfg = ObjectiveConfig(beta=beta, eta=eta if known_location else None)
            yield twelve_net, twelve_params, cfg
    yield *grid_problem(3), ObjectiveConfig()


def box_point(params, rng):
    return params.with_design(
        params.m_lb + rng.random(params.n) * (params.m_ub - params.m_lb),
        params.d_lb + rng.random(params.n) * (params.d_ub - params.d_lb),
    )


def no_eigvals(A):
    raise AssertionError("np.linalg.eigvals called")


class TestEarlyRejection:
    """``eval_objective(..., reject_above=t)`` returns None exactly when ``J_total > t``."""

    def test_rejects_iff_value_above_threshold(self, monkeypatch, twelve_net, twelve_params):
        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        rng = np.random.default_rng(11)
        for net, params, cfg in rejection_cases(twelve_net, twelve_params):
            for _ in range(3):
                p = box_point(params, rng)
                full = vt.eval_objective(p, cfg, net, 0)
                J = full.J_total
                for rel in (-0.5, -1e-12, 1e-12, 0.5):
                    t = J + rel * abs(J)
                    ev = vt.eval_objective(p, cfg, net, 0, reject_above=t)
                    assert (ev is None) == (J > t)
                    if ev is not None:
                        assert ev.J_total == J
                        assert np.array_equal(ev.P, full.P)

    def test_low_threshold_stops_the_squaring(self, monkeypatch, twelve_net, twelve_params):
        # A threshold halfway up the H2 part is passed by a partial sum,
        # so fewer powers are formed than the full evaluation forms.
        square = lyapunov.CayleyFactor.square
        factors, formed = [], []  # powers stored per factor, in order of first square()

        def counting(factor):
            if not factors or factors[-1] is not factor:
                factors.append(factor)
                formed.append(0)
            stored = square(factor)
            formed[-1] += stored
            return stored

        monkeypatch.setattr(lyapunov.CayleyFactor, "square", counting)
        rng = np.random.default_rng(12)
        for net, params, cfg in rejection_cases(twelve_net, twelve_params):
            p = box_point(params, rng)
            ss = vt.assemble_state_space(net, p, 0, eta=cfg.eta)
            factor = lyapunov.CayleyFactor(ss.A)
            lyapunov.solve_lyapunov(factor, ss.B)
            powers = len(factor.powers)
            full = vt.eval_objective(p, cfg, net, 0)
            halfway = full.J_reg + 0.5 * full.J_h2
            assert vt.eval_objective(p, cfg, net, 0, reject_above=halfway) is None
            assert formed[-1] < formed[-2] == powers

    def test_non_hurwitz_rejected_without_eigvals(self, monkeypatch):
        rng = np.random.default_rng(13)
        A, B, C = random_stable_system(rng, 20)
        A = A + 3.0 * np.eye(20)
        w = np.einsum("ij,ij->j", C, C)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvals", no_eigvals)
            # The partial sums grow without bound: even the largest finite limit is passed.
            reject = lyapunov.RejectAbove(w, 0.0, np.finfo(float).max)
            assert lyapunov.solve_lyapunov(lyapunov.CayleyFactor(A), B, reject=reject) is None
            # A marginal swing model: two unconnected machines leave a zero
            # eigenvalue, so q = |det A|^(1/n) is 0 and the starting sum is NaN.
            net = vt.ReducedNetwork(gen_ids=(1, 2), L=np.zeros((2, 2)))
            params = vt.DeviceParams(
                m_hat=[1.0, 1.0], d_hat=[1.0, 1.0], m=[0.0, 0.0], d=[0.0, 0.0],
                m_lb=[0.0, 0.0], m_ub=[2.0, 2.0], d_lb=[0.0, 0.0], d_ub=[2.0, 2.0],
            )
            assert vt.eval_objective(params, ObjectiveConfig(), net, 0, reject_above=1e6) is None
        # Without a stop rule, the sum still certifies and raises.
        with pytest.raises(vt.StabilityError, match="not Hurwitz"):
            lyapunov.solve_lyapunov(lyapunov.CayleyFactor(A), B)

    def test_nan_partial_value_is_rejected(self, monkeypatch):
        A, B, C = random_stable_system(np.random.default_rng(14), 12)
        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        w = np.einsum("ij,ij->j", C, C)
        assert lyapunov.solve_lyapunov(lyapunov.CayleyFactor(A), B) is not None
        w_nan = w.copy()
        w_nan[3] = np.nan
        for reject in (lyapunov.RejectAbove(w_nan, 0.0, np.inf),
                       lyapunov.RejectAbove(w, np.nan, np.inf)):
            assert lyapunov.solve_lyapunov(lyapunov.CayleyFactor(A), B, reject=reject) is None


class TestUniformRatioOracle:
    """Closed forms that hold on any connected grid when every ``D_i / M_i = lam``.

    An impulse at bus j starts with kinetic energy ``1 / (2 M_j)``, and all
    of it is dissipated as ``integral omega^T D omega = lam integral omega^T
    M omega``, so the all-channels H2 norm is ``sum_i 1 / (2 D_i)`` whatever
    the Laplacian (Poolla, Bolognani and Doerfler, IEEE TAC 2017). Moving
    along ``(dm, lam dm)`` keeps the ratio, so the directional derivative is
    that of the closed form, ``-sum_i lam dm_i / (2 D_i^2)``.
    """

    @settings(max_examples=6, deadline=None)
    @given(
        st.integers(min_value=2, max_value=200),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.05, max_value=5.0),
    )
    def test_value_and_directional_derivative(self, n_buses, seed, lam):
        rng = np.random.default_rng(seed)
        net = vt.reduce_network(random_connected_spec(rng, n_buses, n_loads=n_buses // 10))
        n = net.n
        D = 0.2 + rng.random(n)
        params = vt.DeviceParams(
            m_hat=D / lam, d_hat=D, m=np.zeros(n), d=np.zeros(n),
            m_lb=np.zeros(n), m_ub=np.ones(n), d_lb=np.zeros(n), d_ub=np.ones(n),
        )
        ev = vt.eval_objective(params, ObjectiveConfig(), net, int(rng.integers(n)))
        J_closed = float(np.sum(1.0 / (2.0 * D)))
        assert abs(ev.J_h2 - J_closed) <= 1e-12 * J_closed

        dm = rng.random(n)
        slope = float(ev.grad_m @ dm + ev.grad_d @ (lam * dm))
        slope_closed = -float(np.sum(lam * dm / (2.0 * D**2)))
        assert abs(slope - slope_closed) <= 1e-12 * abs(slope_closed)


def objective_value(params, net):
    """All-channel ``J_total`` at reference bus 0, for a child process."""
    return vt.eval_objective(params, ObjectiveConfig(), net, 0).J_total


def child_executor():
    """In a forked child: whether it started its own executor, and that executor's answer to a task."""
    inherited = objective_module._worker
    executor = objective_module._executor()
    return (inherited is not None and executor is not inherited[1],
            objective_module._executor() is executor,
            executor.submit(os.getpid).result(timeout=10) == os.getpid())


def unstable(net):
    """``net`` with every susceptance negated, so that its realizations are not Hurwitz."""
    return vt.ReducedNetwork(gen_ids=net.gen_ids, L=-net.L)


class TestDualWorker:
    """The dual gramian summed on the worker thread: same bytes, same errors, nothing left running.

    ``grid60`` has 119 states, above ``OVERLAP_MIN_STATES``; twelve-bus has 17.
    """

    @pytest.fixture(params=["twelve-bus", "grid60"])
    def case(self, request, twelve_net, twelve_params):
        if request.param == "twelve-bus":
            return twelve_net, twelve_params
        return grid_problem(4, 60)

    def evaluations(self, net, params, rng):
        """Accepted, late-rejected, early-rejected and unbounded evaluations at box points."""
        for cfg in (ObjectiveConfig(), ObjectiveConfig(beta=0.1, eta=np.eye(params.n)[1])):
            for _ in range(2):
                p = box_point(params, rng)
                J = vt.eval_objective(p, cfg, net, 0).J_total
                for t in (None, J * (1 + 1e-9), J * (1 - 1e-9), 0.5 * J):
                    yield p, cfg, t

    def test_same_bytes_with_and_without_worker(self, case, dual_worker):
        net, params = case
        runs = {}
        for on in (False, True):
            dual_worker(on)
            runs[on] = [vt.eval_objective(p, cfg, net, 0, reject_above=t)
                        for p, cfg, t in self.evaluations(net, params, np.random.default_rng(5))]
        assert [ev is None for ev in runs[True]] == [ev is None for ev in runs[False]]
        assert sum(ev is None for ev in runs[True]) == 8
        for ev, ref in zip(runs[True], runs[False]):
            if ref is not None:
                for name in ("J_h2", "J_reg", "J_total", "P", "Q", "grad_m", "grad_d"):
                    assert np.array_equal(getattr(ev, name), getattr(ref, name)), name

    def test_stability_error_from_worker_certificate(self, monkeypatch, dual_worker):
        net, params = grid_problem(4, 60)
        net = unstable(net)
        dual_worker(False)
        with pytest.raises(vt.StabilityError) as serial:
            vt.eval_objective(params, ObjectiveConfig(), net, 0)
        # The primal sum waits until the worker's dual sum has ended, so the
        # worker forms every power and runs the certificate.
        dual_worker(True)
        dual_done = threading.Event()
        solve = objective_module.solve_lyapunov
        certified_in = []

        def ordered(factor, F, dual=False, reject=None):
            if dual:
                try:
                    return solve(factor, F, dual=True, reject=reject)
                finally:
                    dual_done.set()
            assert dual_done.wait(10)
            return solve(factor, F, reject=reject)

        def recording(A):
            certified_in.append(threading.current_thread())
            return is_hurwitz(A)

        is_hurwitz = lyapunov.is_hurwitz
        monkeypatch.setattr(objective_module, "solve_lyapunov", ordered)
        monkeypatch.setattr(lyapunov, "is_hurwitz", recording)
        with pytest.raises(vt.StabilityError) as raised:
            vt.eval_objective(params, ObjectiveConfig(), net, 0)
        assert str(raised.value) == str(serial.value)
        assert "not Hurwitz" in str(raised.value)
        assert len(certified_in) == 1 and certified_in[0] is not threading.main_thread()

    @pytest.mark.parametrize("outcome", ["accepted", "late-rejected", "early-rejected", "raised"])
    def test_no_worker_task_outlives_the_call(self, monkeypatch, dual_worker, outcome):
        net, params = grid_problem(4, 60)
        cfg = ObjectiveConfig()
        J = vt.eval_objective(params, cfg, net, 0).J_total
        dual_worker(True)
        solve = objective_module.solve_lyapunov
        running, ended = [], []

        def tracking(factor, F, dual=False, reject=None):
            if not dual:
                return solve(factor, F, reject=reject)
            running.append(1)
            try:
                # A slow start: an early rejection arrives while the worker sleeps.
                time.sleep(0.05)
                return solve(factor, F, dual=True, reject=reject)
            except BaseException as exc:
                ended.append(type(exc))
                raise
            finally:
                running.pop()

        monkeypatch.setattr(objective_module, "solve_lyapunov", tracking)
        t = {"accepted": J * 1.01, "late-rejected": J * (1 - 1e-9),
             "early-rejected": 0.0, "raised": None}[outcome]
        if outcome == "raised":
            with pytest.raises(vt.StabilityError):
                vt.eval_objective(params, cfg, unstable(net), 0, reject_above=t)
        else:
            ev = vt.eval_objective(params, cfg, net, 0, reject_above=t)
            assert (ev is None) == (outcome != "accepted")
        assert running == []
        if outcome == "early-rejected":
            # Stopped before its sum began, not run to its end.
            assert ended == [lyapunov.FactorStopped]

    @pytest.mark.parametrize("kind", ["unstable", "singular-shift"])
    def test_no_runtime_warning_from_worker(self, monkeypatch, dual_worker, kind):
        # Overflowing powers (unstable) and a NaN Cayley transform (q = 0) run
        # on the worker, whose numpy error state is its own.
        if kind == "unstable":
            net, params = grid_problem(4, 60)
            net = unstable(net)
        else:
            net = vt.ReducedNetwork(gen_ids=(1, 2), L=np.zeros((2, 2)))
            params = vt.DeviceParams(
                m_hat=[1.0, 1.0], d_hat=[1.0, 1.0], m=[0.0, 0.0], d=[0.0, 0.0],
                m_lb=[0.0, 0.0], m_ub=[2.0, 2.0], d_lb=[0.0, 0.0], d_ub=[2.0, 2.0],
            )
        dual_worker(True)
        solve = objective_module.solve_lyapunov
        worker_errors = []

        def recording(factor, F, dual=False, reject=None):
            try:
                return solve(factor, F, dual=dual, reject=reject)
            except BaseException as exc:
                if dual:
                    worker_errors.append(type(exc))
                raise

        monkeypatch.setattr(objective_module, "solve_lyapunov", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                for t in (None, 1e6):
                    try:
                        vt.eval_objective(params, ObjectiveConfig(), net, 0, reject_above=t)
                    except vt.StabilityError:
                        pass
        assert set(worker_errors) <= {vt.StabilityError, lyapunov.FactorStopped}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_forked_child_starts_its_own_worker(self, dual_worker):
        # The parent's worker thread does not survive a fork; a child that
        # reused its executor would wait for the dual gramian for ever.
        net, params = grid_problem(4, 60)
        dual_worker(True)
        ev = vt.eval_objective(params, ObjectiveConfig(), net, 0)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            J = pool.apply_async(objective_value, (params, net)).get(timeout=30)
        assert J == ev.J_total

    def test_one_executor_per_process(self):
        executor = objective_module._executor()
        assert objective_module._executor() is executor
        assert executor._max_workers == 1
        assert executor.submit(sum, [1, 2]).result(timeout=10) == 3

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_forked_child_starts_its_own_executor(self):
        # The parent's worker thread does not survive a fork; a child that
        # reused its executor would wait for its first task for ever.
        executor = objective_module._executor()
        executor.submit(int).result(timeout=10)
        with multiprocessing.get_context("fork").Pool(1) as workers:
            assert workers.apply_async(child_executor).get(timeout=30) == (True, True, True)
        assert objective_module._executor() is executor

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
    def test_overlap_needs_the_size_and_a_cpu_that_blas_leaves_free(self, monkeypatch):
        least = objective_module.OVERLAP_MIN_STATES
        for var in objective_module._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        cases = [
            ({0, 1}, {"OPENBLAS_NUM_THREADS": "1"}, least, True),
            ({0, 1}, {"OMP_NUM_THREADS": "1"}, 10 * least, True),
            ({0, 1}, {"OPENBLAS_NUM_THREADS": "1"}, least - 1, False),
            ({3}, {"OPENBLAS_NUM_THREADS": "1"}, least, False),
            ({0, 1}, {}, least, False),
            ({0, 1}, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, least, False),
            ({0, 1}, {"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, least, True),
        ]
        for cpus, env, states, expected in cases:
            with monkeypatch.context() as patch:
                patch.setattr(os, "sched_getaffinity", lambda pid: cpus)
                for var, value in env.items():
                    patch.setenv(var, value)
                assert objective_module._overlap(states) is expected, (cpus, env, states)
