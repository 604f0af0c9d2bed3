import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vsmtune as vt
from vsmtune import ObjectiveConfig, StateSpace

from conftest import random_connected_spec, single_machine


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
        ss = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]], ref_bus=0)
        assert vt.h2_norm_sq(ss) == pytest.approx(0.5, rel=1e-12)

    def test_duality_on_two_bus(self, two_bus):
        net, params = two_bus
        ss = vt.assemble_state_space(net, params, ref_bus=0)
        P, Q = vt.gramians(ss)
        direct = vt.h2_norm_sq(ss)
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
            ref_bus=0,
        )
        assert vt.h2_norm_sq(ss) == pytest.approx(0.5, rel=1e-10)

    def test_single_machine_closed_form(self):
        for d_hat, d in [(1.0, 0.0), (0.5, 0.3), (2.0, 1.0)]:
            net, params = single_machine(m_hat=1.3, d_hat=d_hat, d=d)
            ss = vt.assemble_state_space(net, params, ref_bus=0)
            assert vt.h2_norm_sq(ss) == pytest.approx(1.0 / (2 * (d_hat + d)), rel=1e-12)

    def test_propagates_stability_error(self):
        ss = StateSpace(A=[[0.0]], B=[[1.0]], C=[[1.0]], ref_bus=0)
        with pytest.raises(vt.StabilityError):
            vt.h2_norm_sq(ss)


class TestGradH2:
    def test_single_machine_closed_form_gradient(self):
        for m_hat, d_hat in [(1.0, 1.0), (2.0, 0.5), (0.7, 1.8)]:
            net, params = single_machine(m_hat=m_hat, d_hat=d_hat, m=0.4, d=0.2)
            ss = vt.assemble_state_space(net, params, ref_bus=0)
            grad_m, grad_d = vt.grad_h2(ss, params)
            D = d_hat + 0.2
            assert grad_d[0] == pytest.approx(-1.0 / (2 * D**2), rel=1e-10)
            assert grad_m[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences_full_b(self, twelve_net, twelve_params):
        rng = np.random.default_rng(3)
        cfg = ObjectiveConfig(beta=0.0)
        for _ in range(5):
            p = interior_point(twelve_params, rng)
            ev = vt.eval_objective(p, cfg, twelve_net, 0)
            grad = np.concatenate([ev.grad_m, ev.grad_d])
            fd = finite_difference_gradient(p, cfg, twelve_net, 0)
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-12)
            assert rel.max() < 1e-5

    def test_matches_finite_differences_known_location(self, twelve_net, twelve_params):
        rng = np.random.default_rng(4)
        eta = np.zeros(twelve_net.n)
        eta[twelve_net.index_of(6)] = 1.0
        cfg = ObjectiveConfig(beta=0.0, eta=eta)
        for _ in range(5):
            p = interior_point(twelve_params, rng)
            ev = vt.eval_objective(p, cfg, twelve_net, 0)
            grad = np.concatenate([ev.grad_m, ev.grad_d])
            fd = finite_difference_gradient(p, cfg, twelve_net, 0)
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-12)
            assert rel.max() < 1e-5

    @pytest.mark.parametrize("known_location", [False, True])
    def test_matches_per_bus_loop(self, twelve_net, twelve_params, known_location):
        # Reference: the per-bus loop the vectorized contraction replaced.
        eta = np.random.default_rng(6).random(twelve_net.n) if known_location else None
        p = interior_point(twelve_params, np.random.default_rng(5))
        ss = vt.assemble_state_space(twelve_net, p, 3, eta=eta)
        P, Q = vt.gramians(ss)
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
        grad_m, grad_d = vt.grad_h2(ss, p)
        assert grad_m[0] == pytest.approx(grad_m[1], rel=1e-9)
        assert grad_d[0] == pytest.approx(grad_d[1], rel=1e-9)


class TestEvalObjective:
    def test_beta_zero_means_pure_h2(self, twelve_net, twelve_params):
        ev = vt.eval_objective(twelve_params, ObjectiveConfig(beta=0.0), twelve_net, 0)
        assert ev.J_reg == 0.0
        assert ev.J_total == ev.J_h2
        grad_m, _ = vt.grad_h2(
            vt.assemble_state_space(twelve_net, twelve_params, 0), twelve_params
        )
        assert np.array_equal(ev.grad_m, grad_m)

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
        values = [
            vt.eval_objective(twelve_params, ObjectiveConfig(beta=0.3), twelve_net, rb).J_total
            for rb in (0, 4, 8)
        ]
        for v in values[1:]:
            assert v == pytest.approx(values[0], rel=1e-8)

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
        P, Q = vt.gramians(ss)
        grad_m, grad_d = vt.grad_h2(ss, p, P=P, Q=Q)
        grad_m = grad_m + 2.0 * cfg.beta * p.m
        assert np.max(np.abs(ev.P - P)) <= 1e-13 * np.max(np.abs(P))
        assert np.max(np.abs(ev.Q - Q)) <= 1e-13 * np.max(np.abs(Q))
        assert np.max(np.abs(ev.grad_m - grad_m)) <= 1e-13 * np.max(np.abs(grad_m))
        assert np.max(np.abs(ev.grad_d - grad_d)) <= 1e-13 * np.max(np.abs(grad_d))

    def test_beta_must_be_finite(self):
        with pytest.raises(vt.ConfigurationError, match="finite"):
            ObjectiveConfig(beta=np.inf)


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
