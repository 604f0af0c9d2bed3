"""Acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them on
success). Expected values are analytic closed forms or independent
oracles (hand-solved matrices, central finite differences, quadrature),
never outputs of the code under test.
"""

import time
from contextlib import contextmanager

import numpy as np

import vsmtune as vt
from vsmtune import (
    Disturbance,
    DescentConfig,
    ObjectiveConfig,
    optimize,
    project,
    simulate,
    solve_lyapunov,
)

from conftest import output_energy, random_stable_system, single_machine

# Descent settings shared by the optimizer-based criteria: the library
# default residual tolerance, verified explicitly after each run.
ACCEPT_DCFG = DescentConfig(max_iter=20000)
ORDERING_BETA = 5e-4


@contextmanager
def criterion(num: int, description: str, budget: float | None = None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"runtime {elapsed:.1f}s exceeds the {budget:.0f}s budget"
            )
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"\nacceptance criterion {num} [{description}]: {status} ({elapsed:.1f}s)")


def interior_points(params, rng, count):
    for _ in range(count):
        m = params.m_lb + (0.1 + 0.8 * rng.random(params.n)) * (params.m_ub - params.m_lb)
        d = params.d_lb + (0.1 + 0.8 * rng.random(params.n)) * (params.d_ub - params.d_lb)
        yield params.with_design(m, d)


def central_differences(params, cfg, net, ref_bus):
    n = params.n
    alpha = np.concatenate([params.m, params.d])
    fd = np.empty(2 * n)
    for i in range(2 * n):
        h = 1e-5 * max(1.0, abs(alpha[i]))
        up, dn = alpha.copy(), alpha.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (
            vt.objective_value(params.with_design(up[:n], up[n:]), cfg, net, ref_bus)
            - vt.objective_value(params.with_design(dn[:n], dn[n:]), cfg, net, ref_bus)
        ) / (2 * h)
    return fd


def test_criterion_1_lyapunov_oracle():
    with criterion(1, "Lyapunov solver vs hand-solved oracle", budget=10.0):
        # Companion matrix A = [[0, 1], [-k, -c]] with W = diag(0, w). Solving
        # by hand: the transposed orientation gives diag(kw/(2c), w/(2c)); the
        # plain orientation gives diag(w/(2ck), w/(2c)).
        w = 1.0
        for k in (0.5, 1.0, 2.0):
            for c in (0.5, 1.0, 2.0):
                A = np.array([[0.0, 1.0], [-k, -c]])
                W = np.diag([0.0, w])
                X_dual = solve_lyapunov(A.T, W)
                expect_dual = np.diag([k * w / (2 * c), w / (2 * c)])
                assert np.max(np.abs(X_dual - expect_dual)) < 1e-10 * np.max(expect_dual)
                X_primal = solve_lyapunov(A, W)
                expect_primal = np.diag([w / (2 * c * k), w / (2 * c)])
                assert np.max(np.abs(X_primal - expect_primal)) < 1e-10 * np.max(expect_primal)

        rng = np.random.default_rng(101)
        for _ in range(100):
            dim = int(rng.integers(1, 41))
            A, B, _ = random_stable_system(rng, dim)
            W = B @ B.T
            X = solve_lyapunov(A, W)
            residual = np.linalg.norm(A @ X + X @ A.T + W, "fro")
            assert residual <= 1e-8 * max(1.0, np.linalg.norm(W, "fro"))


def test_criterion_2_trace_duality(twelve_net, twelve_params):
    with criterion(2, "gramian trace duality", budget=10.0):
        rng = np.random.default_rng(202)
        for _ in range(50):
            dim = int(rng.integers(2, 25))
            A, B, C = random_stable_system(rng, dim)
            P = solve_lyapunov(A, B @ B.T)
            Q = solve_lyapunov(A.T, C.T @ C)
            left = float(np.trace(C @ P @ C.T))
            right = float(np.trace(B.T @ Q @ B))
            assert abs(left - right) <= 1e-10 * left

        ss = vt.assemble_state_space(twelve_net, twelve_params, 0)
        P, Q = vt.gramians(ss)
        left = float(np.trace(ss.C @ P @ ss.C.T))
        right = float(np.trace(ss.B.T @ Q @ ss.B))
        assert abs(left - right) <= 1e-10 * left


def test_criterion_3_gradient_matches_finite_differences(twelve_net, twelve_params):
    with criterion(3, "analytic gradient vs central differences", budget=60.0):
        rng = np.random.default_rng(303)
        eta = np.zeros(twelve_net.n)
        eta[twelve_net.index_of(6)] = 1.0
        for cfg in (ObjectiveConfig(beta=0.0), ObjectiveConfig(beta=0.0, eta=eta)):
            for p in interior_points(twelve_params, rng, 20):
                ev = vt.eval_objective(p, cfg, twelve_net, 0)
                grad = np.concatenate([ev.grad_m, ev.grad_d])
                fd = central_differences(p, cfg, twelve_net, 0)
                rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-12)
                assert rel.max() < 1e-5


def test_criterion_4_single_machine_closed_form():
    with criterion(4, "single-machine closed form", budget=10.0):
        cases = [(1.0, 1.0, 0.0, 0.0), (1.5, 0.5, 0.5, 0.5), (0.8, 2.0, 1.0, 0.2),
                 (2.5, 0.9, 0.0, 1.1), (1.0, 1.4, 1.9, 0.0)]
        for m_hat, d_hat, m, d in cases:
            net, params = single_machine(m_hat=m_hat, d_hat=d_hat, m=m, d=d)
            ss = vt.assemble_state_space(net, params, ref_bus=0)
            J = vt.h2_norm_sq(ss)
            assert abs(J - 1.0 / (2 * (d_hat + d))) <= 1e-8 * J
            grad_m, _ = vt.grad_h2(ss, params)
            assert abs(grad_m[0]) < 1e-8


def test_criterion_5_optimizer_descent(twelve_net, twelve_params):
    with criterion(5, "projected gradient descent", budget=120.0):
        lb = np.concatenate([twelve_params.m_lb, twelve_params.d_lb])
        ub = np.concatenate([twelve_params.m_ub, twelve_params.d_ub])
        m0, d0 = twelve_params.box_midpoint()
        tol = ACCEPT_DCFG.grad_tol * (1 + np.linalg.norm(np.concatenate([m0, d0])))
        for beta in (-0.1, 0.0, 0.1):
            cfg = ObjectiveConfig(beta=beta)
            res = optimize(twelve_net, twelve_params, cfg, ACCEPT_DCFG, ref_bus=0)
            assert np.all(np.diff(res.J_history) <= 0), f"non-monotone at beta={beta}"
            assert res.converged, f"no convergence at beta={beta}"
            p = twelve_params.with_design(res.m_star, res.d_star)
            ev = vt.eval_objective(p, cfg, twelve_net, 0)
            alpha = np.concatenate([res.m_star, res.d_star])
            grad = np.concatenate([ev.grad_m, ev.grad_d])
            residual = np.linalg.norm(alpha - project(alpha - grad, lb, ub))
            assert residual <= tol

        # Monotone single-machine problems end exactly on the box boundary.
        net, params = single_machine(m_hat=1.0, d_hat=1.0, m=1.0, d=1.0,
                                     m_box=(0.5, 3.0), d_box=(0.2, 2.0))
        res = optimize(net, params, ObjectiveConfig(beta=2.0),
                       DescentConfig(), ref_bus=0)
        assert res.converged
        assert res.m_star[0] == 0.5 and res.d_star[0] == 2.0
        res = optimize(net, params, ObjectiveConfig(beta=-2.0),
                       DescentConfig(), ref_bus=0)
        assert res.converged
        assert res.m_star[0] == 3.0 and res.d_star[0] == 2.0


def test_criterion_6_qualitative_orderings(twelve_net, twelve_params):
    with criterion(6, "qualitative orderings on the twelve-bus case", budget=300.0):
        node = twelve_net.index_of(6)
        dist = Disturbance("step", node, 0.1)
        params = twelve_params

        res_u = optimize(twelve_net, params, ObjectiveConfig(beta=ORDERING_BETA),
                         ACCEPT_DCFG, ref_bus=0)
        assert res_u.converged

        # (a) optimal nadir falls between the min- and max-inertia designs;
        # (b) low inertia produces the sharper initial frequency slope.
        variants = [
            ("d_max_m_min", params.with_design(params.m_lb, params.d_ub)),
            ("d_opt_m_opt", params.with_design(res_u.m_star, res_u.d_star)),
            ("d_max_m_max", params.with_design(params.m_ub, params.d_ub)),
        ]
        sims = dict(vt.compare_designs(twelve_net, variants, dist,
                                       horizon=25.0, dt=1e-3, ref_bus=0))
        n_min = sims["d_max_m_min"].nadir[node]
        n_opt = sims["d_opt_m_opt"].nadir[node]
        n_max = sims["d_max_m_max"].nadir[node]
        assert min(n_min, n_max) <= n_opt <= max(n_min, n_max), (n_min, n_opt, n_max)
        assert sims["d_max_m_min"].rocof_max[node] > sims["d_max_m_max"].rocof_max[node]

        # (c) knowing the disturbance location shrinks the total inertia
        # allocation and concentrates it at the disturbed bus.
        eta = np.zeros(twelve_net.n)
        eta[node] = 1.0
        res_k = optimize(twelve_net, params, ObjectiveConfig(beta=ORDERING_BETA, eta=eta),
                         ACCEPT_DCFG, ref_bus=0)
        assert res_k.converged
        assert res_k.m_star.sum() <= res_u.m_star.sum()
        assert int(np.argmax(res_k.m_star)) == node

        # (d) raising the inertia penalty never lowers the peak ROCOF.
        rocofs = []
        for beta in (-0.2, -0.1, 0.0, 0.1, 0.2):
            res = optimize(twelve_net, params, ObjectiveConfig(beta=beta),
                           ACCEPT_DCFG, ref_bus=0)
            assert res.converged
            p = params.with_design(res.m_star, res.d_star)
            ss = vt.assemble_state_space(twelve_net, p, 0)
            rocofs.append(simulate(ss, dist, horizon=25.0, dt=1e-3).rocof_max[node])
        assert all(a <= b + 1e-12 for a, b in zip(rocofs, rocofs[1:])), rocofs


def test_criterion_7_energy_consistency(two_bus, twelve_net, twelve_params):
    with criterion(7, "impulse energy matches the H2 channel", budget=60.0):
        net2, params2 = two_bus
        ss2 = vt.assemble_state_space(net2, params2, ref_bus=1)
        _, Q2 = vt.gramians(ss2)
        channel = float(ss2.B[:, 0] @ Q2 @ ss2.B[:, 0])
        sim2 = simulate(ss2, Disturbance("impulse", 0, 1.0), horizon=40.0, dt=1e-3)
        energy = output_energy(sim2, params2)
        assert abs(energy - channel) <= 1e-4 * channel

        node = twelve_net.index_of(6)
        ss12 = vt.assemble_state_space(twelve_net, twelve_params, 0)
        _, Q12 = vt.gramians(ss12)
        channel12 = float(ss12.B[:, node] @ Q12 @ ss12.B[:, node])
        sim12 = simulate(ss12, Disturbance("impulse", node, 1.0), horizon=40.0, dt=1e-3)
        energy12 = output_energy(sim12, twelve_params)
        assert abs(energy12 - channel12) <= 1e-4 * channel12


def test_criterion_8_reference_bus_invariance(twelve_net, twelve_params):
    with criterion(8, "reference-bus invariance of the objective", budget=10.0):
        cfg = ObjectiveConfig(beta=0.05)
        values = [
            vt.eval_objective(twelve_params, cfg, twelve_net, rb).J_total
            for rb in (0, 4, 8)
        ]
        for v in values[1:]:
            assert abs(v - values[0]) <= 1e-8 * abs(values[0])
