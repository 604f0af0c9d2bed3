import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import vsmtune as vt
import vsmtune.objective as objective_module
import vsmtune.optimizer as optimizer_module
from vsmtune import DescentConfig, ObjectiveConfig, TerminationReason, optimize, project

from conftest import random_connected_spec, single_machine


class TestProject:
    def test_interior_point_unchanged(self):
        alpha = np.array([0.5, 0.7])
        out = project(alpha, np.zeros(2), np.ones(2))
        assert np.array_equal(out, alpha)

    def test_clamps_below(self):
        out = project(np.array([-1.0, 0.5]), np.zeros(2), np.ones(2))
        assert np.array_equal(out, [0.0, 0.5])

    def test_clamps_above(self):
        out = project(np.array([4.0, 0.5]), np.zeros(2), np.ones(2))
        assert np.array_equal(out, [1.0, 0.5])

    def test_rejects_crossed_bounds(self):
        with pytest.raises(vt.ConfigurationError, match="lb > ub"):
            project(np.zeros(2), np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_idempotent_and_feasible(self, values, seed):
        rng = np.random.default_rng(seed)
        alpha = np.array(values)
        lb = alpha - np.abs(rng.standard_normal(alpha.size)) - 1.0
        ub = alpha + np.abs(rng.standard_normal(alpha.size))
        once = project(alpha, lb, ub)
        assert np.all(once >= lb) and np.all(once <= ub)
        assert np.array_equal(project(once, lb, ub), once)


class TestDescentConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iter": -1},
            {"grad_tol": -1e-6},
            {"grad_tol": float("nan")},
            {"grad_tol": float("-inf")},
            {"max_iter": 0},
            {"grad_tol": 0.0},
            {"grad_tol": float("inf")},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(vt.ConfigurationError):
            DescentConfig(**kwargs)


class TestOptimizeSingleMachine:
    # Closed form: J = 1/(2 (d_hat + d)) + beta m^2, monotone in each variable,
    # so the optimum sits exactly on the box boundary.

    def test_positive_beta_boundary_optimum(self):
        net, params = single_machine(m_hat=1.0, d_hat=1.0, m=1.0, d=1.0,
                                     m_box=(0.5, 3.0), d_box=(0.2, 2.0))
        res = optimize(net, params, ObjectiveConfig(beta=2.0),
                       DescentConfig(), ref_bus=0)
        assert res.converged
        assert res.termination_reason is TerminationReason.gradient_tol
        assert res.m_star[0] == 0.5
        assert res.d_star[0] == 2.0

    def test_negative_beta_boundary_optimum(self):
        net, params = single_machine(m_hat=1.0, d_hat=1.0, m=1.0, d=1.0,
                                     m_box=(0.5, 3.0), d_box=(0.2, 2.0))
        res = optimize(net, params, ObjectiveConfig(beta=-2.0),
                       DescentConfig(), ref_bus=0)
        assert res.converged
        assert res.m_star[0] == 3.0
        assert res.d_star[0] == 2.0

    def test_stationary_start_returns_immediately(self):
        # Pin d with a degenerate box; with beta = 0 the single-machine
        # objective has zero m-gradient, so the start is already a fixed
        # point of the projected update.
        net, params = single_machine(m_hat=1.0, d_hat=1.0, m=1.0, d=0.5,
                                     m_box=(0.0, 2.0), d_box=(0.5, 0.5))
        dcfg = DescentConfig(init_m=np.array([1.0]), init_d=np.array([0.5]))
        res = optimize(net, params, ObjectiveConfig(beta=0.0), dcfg, ref_bus=0)
        assert res.converged
        assert res.iterations <= 1
        assert res.m_star[0] == 1.0


@pytest.fixture(scope="module")
def result(twelve_net, twelve_params):
    return optimize(
        twelve_net, twelve_params, ObjectiveConfig(beta=0.01),
        DescentConfig(grad_tol=1e-4, max_iter=20000), ref_bus=0,
    )


class TestOptimizeTwelveBus:
    def test_converges(self, result):
        assert result.converged
        assert result.termination_reason is TerminationReason.gradient_tol

    def test_monotone_history(self, result):
        assert np.all(np.diff(result.J_history) <= 0)

    def test_final_point_feasible(self, result, twelve_params):
        assert np.all(result.m_star >= twelve_params.m_lb)
        assert np.all(result.m_star <= twelve_params.m_ub)
        assert np.all(result.d_star >= twelve_params.d_lb)
        assert np.all(result.d_star <= twelve_params.d_ub)

    def test_fixed_point_residual(self, result, twelve_net, twelve_params):
        dcfg = DescentConfig(grad_tol=1e-4, max_iter=20000)
        p = twelve_params.with_design(result.m_star, result.d_star)
        ev = vt.eval_objective(p, ObjectiveConfig(beta=0.01), twelve_net, 0)
        alpha = np.concatenate([result.m_star, result.d_star])
        grad = np.concatenate([ev.grad_m, ev.grad_d])
        lb = np.concatenate([twelve_params.m_lb, twelve_params.d_lb])
        ub = np.concatenate([twelve_params.m_ub, twelve_params.d_ub])
        residual = np.linalg.norm(alpha - project(alpha - grad, lb, ub))
        m0, d0 = twelve_params.box_midpoint()
        tol = dcfg.grad_tol * (1 + np.linalg.norm(np.concatenate([m0, d0])))
        assert residual <= tol

    def test_iterates_feasible_at_any_cap(self, twelve_net, twelve_params):
        for cap in (1, 3, 7):
            res = optimize(
                twelve_net, twelve_params, ObjectiveConfig(beta=0.01),
                DescentConfig(max_iter=cap), ref_bus=0,
            )
            assert np.all(res.m_star >= twelve_params.m_lb)
            assert np.all(res.m_star <= twelve_params.m_ub)
            assert np.all(res.d_star <= twelve_params.d_ub)

    def test_deterministic(self, twelve_net, twelve_params, result):
        again = optimize(
            twelve_net, twelve_params, ObjectiveConfig(beta=0.01),
            DescentConfig(grad_tol=1e-4, max_iter=20000), ref_bus=0,
        )
        assert np.array_equal(again.J_history, result.J_history)
        assert np.array_equal(again.m_star, result.m_star)
        assert np.array_equal(again.d_star, result.d_star)


class TestDefaultConvergence:
    def test_default_config_converges_in_few_iterations(self, twelve_net, twelve_params):
        # The Barzilai-Borwein step follows the flat total-inertia direction,
        # which a fixed reference step crawled along for over a thousand
        # iterations even at a hundredfold coarser tolerance.
        res = optimize(twelve_net, twelve_params, ObjectiveConfig(beta=5e-4),
                       DescentConfig(), ref_bus=0)
        assert res.converged
        assert res.termination_reason is TerminationReason.gradient_tol
        assert res.iterations < 100


class TestEvaluationCost:
    def test_one_schur_factorization_per_evaluation(self, monkeypatch, twelve_net, twelve_params):
        counts = {"schur": 0, "eval": 0, "eigvals": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        # scipy's own Lyapunov solver calls schur through its private module.
        for module in (scipy.linalg, scipy.linalg._solvers):
            monkeypatch.setattr(module, "schur", counting("schur", module.schur))
        monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
        monkeypatch.setattr(
            optimizer_module, "eval_objective", counting("eval", optimizer_module.eval_objective)
        )
        res = optimize(
            twelve_net, twelve_params, ObjectiveConfig(beta=0.01), DescentConfig(max_iter=5)
        )
        assert res.iterations == 5
        assert counts["eval"] >= res.iterations + 1
        assert counts["schur"] == counts["eval"]
        assert counts["eigvals"] == 0


class TestLazyDualSolve:
    def test_dual_solved_only_for_gradients_read(self, monkeypatch):
        # A 30-generator grid whose line search rejects trials: each
        # evaluation factors once, but only the start point and accepted
        # trials solve the dual equation.
        spec = random_connected_spec(np.random.default_rng(0), 30)
        net = vt.reduce_network(spec)
        n = net.n
        params = vt.DeviceParams(
            m_hat=[b.m_hat for b in spec.buses], d_hat=[b.d_hat for b in spec.buses],
            m=np.zeros(n), d=np.zeros(n),
            m_lb=np.zeros(n), m_ub=np.full(n, 3.0), d_lb=np.zeros(n), d_ub=np.full(n, 2.0),
        )
        counts = {"schur": 0, "eval": 0, "dual": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        solve_factored = objective_module.solve_factored

        def counting_dual(T, U, W, dual=False):
            counts["dual"] += dual
            return solve_factored(T, U, W, dual=dual)

        for module in (scipy.linalg, scipy.linalg._solvers):
            monkeypatch.setattr(module, "schur", counting("schur", module.schur))
        monkeypatch.setattr(
            optimizer_module, "eval_objective", counting("eval", optimizer_module.eval_objective)
        )
        monkeypatch.setattr(objective_module, "solve_factored", counting_dual)
        res = optimize(net, params, ObjectiveConfig(), DescentConfig())
        assert res.converged
        assert counts["eval"] > res.iterations + 1
        assert counts["schur"] == counts["eval"]
        assert counts["dual"] == res.iterations + 1


class TestObservedProperties:
    def test_total_inertia_shrinks_as_beta_grows(self, twelve_net, twelve_params):
        # Observed on the bundled case (nonconvexity admits exceptions in
        # general): a larger penalty on ||m||^2 never grows the optimal total.
        dcfg = DescentConfig(grad_tol=1e-4, max_iter=20000)
        totals = []
        for beta in (-0.1, 0.0, 0.1):
            res = optimize(twelve_net, twelve_params, ObjectiveConfig(beta=beta),
                           dcfg, ref_bus=0)
            assert res.converged
            totals.append(res.m_star.sum())
        assert totals[0] >= totals[1] >= totals[2]


class TestOptimizeErrors:
    def test_infeasible_start_rejected(self, twelve_net, twelve_params):
        n = twelve_params.n
        dcfg = DescentConfig(init_m=np.full(n, 99.0), init_d=np.ones(n))
        with pytest.raises(vt.ConfigurationError, match="infeasible"):
            optimize(twelve_net, twelve_params, ObjectiveConfig(), dcfg, ref_bus=0)

    def test_wrong_start_dimension_rejected(self, twelve_net, twelve_params):
        dcfg = DescentConfig(init_m=np.array([1.0]), init_d=np.array([1.0]))
        with pytest.raises(vt.ConfigurationError, match="dimension"):
            optimize(twelve_net, twelve_params, ObjectiveConfig(), dcfg, ref_bus=0)

    def test_unstable_start_raises_stability_error(self):
        # Two decoupled machines: the relative angle integrates a difference
        # that never feeds back, leaving a zero eigenvalue.
        net = vt.ReducedNetwork(gen_ids=(1, 2), L=np.zeros((2, 2)))
        params = vt.DeviceParams(
            m_hat=[1.0, 1.0], d_hat=[1.0, 1.0], m=[0.0, 0.0], d=[0.0, 0.0],
            m_lb=[0.0, 0.0], m_ub=[1.0, 1.0], d_lb=[0.0, 0.0], d_ub=[1.0, 1.0],
        )
        with pytest.raises(vt.StabilityError):
            optimize(net, params, ObjectiveConfig(), DescentConfig(), ref_bus=0)
