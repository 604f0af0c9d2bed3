import dataclasses
import logging
import warnings

import numpy as np
import pytest

import vsmtune as vt
import vsmtune.lyapunov as lyapunov_module
import vsmtune.objective as objective_module
import vsmtune.optimizer as optimizer_module
from vsmtune import DescentConfig, ObjectiveConfig, TerminationReason, optimize

from conftest import grid_problem, netgen, random_connected_spec, single_machine


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
        res = optimize(net, params, ObjectiveConfig(beta=0.0), ref_bus=0)
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
        residual = np.linalg.norm(alpha - np.clip(alpha - grad, lb, ub))
        m0, d0 = twelve_params.box_midpoint()
        tol = dcfg.grad_tol * (1 + np.linalg.norm(np.concatenate([m0, d0])))
        assert residual <= tol

    def test_starts_from_the_params_design(self, twelve_net, twelve_params):
        p = twelve_params
        start = p.with_design(p.m_lb + 0.25 * (p.m_ub - p.m_lb), p.d_ub)
        cfg = ObjectiveConfig(beta=0.01)
        res = optimize(twelve_net, start, cfg, DescentConfig(max_iter=1), ref_bus=0)
        assert res.J_history[0] == vt.eval_objective(start, cfg, twelve_net, 0).J_total

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


class TestStopTolerance:
    @pytest.mark.parametrize("corner", [0.0, 1.0], ids=["lower", "upper"])
    def test_same_tolerance_from_any_start(self, corner, twelve_net, twelve_params):
        # The stop test scales grad_tol by the box midpoint, not the start: a
        # run from either corner stops at the first iterate whose KKT residual
        # is within grad_tol * (1 + ||alpha_mid||), as a midpoint start would.
        p = twelve_params
        lb = np.concatenate([p.m_lb, p.d_lb])
        ub = np.concatenate([p.m_ub, p.d_ub])
        tol = 1e-6 * (1 + np.linalg.norm(np.concatenate(p.box_midpoint())))
        cfg = ObjectiveConfig()

        def run(max_iter):
            start = p.with_design(p.m_lb + corner * (p.m_ub - p.m_lb),
                                  p.d_lb + corner * (p.d_ub - p.d_lb))
            res = optimize(twelve_net, start, cfg, DescentConfig(max_iter=max_iter))
            ev = vt.eval_objective(p.with_design(res.m_star, res.d_star), cfg, twelve_net, 0)
            alpha = np.concatenate([res.m_star, res.d_star])
            grad = np.concatenate([ev.grad_m, ev.grad_d])
            return res, np.linalg.norm(alpha - np.clip(alpha - grad, lb, ub))

        res, residual = run(5000)
        assert res.converged
        assert residual <= tol
        _, residual_before = run(res.iterations - 1)
        assert residual_before > tol


class TestEvaluationCost:
    def test_one_schur_factorization_per_evaluation(self, monkeypatch, twelve_net, twelve_params):
        counts = {"factor": 0, "eval": 0, "eigvals": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        # Every evaluation starts one factorization, rejected trials included;
        # a trial rejected from a partial sum does not finish it.
        monkeypatch.setattr(
            lyapunov_module, "_shift_inverse", counting("factor", lyapunov_module._shift_inverse)
        )
        # No trial needs the eigenvalues: the Cayley powers certify stability.
        monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
        monkeypatch.setattr(
            optimizer_module, "eval_objective", counting("eval", optimizer_module.eval_objective)
        )
        res = optimize(
            twelve_net, twelve_params, ObjectiveConfig(beta=0.01), DescentConfig(max_iter=5)
        )
        assert res.iterations == 5
        assert counts["eval"] >= res.iterations + 1
        assert counts["factor"] == counts["eval"]
        assert counts["eigvals"] == 0

    @pytest.mark.parametrize("known_location", [False, True])
    def test_lapack_sees_only_the_angle_block(self, monkeypatch, twelve_net, twelve_params,
                                              known_location):
        # The damping block is eliminated, so no inverse, determinant or
        # eigenvalue call acts on the full (2n-1)-square system matrix,
        # neither for J nor for the gradient read.
        shapes = []

        def recording(fn):
            def wrapper(a, *args, **kwargs):
                shapes.append(np.shape(a))
                return fn(a, *args, **kwargs)
            return wrapper

        for name in ("inv", "slogdet", "eigvals"):
            monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
        n = twelve_params.n
        eta = np.eye(n)[3] if known_location else None
        ev = objective_module.eval_objective(twelve_params, ObjectiveConfig(eta=eta), twelve_net, 0)
        assert shapes == [(n - 1, n - 1)] * 2
        ev.grad_m
        assert shapes == [(n - 1, n - 1)] * 2


class TestFinalResidualCheck:
    def test_silent_on_accurate_gramians(self, twelve_net, twelve_params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            optimize(twelve_net, twelve_params, ObjectiveConfig(), DescentConfig(max_iter=3))

    def test_warns_on_a_kernel_regression(self, monkeypatch, twelve_net, twelve_params):
        # A dual solve that is off by 1e-6 relative leaves J and its path
        # almost unchanged; only the residual at the final point shows it.
        solve_lyapunov = objective_module.solve_lyapunov

        def skewed(factor, F, dual=False, reject=None):
            X = solve_lyapunov(factor, F, dual=dual, reject=reject)
            return X * (1.0 + 1e-6) if dual else X

        monkeypatch.setattr(objective_module, "solve_lyapunov", skewed)
        with pytest.warns(RuntimeWarning, match=r"Lyapunov residual for Q is .* times its bound"):
            optimize(twelve_net, twelve_params, ObjectiveConfig(), DescentConfig(max_iter=3))


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
        counts = {"factor": 0, "eval": 0, "dual": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        solve_lyapunov = objective_module.solve_lyapunov

        def counting_dual(factor, F, dual=False, reject=None):
            counts["dual"] += dual
            return solve_lyapunov(factor, F, dual=dual, reject=reject)

        monkeypatch.setattr(
            objective_module, "CayleyFactor", counting("factor", objective_module.CayleyFactor)
        )
        monkeypatch.setattr(
            optimizer_module, "eval_objective", counting("eval", optimizer_module.eval_objective)
        )
        monkeypatch.setattr(objective_module, "solve_lyapunov", counting_dual)
        res = optimize(net, params, ObjectiveConfig(), DescentConfig())
        assert res.converged
        assert counts["eval"] > res.iterations + 1
        assert counts["factor"] == counts["eval"]
        assert counts["dual"] == res.iterations + 1


class TestEarlyRejectionPath:
    @pytest.mark.parametrize("case", ["twelve-bus", "grid50"])
    def test_same_path_as_full_evaluations(self, monkeypatch, twelve_net, twelve_params, case):
        # Trials rejected from a partial sum are exactly those whose full J
        # fails the Armijo test, so the path is the same as with every trial
        # evaluated in full.
        if case == "twelve-bus":
            net, params = twelve_net, twelve_params
            cfg = ObjectiveConfig(beta=0.1, eta=np.eye(twelve_net.n)[0])
            dcfg = DescentConfig(max_iter=200)
        else:
            net, params = grid_problem(3)
            cfg, dcfg = ObjectiveConfig(), DescentConfig(max_iter=30)
        eval_objective = objective_module.eval_objective

        def run(early):
            trials = []  # (accepted, rejected from a partial sum) per line-search trial

            def recording(*args, reject_above=None):
                if reject_above is None:
                    return eval_objective(*args)
                try:
                    ev = eval_objective(*args, reject_above=reject_above if early else None)
                except vt.StabilityError:
                    trials.append((False, False))
                    raise
                accepted = ev is not None and ev.J_total <= reject_above
                trials.append((accepted, ev is None))
                # A full evaluation still answers as reject_above promises: None above it.
                return ev if accepted else None

            monkeypatch.setattr(optimizer_module, "eval_objective", recording)
            return optimize(net, params, cfg, dcfg), trials

        res, trials = run(early=True)
        full, full_trials = run(early=False)
        assert res.iterations == full.iterations
        assert res.termination_reason == full.termination_reason
        assert [a for a, _ in trials] == [a for a, _ in full_trials]
        assert sum(rejected for _, rejected in trials) >= 10
        assert not any(rejected for _, rejected in full_trials)
        assert np.max(np.abs(res.J_history - full.J_history) / np.abs(full.J_history)) <= 1e-14


class TestRepeatedTrials:
    def test_clipped_repeat_of_a_rejected_trial_is_not_evaluated(self, monkeypatch):
        # On this grid, long trial steps clip every moving coordinate to the
        # box, so halving gamma returns the corner just rejected. Evaluating
        # every halving took 30 evaluations, 19 of them a repeat of the one
        # before, to reach the result recorded below.
        net, params = grid_problem(38, 20)
        eval_objective = optimizer_module.eval_objective
        calls = []

        def recording(trial, *args, reject_above=None):
            calls.append((np.concatenate([trial.m, trial.d]), reject_above))
            return eval_objective(trial, *args, reject_above=reject_above)

        monkeypatch.setattr(optimizer_module, "eval_objective", recording)
        res = optimize(net, params, ObjectiveConfig(), DescentConfig(max_iter=30))
        assert not any(np.array_equal(a, b) and s == t
                       for (a, s), (b, t) in zip(calls, calls[1:]))
        assert len(calls) == 11
        assert res.iterations == 8
        assert res.termination_reason == TerminationReason.gradient_tol
        assert res.J_history[-1] == pytest.approx(3.7045029445626323, rel=1e-12)


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


class TestDampingPrecondition:
    """``optimize`` warns once when some total damping ``d_hat + d`` can reach 0."""

    @staticmethod
    def optimizer_warnings(caplog):
        return [r for r in caplog.records
                if r.name == "vsmtune.optimizer" and r.levelno == logging.WARNING]

    def test_warns_once_naming_the_buses(self, caplog, twelve_net, twelve_params):
        d_hat = twelve_params.d_hat.copy()
        d_hat[[2, 5]] = 0.0
        params = dataclasses.replace(twelve_params, d_hat=d_hat)
        caplog.set_level(logging.WARNING)
        res = optimize(twelve_net, params.with_design(*params.box_midpoint()),
                       ObjectiveConfig(beta=0.1), DescentConfig(max_iter=3), ref_bus=0)
        warned = self.optimizer_warnings(caplog)
        assert len(warned) == 1
        ids = [twelve_net.gen_ids[2], twelve_net.gen_ids[5]]
        assert f"buses {ids}" in warned[0].getMessage()
        assert res.iterations == 3

    def test_silent_on_the_default_networks(self, caplog, twelve_net, twelve_params):
        doc = vt.parse_network(netgen.grid_document(vt, 1))
        grid_net = vt.reduce_network(doc.spec)
        grid_params = vt.device_params(doc, grid_net.gen_ids)
        caplog.set_level(logging.WARNING)
        for net, params in ((twelve_net, twelve_params), (grid_net, grid_params)):
            optimize(net, params.with_design(*params.box_midpoint()), ObjectiveConfig(),
                     DescentConfig(max_iter=1), ref_bus=0)
        assert self.optimizer_warnings(caplog) == []
