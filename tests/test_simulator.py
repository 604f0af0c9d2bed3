import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vsmtune as vt
from vsmtune import Disturbance, compare_designs, simulate

from conftest import output_energy, random_connected_spec, single_machine


@pytest.fixture
def twelve_ss(twelve_net, twelve_params):
    return vt.assemble_state_space(twelve_net, twelve_params, ref_bus=0)


class TestSimulateSingleMachine:
    def test_step_closed_form(self):
        # M = D = 1, step 0.1: omega(t) = 0.1 (1 - exp(-t)).
        net, params = single_machine(m_hat=1.0, d_hat=1.0)
        ss = vt.assemble_state_space(net, params, ref_bus=0)
        res = simulate(ss, Disturbance("step", 0, 0.1), horizon=25.0, dt=1e-3)
        expected = 0.1 * (1 - np.exp(-res.t))
        assert np.abs(res.omega[0] - expected).max() < 1e-12
        assert res.rocof_max[0] == pytest.approx(0.1, rel=1e-12)
        assert res.nadir[0] == pytest.approx(0.1, rel=1e-8)
        assert res.omega_ss[0] == pytest.approx(0.1, rel=1e-12)
        # 2% band: crossing at ln(50) seconds, refined by interpolation.
        assert res.settle_time[0] == pytest.approx(np.log(50.0), rel=1e-6)

    def test_zero_magnitude_all_zero(self):
        net, params = single_machine()
        ss = vt.assemble_state_space(net, params, ref_bus=0)
        res = simulate(ss, Disturbance("step", 0, 0.0), horizon=1.0, dt=1e-3)
        assert np.all(res.omega == 0.0)
        assert np.all(res.rocof_max == 0.0)
        assert np.all(res.nadir == 0.0)
        assert np.all(res.settle_time == 0.0)
        assert np.all(res.omega_ss == 0.0)

    def test_impulse_settles_to_zero(self):
        net, params = single_machine()
        ss = vt.assemble_state_space(net, params, ref_bus=0)
        res = simulate(ss, Disturbance("impulse", 0, 1.0), horizon=25.0, dt=1e-3)
        assert np.all(res.omega_ss == 0.0)
        assert res.omega[0, 0] == pytest.approx(1.0)
        assert abs(res.omega[0, -1]) < 1e-10


class TestSimulateNetwork:
    def test_energy_matches_h2_channel_two_bus(self, two_bus):
        net, params = two_bus
        ss = vt.assemble_state_space(net, params, ref_bus=1)
        _, Q = vt.gramians(ss)
        channel = float(ss.B[:, 0] @ Q @ ss.B[:, 0])
        res = simulate(ss, Disturbance("impulse", 0, 1.0), horizon=40.0, dt=1e-3)
        energy = output_energy(res, params)
        assert energy == pytest.approx(channel, rel=1e-4)

    def test_energy_matches_h2_channel_twelve_bus(self, twelve_net, twelve_params, twelve_ss):
        node = twelve_net.index_of(6)
        _, Q = vt.gramians(twelve_ss)
        channel = float(twelve_ss.B[:, node] @ Q @ twelve_ss.B[:, node])
        res = simulate(twelve_ss, Disturbance("impulse", node, 1.0), horizon=40.0, dt=1e-3)
        assert output_energy(res, twelve_params) == pytest.approx(channel, rel=1e-4)

    def test_step_halving_stability(self, twelve_net, twelve_ss):
        node = twelve_net.index_of(6)
        dist = Disturbance("step", node, 0.1)
        coarse = simulate(twelve_ss, dist, horizon=25.0, dt=1e-3)
        fine = simulate(twelve_ss, dist, horizon=25.0, dt=5e-4)
        for name in ("rocof_max", "nadir", "settle_time", "omega_ss"):
            a = getattr(coarse, name)
            b = getattr(fine, name)
            assert np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-15)) < 1e-4, name

    def test_steady_state_consistency(self, twelve_net, twelve_ss):
        node = twelve_net.index_of(6)
        res = simulate(twelve_ss, Disturbance("step", node, 0.1), horizon=25.0, dt=1e-3)
        u = np.zeros(twelve_ss.B.shape[1])
        u[node] = 0.1
        x_ss = np.linalg.solve(twelve_ss.A, -(twelve_ss.B @ u))
        assert np.linalg.norm(twelve_ss.A @ x_ss + twelve_ss.B @ u) <= 1e-8
        assert np.allclose(res.omega_ss, x_ss[twelve_net.n - 1:], atol=1e-12)
        # synchronized: every bus holds the same sustained offset
        assert res.omega_ss.max() - res.omega_ss.min() <= 1e-8

    def test_synchronized_steady_state_value(self, twelve_net, twelve_params, twelve_ss):
        # Sustained step balances against total damping: omega_ss = dP / sum(D).
        node = twelve_net.index_of(6)
        res = simulate(twelve_ss, Disturbance("step", node, 0.1), horizon=25.0, dt=1e-3)
        expected = 0.1 / twelve_params.d_total.sum()
        assert res.omega_ss[0] == pytest.approx(expected, rel=1e-10)

    def test_mirrored_disturbance_mirrors_trajectories(self, two_bus):
        net, params = two_bus
        ss0 = vt.assemble_state_space(net, params, ref_bus=0)
        ss1 = vt.assemble_state_space(net, params, ref_bus=1)
        res_a = simulate(ss1, Disturbance("step", 0, 0.1), horizon=5.0, dt=1e-3)
        res_b = simulate(ss0, Disturbance("step", 1, 0.1), horizon=5.0, dt=1e-3)
        assert np.allclose(res_a.omega[0], res_b.omega[1], atol=1e-13)
        assert np.allclose(res_a.omega[1], res_b.omega[0], atol=1e-13)

    def test_single_column_state_space(self, twelve_net, twelve_params):
        node = twelve_net.index_of(6)
        eta = np.zeros(twelve_net.n)
        eta[node] = 1.0
        ss_eta = vt.assemble_state_space(twelve_net, twelve_params, 0, eta=eta)
        ss_full = vt.assemble_state_space(twelve_net, twelve_params, 0)
        res_eta = simulate(ss_eta, Disturbance("impulse", node, 1.0), horizon=5.0, dt=1e-3)
        res_full = simulate(ss_full, Disturbance("impulse", node, 1.0), horizon=5.0, dt=1e-3)
        assert np.allclose(res_eta.omega, res_full.omega, atol=1e-14)


def per_step_reference(ss, dist, horizon, dt):
    """Reference RK4: the affine one-step map ``x+ = Phi x + Gamma B u`` stepped sample by sample.

    Returns ``(omega, rocof_max, nadir, omega_ss, t)``; ``simulate``'s power
    doubling about the equilibrium must reproduce this recursion to rounding.
    """
    A, B = ss.A, ss.B
    dim, na = A.shape[0], ss.n_machines - 1
    col = 0 if B.shape[1] == 1 else dist.node
    eye = np.eye(dim)
    hA = dt * A
    hA2 = hA @ hA
    hA3 = hA2 @ hA
    phi = eye + hA + hA2 / 2.0 + hA3 / 6.0 + hA3 @ hA / 24.0
    gamma = dt * (eye + hA / 2.0 + hA2 / 6.0 + hA3 / 24.0)
    if dist.kind == "step":
        bu = B[:, col] * dist.magnitude
        x = np.zeros(dim)
    else:
        bu = np.zeros(dim)
        x = B[:, col] * dist.magnitude
    gc = gamma @ bu
    steps = int(round(horizon / dt))
    xs = np.empty((steps + 1, dim))
    xs[0] = x
    for k in range(steps):
        x = phi @ x + gc
        xs[k + 1] = x
    omega = xs[:, na:].T
    rocof_max = np.abs((xs @ A.T + bu)[:, na:]).max(axis=0)
    omega_ss = (np.linalg.solve(A, -bu) if dist.kind == "step" and dist.magnitude != 0.0
                else np.zeros(dim))[na:]
    return omega, rocof_max, np.abs(omega).max(axis=1), omega_ss, np.arange(steps + 1) * dt


def _grid50_ss():
    spec = random_connected_spec(np.random.default_rng(50), 50)
    net = vt.reduce_network(spec)
    params = vt.DeviceParams(
        m_hat=[b.m_hat for b in spec.buses], d_hat=[b.d_hat for b in spec.buses],
        m=np.zeros(50), d=np.zeros(50),
        m_lb=np.zeros(50), m_ub=np.full(50, 3.0), d_lb=np.zeros(50), d_ub=np.full(50, 2.0),
    )
    return vt.assemble_state_space(net, params, ref_bus=0)


class TestDoublingMatchesPerStepRecursion:
    """Power doubling reproduces the per-step RK4 recursion to rounding."""

    @pytest.mark.parametrize("case", [
        ("twelve", "step", 0.1, 25.0, 1e-3),
        ("twelve", "impulse", 1.0, 25.0, 1e-3),
        ("twelve", "step", 0.0, 2.0, 1e-3),
        ("twelve", "step", 0.1, 0.02, 1e-3),   # the 20-step minimum horizon
        ("twelve", "step", -0.3, 3.7, 1e-3),   # 3700 steps, not a power of two
        ("grid50", "step", 0.1, 40.0, 1e-3),
    ], ids=["step", "impulse", "zero_step", "min_horizon", "odd_steps", "grid50"])
    def test_metrics_match(self, case, twelve_net, twelve_ss):
        grid, kind, magnitude, horizon, dt = case
        if grid == "twelve":
            ss, node = twelve_ss, twelve_net.index_of(6)
        else:
            ss, node = _grid50_ss(), 17
        dist = Disturbance(kind, node, magnitude)
        res = simulate(ss, dist, horizon=horizon, dt=dt)
        omega, rocof_max, nadir, omega_ss, t = per_step_reference(ss, dist, horizon, dt)

        assert np.array_equal(res.t, t)
        for name, ref in (("omega", omega), ("rocof_max", rocof_max),
                          ("nadir", nadir), ("omega_ss", omega_ss)):
            got = getattr(res, name)
            assert got.shape == ref.shape, name
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name

        band = 0.02 * np.maximum(np.abs(omega_ss), nadir)
        settle = [vt.simulator._settle_time(t, np.abs(omega[i] - omega_ss[i]), band[i])
                  for i in range(ss.n_machines)]
        finite = np.isfinite(settle)
        assert np.array_equal(np.isfinite(res.settle_time), finite)
        assert np.abs(res.settle_time[finite] - np.asarray(settle)[finite]).max(
            initial=0.0) <= 1e-9

        if kind == "impulse" or magnitude == 0.0:
            assert np.all(res.omega_ss == 0.0)
            assert not np.signbit(res.omega_ss).any()


class TestSimulateValidation:
    def test_rejects_bad_dt(self, twelve_ss):
        with pytest.raises(vt.ValidationError, match="dt"):
            simulate(twelve_ss, Disturbance("step", 0, 0.1), horizon=1.0, dt=0.0)

    def test_rejects_short_horizon(self, twelve_ss):
        with pytest.raises(vt.ValidationError, match="horizon"):
            simulate(twelve_ss, Disturbance("step", 0, 0.1), horizon=0.01, dt=1e-3)

    @pytest.mark.parametrize("horizon,dt", [
        (1.0, np.nan), (np.nan, 1e-3), (np.inf, 1e-3), (1.0, np.inf), (-np.inf, 1e-3),
    ])
    def test_rejects_non_finite_dt_or_horizon(self, twelve_ss, horizon, dt):
        with pytest.raises(vt.ValidationError, match="finite"):
            simulate(twelve_ss, Disturbance("step", 0, 0.1), horizon=horizon, dt=dt)

    @pytest.mark.parametrize("horizon", [1e13, 1e300], ids=["1e13", "1e300"])
    def test_rejects_horizon_beyond_memory(self, twelve_ss, horizon):
        # The state arrays (1.4e18 and 1.4e306 bytes) exceed the address
        # space of any 64-bit machine, so allocation fails before any
        # memory is touched.
        with pytest.raises(vt.ValidationError, match="samples"):
            simulate(twelve_ss, Disturbance("step", 0, 0.1), horizon=horizon, dt=1e-3)

    def test_rejects_unknown_kind(self):
        with pytest.raises(vt.ValidationError, match="kind"):
            Disturbance("ramp", 0, 0.1)

    def test_rejects_out_of_range_node(self, twelve_ss):
        with pytest.raises(vt.ValidationError, match="out of range"):
            simulate(twelve_ss, Disturbance("step", 99, 0.1), horizon=1.0, dt=1e-3)

    def test_rejects_unstable_system(self):
        ss = vt.StateSpace(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]],
                           C=[[0.0, 1.0]], ref_bus=0)
        with pytest.raises(vt.StabilityError):
            simulate(ss, Disturbance("step", 0, 0.1), horizon=1.0, dt=1e-3)

    def test_coarse_dt_warns(self):
        net, params = single_machine(m_hat=0.1, d_hat=1.0)  # time constant 0.1 s
        ss = vt.assemble_state_space(net, params, ref_bus=0)
        res = simulate(ss, Disturbance("step", 0, 0.1), horizon=10.0, dt=0.2)
        assert any("fastest time constant" in w for w in res.warnings)

    def test_unsettled_horizon_warns(self):
        net, params = single_machine()
        ss = vt.assemble_state_space(net, params, ref_bus=0)
        res = simulate(ss, Disturbance("step", 0, 0.1), horizon=0.5, dt=1e-3)
        assert np.isinf(res.settle_time[0])
        assert any("did not settle" in w for w in res.warnings)


class TestCompareDesigns:
    def variants(self, params):
        return [
            ("d_max_m_min", params.with_design(params.m_lb, params.d_ub)),
            ("d_opt_m_opt", params.with_design(
                0.5 * (params.m_lb + params.m_ub), params.d_ub)),
            ("d_max_m_max", params.with_design(params.m_ub, params.d_ub)),
        ]

    def test_identical_variants_identical_results(self, twelve_net, twelve_params):
        dist = Disturbance("step", twelve_net.index_of(6), 0.1)
        out = compare_designs(
            twelve_net,
            [("a", twelve_params), ("b", twelve_params)],
            dist, horizon=2.0, dt=1e-3,
        )
        (la, ra), (lb, rb) = out
        assert {la, lb} == {"a", "b"}
        assert np.array_equal(ra.omega, rb.omega)
        assert np.array_equal(ra.rocof_max, rb.rocof_max)

    def test_low_inertia_has_larger_rocof(self, twelve_net, twelve_params):
        node = twelve_net.index_of(6)
        dist = Disturbance("step", node, 0.1)
        out = dict(compare_designs(twelve_net, self.variants(twelve_params),
                                   dist, horizon=10.0, dt=1e-3))
        assert out["d_max_m_min"].rocof_max[node] > out["d_max_m_max"].rocof_max[node]

    def test_results_sorted_by_label(self, twelve_net, twelve_params):
        dist = Disturbance("step", twelve_net.index_of(6), 0.1)
        out = compare_designs(twelve_net, self.variants(twelve_params),
                              dist, horizon=2.0, dt=1e-3)
        labels = [label for label, _ in out]
        assert labels == sorted(labels)

    def test_duplicate_labels_rejected(self, twelve_net, twelve_params):
        with pytest.raises(vt.ValidationError, match="unique"):
            compare_designs(
                twelve_net,
                [("a", twelve_params), ("a", twelve_params)],
                Disturbance("step", 0, 0.1),
            )


def test_import_does_not_load_scipy():
    src = str(Path(vt.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import vsmtune, sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_import_does_not_load_scipy_integrate():
    src = str(Path(vt.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import vsmtune, sys; print('scipy.integrate' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"
