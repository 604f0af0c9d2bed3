import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vsmtune as vt
import vsmtune.cli as cli
from vsmtune import StabilityError, bundled_network_path


def run(*args) -> int:
    return cli.main([str(a) for a in args])


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def bad_network(tmp_path):
    doc = {
        "buses": [
            {"id": 1, "kind": "generator", "m_hat": 1.0, "d_hat": 1.0},
            {"id": 2, "kind": "generator", "m_hat": 1.0, "d_hat": 1.0},
        ],
        "lines": [{"from": 1, "to": 5, "b": 1.0}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


class TestReduce:
    def test_bundled_network(self, tmp_path, capsys):
        assert run("reduce", "--out", tmp_path) == 0
        gens = read_csv(tmp_path / "reduced_generators.csv")
        assert [int(r["bus"]) for r in gens] == [1, 2, 4, 5, 6, 8, 9, 10, 12]
        lap = read_csv(tmp_path / "reduced_laplacian.csv")
        assert len(lap) == 9
        out = capsys.readouterr().out
        assert "eliminated load buses [3, 7, 11]" in out

    def test_network_without_loads_unchanged(self, tmp_path):
        doc = {
            "buses": [
                {"id": 1, "kind": "generator", "m_hat": 1.0, "d_hat": 1.0},
                {"id": 2, "kind": "generator", "m_hat": 1.0, "d_hat": 1.0},
            ],
            "lines": [{"from": 1, "to": 2, "b": 5.0}],
        }
        path = tmp_path / "plain.json"
        path.write_text(json.dumps(doc))
        assert run("reduce", "--network", path, "--out", tmp_path) == 0
        lap = read_csv(tmp_path / "reduced_laplacian.csv")
        assert float(lap[0]["1"]) == 5.0
        assert float(lap[0]["2"]) == -5.0

    def test_unknown_bus_reference_exit_2(self, tmp_path, bad_network, capsys):
        assert run("reduce", "--network", bad_network, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert "line (1, 5)" in err

    def test_missing_file_exit_2(self, tmp_path):
        assert run("reduce", "--network", tmp_path / "ghost.json", "--out", tmp_path) == 2


class TestOptimize:
    def test_writes_outputs(self, tmp_path):
        assert run(
            "optimize", "--beta", 0.01, "--grad-tol", 1e-3,
            "--max-iter", 4000, "--out", tmp_path,
        ) == 0
        coeffs = read_csv(tmp_path / "coefficients.csv")
        assert len(coeffs) == 9
        assert {"bus", "m_opt", "d_opt"} <= set(coeffs[0])
        conv = read_csv(tmp_path / "convergence.csv")
        J = [float(r["J_total"]) for r in conv]
        assert all(b <= a + 1e-15 for a, b in zip(J, J[1:]))
        summary = read_csv(tmp_path / "summary.csv")[0]
        assert summary["converged"] == "true"
        assert summary["formulation"] == "unknown_location"
        assert summary["termination_reason"] == "gradient_tol"

    def test_defaults_converge_to_kkt_point(self, tmp_path, twelve_doc, twelve_net, twelve_params):
        # No tuning flags: the default tolerance must be reached well inside
        # the default iteration cap, and the written design must pass an
        # independently recomputed unit-step projected-gradient check.
        assert run("optimize", "--out", tmp_path) == 0
        summary = read_csv(tmp_path / "summary.csv")[0]
        assert summary["converged"] == "true"
        assert summary["termination_reason"] == "gradient_tol"
        coeffs = {int(r["bus"]): r for r in read_csv(tmp_path / "coefficients.csv")}
        m = np.array([float(coeffs[g]["m_opt"]) for g in twelve_net.gen_ids])
        d = np.array([float(coeffs[g]["d_opt"]) for g in twelve_net.gen_ids])
        ev = vt.eval_objective(twelve_params.with_design(m, d), vt.ObjectiveConfig(),
                               twelve_net, twelve_net.index_of(twelve_doc.ref_bus))
        assert abs(float(summary["J_final"]) - ev.J_total) <= 1e-12 * abs(ev.J_total)
        alpha = np.concatenate([m, d])
        grad = np.concatenate([ev.grad_m, ev.grad_d])
        lb = np.concatenate([twelve_params.m_lb, twelve_params.d_lb])
        ub = np.concatenate([twelve_params.m_ub, twelve_params.d_ub])
        residual = np.linalg.norm(alpha - vt.project(alpha - grad, lb, ub))
        alpha0 = np.concatenate(twelve_params.box_midpoint())
        assert residual <= 1e-6 * (1 + np.linalg.norm(alpha0))

    def test_known_location_formulation(self, tmp_path):
        assert run(
            "optimize", "--beta", 0.01, "--grad-tol", 1e-3,
            "--disturb-node", 6, "--out", tmp_path,
        ) == 0
        summary = read_csv(tmp_path / "summary.csv")[0]
        assert summary["formulation"] == "known_location"

    def test_floats_have_full_precision(self, tmp_path):
        assert run(
            "optimize", "--beta", 0.01, "--grad-tol", 1e-2,
            "--out", tmp_path,
        ) == 0
        conv = read_csv(tmp_path / "convergence.csv")
        # 17 significant digits round-trip exactly through repr
        for row in conv[:3]:
            v = float(row["J_total"])
            assert format(v, ".17g") == row["J_total"]

    def test_seed_point_fraction(self, tmp_path):
        assert run(
            "optimize", "--beta", 0.01, "--grad-tol", 1e-2,
            "--seed-point", 0.25, "--max-iter", 5, "--out", tmp_path,
        ) == 0

    def test_bad_seed_point_exit_2(self, tmp_path):
        assert run("optimize", "--seed-point", "7,1", "--out", tmp_path) == 2

    def test_bad_bounds_exit_2(self, tmp_path):
        assert run("optimize", "--bounds", "1,2,3", "--out", tmp_path) == 2

    def test_infinite_grad_tol_exit_2(self, tmp_path, capsys):
        assert run("optimize", "--grad-tol", "inf", "--out", tmp_path) == 2
        assert "grad_tol" in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()

    def test_non_numeric_seed_point_exit_2(self, tmp_path, capsys):
        assert run("optimize", "--seed-point", "abc", "--out", tmp_path) == 2
        assert "--seed-point" in capsys.readouterr().err

    def test_non_numeric_bounds_exit_2(self, tmp_path, capsys):
        assert run("optimize", "--bounds", "a,b,c,d", "--out", tmp_path) == 2
        assert "--bounds" in capsys.readouterr().err


class TestSimulate:
    def test_writes_trajectory_and_metrics(self, tmp_path):
        assert run(
            "simulate", "--disturb-node", 6, "--magnitude", 0.1,
            "--horizon", 5.0, "--out", tmp_path,
        ) == 0
        rows = read_csv(tmp_path / "trajectory.csv")
        assert set(rows[0]) == {"t"} | {f"omega_{g}" for g in (1, 2, 4, 5, 6, 8, 9, 10, 12)}
        metrics = read_csv(tmp_path / "metrics.csv")
        assert len(metrics) == 9

    def test_zero_disturbance_zero_trajectories(self, tmp_path):
        assert run(
            "simulate", "--disturb-node", 6, "--magnitude", 0.0,
            "--horizon", 1.0, "--out", tmp_path,
        ) == 0
        rows = read_csv(tmp_path / "trajectory.csv")
        assert all(float(r["omega_6"]) == 0.0 for r in rows)
        metrics = read_csv(tmp_path / "metrics.csv")
        assert all(float(r["rocof_max"]) == 0.0 for r in metrics)

    def test_metrics_stable_under_dt_halving(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out, dt in ((out1, 1e-3), (out2, 5e-4)):
            assert run(
                "simulate", "--disturb-node", 6, "--dt", dt,
                "--horizon", 25.0, "--out", out,
            ) == 0
        m1 = {r["bus"]: r for r in read_csv(out1 / "metrics.csv")}
        m2 = {r["bus"]: r for r in read_csv(out2 / "metrics.csv")}
        for bus, row in m1.items():
            for key in ("rocof_max", "nadir", "settle_time", "omega_ss"):
                a, b = float(row[key]), float(m2[bus][key])
                assert abs(a - b) <= 1e-4 * max(abs(b), 1e-12)

    def test_requires_disturb_node(self, tmp_path):
        assert run("simulate", "--out", tmp_path) == 2

    def test_coefficients_from_file(self, tmp_path):
        assert run(
            "optimize", "--beta", 0.01, "--grad-tol", 1e-2,
            "--out", tmp_path,
        ) == 0
        assert run(
            "simulate", "--coeffs", tmp_path / "coefficients.csv",
            "--disturb-node", 6, "--horizon", 2.0, "--out", tmp_path / "sim",
        ) == 0

    def test_rejects_incomplete_coeffs(self, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text("bus,m_opt,d_opt\n1,0.0,0.0\n")
        assert run(
            "simulate", "--coeffs", path, "--disturb-node", 6, "--out", tmp_path,
        ) == 2

    def test_rejects_duplicate_bus_in_coeffs(self, tmp_path, capsys):
        rows = [f"{g},0.5,0.5" for g in (1, 2, 4, 5, 6, 8, 9, 10, 12)] + ["5,2.0,2.0"]
        path = tmp_path / "duplicate.csv"
        path.write_text("bus,m_opt,d_opt\n" + "\n".join(rows) + "\n")
        assert run(
            "simulate", "--coeffs", path, "--disturb-node", 6, "--out", tmp_path,
        ) == 2
        assert "repeats bus 5" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_rejects_foreign_bus_in_coeffs(self, tmp_path, capsys):
        rows = [f"{g},0.5,0.5" for g in (1, 2, 4, 5, 6, 8, 9, 10, 12)] + ["99,2.0,2.0"]
        path = tmp_path / "foreign.csv"
        path.write_text("bus,m_opt,d_opt\n" + "\n".join(rows) + "\n")
        assert run(
            "simulate", "--coeffs", path, "--disturb-node", 6, "--out", tmp_path,
        ) == 2
        assert "[99]" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("flag,value", [("--dt", "nan"), ("--horizon", "nan"),
                                            ("--horizon", "inf"), ("--dt", "inf")])
    def test_non_finite_dt_or_horizon_exit_2(self, flag, value, tmp_path, capsys):
        assert run("simulate", "--disturb-node", 1, flag, value, "--out", tmp_path) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("horizon", ["1e13", "1e300"])
    def test_horizon_beyond_memory_exit_2(self, horizon, tmp_path, capsys):
        assert run("simulate", "--disturb-node", 1, "--horizon", horizon, "--out", tmp_path) == 2
        assert "samples" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_numpy_only_commands_leave_scipy_linalg_unloaded(self, tmp_path, twelve_params):
        # reduce, simulate and compare --coeffs never solve a Lyapunov equation.
        coeffs = tmp_path / "coefficients.csv"
        rows = [f"{g},{float(m)!r},{float(d)!r}" for g, m, d in zip(
            (1, 2, 4, 5, 6, 8, 9, 10, 12), twelve_params.m_ub, twelve_params.d_ub)]
        coeffs.write_text("bus,m_opt,d_opt\n" + "\n".join(rows) + "\n")
        script = (
            "import sys, vsmtune.cli as cli\n"
            "out = sys.argv[1]\n"
            "codes = [cli.main(['reduce', '--out', out]),\n"
            "         cli.main(['simulate', '--disturb-node', '1', '--horizon', '1', '--out', out]),\n"
            "         cli.main(['compare', '--disturb-node', '1', '--horizon', '1',\n"
            "                   '--coeffs', sys.argv[2], '--out', out])]\n"
            "print(codes, 'scipy.linalg' in sys.modules)\n"
        )
        src = str(Path(vt.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "out"), str(coeffs)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=60, check=True,
        )
        assert out.stdout.strip().splitlines()[-1] == "[0, 0, 0] False"


class TestTrajectoryWriter:
    @staticmethod
    def per_value_reference(path, gen_ids, result):
        """Reference writer: ``csv.writer`` over ``_fmt`` of each value, as ``_write_csv`` does."""
        rows = np.column_stack([result.t, result.omega.T])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"omega_{gid}" for gid in gen_ids])
            for row in rows:
                writer.writerow([cli._fmt(v) for v in row])

    def test_bytes_match_per_value_writer(self, tmp_path):
        specials = [-0.0, 5e-324, 1e300, np.inf, np.nan, -np.inf, 0.1, -1.2345678901234567e-7]
        t = np.arange(len(specials)) * 1e-3
        omega = np.array([specials, specials[::-1], np.linspace(-1.0, 1.0, len(specials))])
        result = vt.SimResult(
            t=t, omega=omega, rocof_max=np.zeros(3), nadir=np.zeros(3),
            settle_time=np.zeros(3), omega_ss=np.zeros(3), settle_band=np.zeros(3),
        )
        gen_ids = (1, 4, 12)
        self.per_value_reference(tmp_path / "reference.csv", gen_ids, result)
        cli._write_trajectory(tmp_path / "trajectory.csv", gen_ids, result)
        written = (tmp_path / "trajectory.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        lines = written.split(b"\n")
        assert lines[-1] == b""
        assert len(lines) == len(t) + 2
        assert all(line.endswith(b"\r") for line in lines[:-1])
        omega_1 = [line.split(b",")[1] for line in lines[1:-1]]
        assert omega_1[:6] == [
            b"-0", b"4.9406564584124654e-324", b"1.0000000000000001e+300", b"inf", b"nan", b"-inf",
        ]


class TestCompare:
    def test_three_variants_written(self, tmp_path):
        assert run(
            "compare", "--beta", 0.01, "--grad-tol", 1e-2,
            "--disturb-node", 6, "--horizon", 5.0, "--out", tmp_path,
        ) == 0
        for label in ("d_max_m_min", "d_opt_m_opt", "d_max_m_max"):
            assert (tmp_path / f"trajectory_{label}.csv").exists()
        metrics = read_csv(tmp_path / "metrics.csv")
        assert len(metrics) == 27
        variants = {r["variant"] for r in metrics}
        assert variants == {"d_max_m_min", "d_opt_m_opt", "d_max_m_max"}


class TestSweepBeta:
    def test_single_beta_matches_optimize_plus_simulate(self, tmp_path):
        # The sweep optimizes the unknown-location objective; the node only
        # places the simulated disturbance and selects the metrics row.
        sweep_dir = tmp_path / "sweep"
        assert run(
            "sweep-beta", "--betas", "0.01", "--grad-tol", 1e-3,
            "--disturb-node", 6, "--horizon", 10.0, "--out", sweep_dir,
        ) == 0
        opt_dir = tmp_path / "opt"
        assert run(
            "optimize", "--beta", 0.01, "--grad-tol", 1e-3,
            "--out", opt_dir,
        ) == 0
        sweep_coeffs = read_csv(sweep_dir / "coefficients_b0.csv")
        opt_coeffs = read_csv(opt_dir / "coefficients.csv")
        assert sweep_coeffs == opt_coeffs

        sim_dir = tmp_path / "sim"
        assert run(
            "simulate", "--coeffs", opt_dir / "coefficients.csv",
            "--disturb-node", 6, "--horizon", 10.0, "--out", sim_dir,
        ) == 0
        sweep_row = read_csv(sweep_dir / "sweep.csv")[0]
        metrics = {r["bus"]: r for r in read_csv(sim_dir / "metrics.csv")}
        assert sweep_row["rocof_max"] == metrics["6"]["rocof_max"]
        assert sweep_row["nadir"] == metrics["6"]["nadir"]

    def test_sweep_table_columns(self, tmp_path):
        assert run(
            "sweep-beta", "--betas=-0.05,0.05", "--grad-tol", 1e-3,
            "--disturb-node", 6, "--horizon", 5.0, "--out", tmp_path,
        ) == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert [float(r["beta"]) for r in rows] == [-0.05, 0.05]
        assert set(rows[0]) == {"beta", "status", "sum_m", "sum_d",
                                "rocof_max", "nadir", "settle_time", "error"}
        assert all(r["status"] == "ok" for r in rows)

    def test_known_location_sweep(self, tmp_path):
        assert run(
            "sweep-beta", "--betas", "0.01", "--known-location",
            "--grad-tol", 1e-3,
            "--disturb-node", 6, "--horizon", 5.0, "--out", tmp_path,
        ) == 0
        opt_dir = tmp_path / "opt"
        assert run(
            "optimize", "--beta", 0.01, "--disturb-node", 6,
            "--grad-tol", 1e-3, "--out", opt_dir,
        ) == 0
        assert read_csv(tmp_path / "coefficients_b0.csv") == read_csv(
            opt_dir / "coefficients.csv"
        )

    def test_unparseable_betas_exit_2(self, tmp_path):
        assert run("sweep-beta", "--betas", "a,b", "--disturb-node", 6,
                   "--out", tmp_path) == 2


@pytest.mark.parametrize("command", [["optimize"], ["compare"], ["sweep-beta", "--betas", 0]])
def test_removed_gamma0_flag_rejected(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*command, "--gamma0", 0.1, "--out", tmp_path)
    assert exc.value.code == 2
    assert "unrecognized arguments: --gamma0" in capsys.readouterr().err


class TestErrorMapping:
    def test_stability_error_exit_1(self, monkeypatch, tmp_path):
        def boom(cfg):
            raise StabilityError("synthetic instability")

        monkeypatch.setitem(cli.COMMANDS, "reduce", boom)
        assert run("reduce", "--out", tmp_path) == 1

    def test_network_flag_default_is_bundled(self):
        cfg = cli._config_from_args(cli.build_parser().parse_args(["reduce"]))
        assert cfg.network_file == bundled_network_path()

    def test_load_bus_as_disturbance_exit_2(self, tmp_path, capsys):
        assert run("simulate", "--disturb-node", 3, "--out", tmp_path) == 2
        assert "not a generator bus" in capsys.readouterr().err

    def test_load_bus_as_reference_exit_2(self, tmp_path):
        assert run("simulate", "--disturb-node", 6, "--ref-bus", 7,
                   "--out", tmp_path) == 2

    def test_log_env_var_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VSMTUNE_LOG", "debug")
        assert run("reduce", "--out", tmp_path) == 0
        monkeypatch.setenv("VSMTUNE_LOG", "not-a-level")
        assert run("reduce", "--out", tmp_path) == 0
