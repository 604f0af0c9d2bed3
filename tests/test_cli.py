import csv
import gc
import inspect
import json
import logging
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vsmtune as vt
import vsmtune.cli as cli
import vsmtune.optimizer as optimizer_module
import vsmtune.simulator as simulator_module
from vsmtune import StabilityError, bundled_network_path


def run(*args) -> int:
    return cli.main([str(a) for a in args])


def _bad_input_matrix():
    """Each bad input, given to every command that takes its flag."""
    simulating = ["simulate", "compare", "sweep-beta"]
    optimizing = ["optimize", "compare", "sweep-beta"]
    # Each case: its id, the bad flags, the commands that take them, and a
    # fragment of the error message.
    cases = [
        ("no-disturb-node", [], simulating, "--disturb-node is required"),
        ("--disturb-node-3", ["--disturb-node", "3"], ["optimize"] + simulating,
         "bus 3 is not a generator bus"),
        ("--magnitude-nan", ["--magnitude", "nan"], simulating, "magnitude must be finite"),
        ("--horizon-1e300", ["--horizon", "1e300"], simulating, "horizon/dt"),
        ("--dt-nan", ["--dt", "nan"], simulating, "dt and horizon must be finite"),
        ("--max-iter-0", ["--max-iter", "0"], optimizing, "max_iter"),
        ("--seed-point-2", ["--seed-point", "2"], optimizing, "--seed-point"),
        ("--seed-point-nan", ["--seed-point", "nan"], optimizing, "--seed-point"),
        # 2n values for the bundled network's 9 generators, m above its box.
        ("--seed-point-out-of-box", ["--seed-point", ",".join(["99"] * 9 + ["1"] * 9)],
         optimizing, "--seed-point lies outside the coefficient box"),
    ]
    for case, bad, commands, message in cases:
        for command in commands:
            argv = [command] + (["--betas=0,0.1"] if command == "sweep-beta" else [])
            if case != "no-disturb-node":
                argv += ["--disturb-node", "1"]  # a later --disturb-node in bad overrides it
            yield pytest.param(argv + bad, message, id=f"{case}-{command}")


def write_ub_coeffs(path: Path, params) -> Path:
    """A coefficients file holding the bundled network's upper-bound design."""
    rows = [f"{g},{float(m)!r},{float(d)!r}" for g, m, d in zip(
        (1, 2, 4, 5, 6, 8, 9, 10, 12), params.m_ub, params.d_ub)]
    path.write_text("bus,m_opt,d_opt\n" + "\n".join(rows) + "\n")
    return path


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

    def test_malformed_value_exit_2(self, tmp_path, capsys):
        doc = {
            "buses": [
                {"id": 1, "kind": "generator", "m_hat": 1.0, "d_hat": 1.0},
                {"id": 2, "kind": "generator", "m_hat": "x", "d_hat": 1.0},
            ],
            "lines": [{"from": 1, "to": 2, "b": 1.0}],
        }
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        assert run("reduce", "--network", path, "--out", tmp_path / "out") == 2
        assert "bus 2: 'm_hat' must be a number" in capsys.readouterr().err

    def test_non_finite_value_exit_2(self, tmp_path, capsys):
        doc = json.loads(bundled_network_path().read_text())
        doc["lines"][0]["b"] = float("inf")
        path = tmp_path / "infinite.json"
        path.write_text(json.dumps(doc))
        assert '"b": Infinity' in path.read_text()
        assert run("reduce", "--network", path, "--out", tmp_path / "out") == 2
        assert "line entry 0: 'b' must be a finite number, got inf" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert run("reduce", "--network", tmp_path / "ghost.json", "--out", tmp_path) == 2

    @pytest.mark.parametrize("b", [1e308, 5e-324])
    def test_out_of_range_susceptances_exit_2(self, b, tmp_path, capsys, recwarn):
        # The network stays connected; only the arithmetic of the reduction fails.
        doc = json.loads(bundled_network_path().read_text())
        for line in doc["lines"]:
            line["b"] = b
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(doc))
        assert run("reduce", "--network", path, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "line susceptances are out of floating-point range" in err
        assert "disconnected" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv, flag", [
        pytest.param(["optimize", "--beta=1e308"], "--beta 1e+308", id="optimize"),
        pytest.param(["optimize", "--beta=-1e308"], "--beta -1e+308", id="optimize-negative"),
        pytest.param(["compare", "--beta=1e308", "--disturb-node", 1], "--beta 1e+308",
                     id="compare-inline"),
        pytest.param(["sweep-beta", "--betas=0,1e308", "--disturb-node", 1, "--known-location"],
                     "--betas 1e+308", id="sweep-beta"),
    ])
    def test_overflowing_regularizer_exit_2_before_any_run(self, argv, flag, tmp_path,
                                                           monkeypatch, capsys):
        monkeypatch.setattr(cli, "optimize", lambda *args, **kwargs: pytest.fail("optimize ran"))
        assert run(*argv, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_regularizer_gradient_exit_2(self, tmp_path, capsys):
        # One machine with m_ub = 1: beta * ||m||^2 stays finite, 2 * beta * m_ub overflows.
        net = tmp_path / "one.json"
        net.write_text(json.dumps({"buses": [{"id": 1, "kind": "generator", "m_hat": 1.0,
                                              "d_hat": 1.0}], "lines": []}))
        argv = ["optimize", "--network", net, "--bounds", "0,1,0,1", "--max-iter", 3]
        assert run(*argv, "--beta=8e307", "--out", tmp_path / "ok") == 0
        assert run(*argv, "--beta=1e308", "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("error: --beta 1e+308: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_box_with_overflowing_midpoint_norm_exit_2(self, tmp_path, capsys):
        # Each midpoint m is 5e199; the optimizer's tolerance takes the norm of all 18.
        assert run("optimize", "--bounds", "0,1e200,0,1", "--out", tmp_path / "out") == 2
        assert "the norm of the coefficient box's midpoint overflows" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        residual = np.linalg.norm(alpha - np.clip(alpha - grad, lb, ub))
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

    @pytest.mark.parametrize("command", [
        ["optimize"],
        ["compare", "--disturb-node", "1", "--horizon", "0.1"],
        ["sweep-beta", "--betas=0", "--disturb-node", "1", "--horizon", "0.1"],
    ], ids=lambda c: c[0])
    def test_seed_point_is_the_start_design(self, command, tmp_path, monkeypatch,
                                            twelve_params):
        starts = []
        real_optimize = cli.optimize

        def recording(net, params, *args, **kwargs):
            starts.append(params)
            return real_optimize(net, params, *args, **kwargs)

        monkeypatch.setattr(cli, "optimize", recording)
        assert run(*command, "--seed-point", 0.25, "--max-iter", 1, "--out", tmp_path) == 0
        p = twelve_params
        assert len(starts) == 1
        assert np.array_equal(starts[0].m, p.m_lb + 0.25 * (p.m_ub - p.m_lb))
        assert np.array_equal(starts[0].d, p.d_lb + 0.25 * (p.d_ub - p.d_lb))

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

    @pytest.mark.parametrize("bounds", ["0,inf,0,2", "0,3,nan,2", "-inf,3,0,2"])
    def test_non_finite_bounds_exit_2(self, bounds, tmp_path, capsys):
        assert run("optimize", f"--bounds={bounds}", "--out", tmp_path) == 2
        assert f"--bounds must be finite numbers, got '{bounds}'" in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()


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

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("row", ["2,inf,0.5", "2,0.5,nan", "2,-inf,0.5"])
    def test_rejects_non_finite_coeffs(self, command, row, tmp_path, capsys):
        rows = [f"{g},0.5,0.5" for g in (1, 4, 5, 6, 8, 9, 10, 12)] + [row]
        path = tmp_path / "non_finite.csv"
        path.write_text("bus,m_opt,d_opt\n" + "\n".join(rows) + "\n")
        assert run(
            command, "--coeffs", path, "--disturb-node", 1, "--out", tmp_path,
        ) == 2
        assert f"coefficients file {path} has a non-finite m_opt or d_opt for bus 2" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "metrics.csv").exists()

    def test_rejects_foreign_bus_in_coeffs(self, tmp_path, capsys):
        rows = [f"{g},0.5,0.5" for g in (1, 2, 4, 5, 6, 8, 9, 10, 12)] + ["99,2.0,2.0"]
        path = tmp_path / "foreign.csv"
        path.write_text("bus,m_opt,d_opt\n" + "\n".join(rows) + "\n")
        assert run(
            "simulate", "--coeffs", path, "--disturb-node", 6, "--out", tmp_path,
        ) == 2
        assert "[99]" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_rejects_out_of_box_coeffs(self, command, tmp_path, capsys):
        # An optimize output with bus 1's m_opt above and bus 2's d_opt below the box.
        assert run("optimize", "--max-iter", 3, "--out", tmp_path / "opt") == 0
        rows = read_csv(tmp_path / "opt" / "coefficients.csv")
        rows[0]["m_opt"], rows[1]["d_opt"] = "99", "-0.5"
        path = tmp_path / "out_of_box.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        capsys.readouterr()
        assert run(
            command, "--coeffs", path, "--disturb-node", 1, "--out", tmp_path / "run",
        ) == 2
        err = capsys.readouterr().err
        assert f"coefficients file {path} lies outside the coefficient box" in err
        assert "bus 1 m_opt 99.0 is above m_ub 3.0" in err
        assert "bus 2 d_opt -0.5 is below d_lb 0.0" in err
        assert not (tmp_path / "run").exists()

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["simulate", "compare", "sweep-beta"])
    def test_overflowing_magnitude_exit_2(self, command, tmp_path, capsys):
        # The response to a 1.7e308 p.u. step leaves the float range: no metrics,
        # trajectory or sweep file is written.
        extra = ["--betas=0", "--max-iter", 3] if command == "sweep-beta" else []
        assert run(command, *extra, "--disturb-node", 1, "--magnitude", "1.7e308",
                   "--out", tmp_path) == 2
        assert "error: disturbance magnitude 1.7e+308 drives the response" in (
            capsys.readouterr().err
        )
        assert list(tmp_path.iterdir()) == []

    def test_numpy_only_commands_leave_scipy_linalg_unloaded(self, tmp_path, twelve_params):
        # Every command runs on numpy alone, the gramian solves included.
        coeffs = write_ub_coeffs(tmp_path / "coefficients.csv", twelve_params)
        script = (
            "import sys, vsmtune.cli as cli\n"
            "out = sys.argv[1]\n"
            "codes = [cli.main(['reduce', '--out', out]),\n"
            "         cli.main(['simulate', '--disturb-node', '1', '--horizon', '1', '--out', out]),\n"
            "         cli.main(['compare', '--disturb-node', '1', '--horizon', '1',\n"
            "                   '--coeffs', sys.argv[2], '--out', out]),\n"
            "         cli.main(['optimize', '--out', out]),\n"
            "         cli.main(['sweep-beta', '--betas=0,0.1', '--disturb-node', '1',\n"
            "                   '--horizon', '1', '--out', out]),\n"
            "         cli.main(['compare', '--disturb-node', '1', '--horizon', '1', '--out', out])]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(vt.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "out"), str(coeffs)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=60, check=True,
        )
        assert out.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0, 0, 0] []"


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
            settle_time=np.zeros(3), omega_ss=np.zeros(3),
        )
        gen_ids = (1, 4, 12)
        self.per_value_reference(tmp_path / "reference.csv", gen_ids, result)
        cli._write_trajectories(gen_ids, [(tmp_path / "trajectory.csv", result)])
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


    @pytest.mark.parametrize("n_rows", [
        pytest.param(n_rows, id=f"rows-{n_rows}")
        # The rows of one block, at the test's three columns.
        for block in [cli.TRAJECTORY_BLOCK // 3]
        for n_rows in (1, block - 1, block, block + 1, 2 * block + 1)
    ])
    def test_block_boundaries_match_per_value_writer(self, n_rows, tmp_path):
        rng = np.random.default_rng(n_rows)
        omega = rng.standard_normal((2, n_rows)) * 1e-3
        omega[1, ::7] = -0.0
        result = vt.SimResult(
            t=np.arange(n_rows) * 1e-3, omega=omega, rocof_max=np.zeros(2), nadir=np.zeros(2),
            settle_time=np.zeros(2), omega_ss=np.zeros(2),
        )
        self.per_value_reference(tmp_path / "reference.csv", (2, 9), result)
        cli._write_trajectories((2, 9), [(tmp_path / "trajectory.csv", result)])
        written = (tmp_path / "trajectory.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        assert written.count(b"\r\n") == n_rows + 1


def percent_rows(block) -> bytes:
    """Reference for ``cli._csv_rows``: one bytes ``%`` per value."""
    return b"".join(
        b",".join(b"%.17g" % v for v in row) + b"\r\n" for row in np.atleast_2d(block).tolist()
    )


def halfway_values() -> list[float]:
    """Doubles ``x = a / 2**(j+1)``, ``a`` odd, whose ``x * 10**j`` is a half-integer in [1e16, 1e17).

    With ``j = 16 - X`` that product is the 17-digit scaling of ``x``, so
    ``%.17g`` has to break an exact tie (to even) for each of them.
    """
    values = []
    for j in range(1, 25):
        low = -(-2 * 10**16 // 5**j)
        for a in (low | 1, (low | 1) + 2, (2 * 10**17 // 5**j - 1) | 1):
            if a >= 2**53 or a * 5**j >= 2 * 10**17:
                continue
            x = math.ldexp(a, -(j + 1))
            assert (Fraction(x) * 10**j).denominator == 2
            values += [x, -x]
    return values


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("extended", [True, False], ids=["kernel", "all-fallback"])
class TestCsvRows:
    """``_csv_rows`` against ``%``, also with the extended-precision guard off."""

    @pytest.fixture(autouse=True)
    def guard(self, extended, monkeypatch):
        monkeypatch.setattr(cli, "_EXTENDED", extended and cli._EXTENDED)

    @staticmethod
    def check(values, n_cols=1):
        block = np.asarray(values, dtype=float).reshape(-1, n_cols)
        assert cli._csv_rows(block) == percent_rows(block)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(*[st.integers(0, 2**64 - 1)] * 3), min_size=1, max_size=8))
    def test_any_bit_pattern(self, rows):
        values = np.array(rows, dtype=np.uint64).view(np.float64)
        self.check(values, n_cols=3)
        self.check(values, n_cols=1)

    def test_both_sides_of_every_power_of_ten(self):
        values = []
        for k in range(-12, 46):
            p = 10.0 ** k
            below, above = np.nextafter(p, 0.0), np.nextafter(p, np.inf)
            values += [p, below, above, np.nextafter(below, 0.0), np.nextafter(above, np.inf)]
        values = np.array(values)
        self.check(np.concatenate([values, -values]), n_cols=10)

    def test_fixed_to_scientific_switch_points(self):
        values = []
        for p in (1e-5, 1e-4, 1e16, 1e17):
            values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
        self.check(values + [-v for v in values], n_cols=3)

    def test_seventeen_nines_print_as_1e17(self):
        # The literal is the double 1e17 itself, whose exponent 17 is scientific.
        assert cli._csv_rows(np.array([[99999999999999999.0, -99999999999999999.0]])) == (
            b"1e+17,-1e+17\r\n")

    def test_halfway_products(self):
        self.check(halfway_values(), n_cols=2)

    def test_signed_zero_subnormals_and_non_finite(self):
        values = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -3.1e-320,
                  np.inf, -np.inf, np.nan, 2.2250738585072014e-308, 1.7976931348623157e308]
        self.check(values, n_cols=3)
        assert cli._csv_rows(np.array([[-0.0, np.inf, -np.inf, np.nan]])) == b"-0,inf,-inf,nan\r\n"

    @pytest.mark.parametrize("shift", [-0.5, 0.5])
    def test_log10_off_by_one(self, shift, monkeypatch):
        # A log10 that misses the exponent by one, either way, may only send
        # values to the fallback: the kernel's products leave [1e16, 1e17).
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
        rng = np.random.default_rng(5)
        self.check(rng.standard_normal(2000) * 10.0 ** rng.integers(-12, 45, 2000), n_cols=10)

    def test_ordinary_magnitudes_and_point_positions(self):
        rng = np.random.default_rng(21)
        values = rng.standard_normal(3000) * 10.0 ** rng.integers(-12, 45, 3000)
        whole = rng.integers(-10**6, 10**6, 600) * 10.0 ** rng.integers(-4, 17, 600)
        self.check(np.concatenate([values, whole]), n_cols=12)


@pytest.mark.skipif(not cli._EXTENDED, reason="long double is neither x87 extended nor IEEE quad: every value falls back")
class TestCsvRowsKernelPath:
    """Which values reach the ``%`` fallback where the kernel runs."""

    @pytest.fixture
    def fallback_count(self, monkeypatch):
        counted = []

        def counting(values):
            counted.append(len(values))
            return percent_fields(values)

        percent_fields = cli._percent_fields
        monkeypatch.setattr(cli, "_percent_fields", counting)
        return counted

    def test_trajectory_values_take_the_kernel(self, fallback_count):
        # Only products that land on a half-integer fall back: near 1e17 the
        # long double spacing is 2**-7 or 2**-8, so well under 1% of values.
        rng = np.random.default_rng(3)
        block = np.column_stack([np.arange(1024) * 1e-3 + 7.0,
                                 rng.standard_normal((1024, 9)) * 1e-3])
        assert cli._csv_rows(block) == percent_rows(block)
        assert sum(fallback_count) < 0.01 * block.size

    def test_halfway_products_fall_back(self, fallback_count):
        values = np.array(halfway_values())
        assert cli._csv_rows(values[:, None]) == percent_rows(values[:, None])
        assert fallback_count == [len(values)]


@pytest.mark.parametrize("command", ["optimize", "simulate", "compare", "sweep-beta"])
def test_parser_defaults_are_the_librarys(command):
    args = cli.build_parser().parse_args([command] + (["--betas", "0"] if command == "sweep-beta"
                                                      else []))
    if hasattr(args, "horizon"):
        for fn in (vt.simulate, vt.compare_designs):
            params = inspect.signature(fn).parameters
            assert (args.horizon, args.dt) == (params["horizon"].default, params["dt"].default)
        assert (args.horizon, args.dt) == (25.0, 1e-3)
    if hasattr(args, "max_iter"):
        assert (args.max_iter, args.grad_tol) == (vt.DescentConfig().max_iter,
                                                  vt.DescentConfig().grad_tol)
    if hasattr(args, "beta"):
        assert args.beta == vt.ObjectiveConfig().beta
    assert hasattr(args, "beta") == (command in ("optimize", "compare"))
    assert hasattr(args, "horizon") == (command != "optimize")
    assert hasattr(args, "max_iter") == (command != "simulate")


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

    def test_logs_each_variants_simulation_warnings(self, tmp_path, caplog):
        assert run("optimize", "--grad-tol", 1e-2, "--out", tmp_path / "opt") == 0
        caplog.clear()
        assert run(
            "compare", "--coeffs", tmp_path / "opt" / "coefficients.csv",
            "--disturb-node", 1, "--horizon", 0.05, "--out", tmp_path / "cmp",
        ) == 0
        warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert sorted(warned) == [
            f"{label}: some buses did not settle within the horizon"
            for label in ("d_max_m_max", "d_max_m_min", "d_opt_m_opt")
        ]


    @pytest.mark.parametrize("command", [
        pytest.param(["compare", "--grad-tol", 1e-2], id="compare-inline-step"),
        pytest.param(["compare", "--grad-tol", 1e-2, "--disturb-kind", "impulse"],
                     id="compare-inline-impulse"),
        pytest.param(["compare", "--coeffs"], id="compare-coeffs-step"),
        pytest.param(["compare", "--disturb-kind", "impulse", "--coeffs"],
                     id="compare-coeffs-impulse"),
        pytest.param(["simulate"], id="simulate-step"),
        pytest.param(["simulate", "--disturb-kind", "impulse", "--coeffs"], id="simulate-impulse"),
    ])
    def test_writes_every_file_in_full(self, command, tmp_path):
        if command[-1] == "--coeffs":
            assert run("optimize", "--grad-tol", 1e-2, "--out", tmp_path / "opt") == 0
            command = command + [tmp_path / "opt" / "coefficients.csv"]
        out = tmp_path / "out"
        # 5001 rows: a full and a partial trajectory block.
        assert run(*command, "--disturb-node", 1, "--horizon", 5.0, "--out", out) == 0
        files = {f.name: f.read_bytes() for f in out.iterdir()}
        assert len(files) == (4 if command[0] == "compare" else 2)
        assert all(text.count(b"\r\n") == 5002 for name, text in files.items()
                   if name.startswith("trajectory"))

    def test_failed_simulation_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                              twelve_params):
        assert run("optimize", "--grad-tol", 1e-2, "--out", tmp_path / "opt") == 0
        calls = []
        # The second variant in label order, d_max_m_min, has the least inertia.
        least_inertia = twelve_params.m_hat + twelve_params.m_lb

        def tracked(fn, name):
            def call(*args, **kwargs):
                calls.append(name)
                if name == "simulate" and np.allclose(
                        np.einsum("ij,ij->j", args[0].C, args[0].C)[-len(least_inertia):],
                        least_inertia):
                    raise StabilityError("synthetic instability")
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(simulator_module, "simulate",
                            tracked(simulator_module.simulate, "simulate"))
        monkeypatch.setattr(cli, "_csv_rows", tracked(cli._csv_rows, "format"))
        capsys.readouterr()
        code = run("compare", "--coeffs", tmp_path / "opt" / "coefficients.csv",
                   "--disturb-node", 1, "--horizon", 10.0, "--out", tmp_path / "cmp")
        assert code == 1
        assert capsys.readouterr() == ("", "error: synthetic instability\n")
        assert not list(tmp_path.glob("cmp/trajectory_*"))
        # The first two simulations run, and no block is formatted.
        assert calls == ["simulate", "simulate"]

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs two CPUs")
    def test_simulating_commands_start_no_worker(self, tmp_path):
        # With BLAS pinned and two CPUs a worker could run beside the caller;
        # compare and simulate still run on the caller's thread alone.
        script = (
            "import sys, vsmtune.cli as cli, vsmtune.objective as objective\n"
            "assert objective._overlap(objective.OVERLAP_MIN_STATES)\n"
            "print([(cli.main([cmd, '--disturb-node', '1', '--out', sys.argv[1]]),\n"
            "        objective._worker) for cmd in ('compare', 'simulate')])\n"
        )
        src = str(Path(vt.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.splitlines()[-1] == "[(0, None), (0, None)]"


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

    def test_writes_optimize_summary_per_beta(self, tmp_path):
        assert run(
            "sweep-beta", "--betas=0,0.01", "--known-location", "--grad-tol", 1e-3,
            "--disturb-node", 6, "--horizon", 5.0, "--out", tmp_path,
        ) == 0
        opt_dir = tmp_path / "opt"
        assert run(
            "optimize", "--beta", 0.01, "--disturb-node", 6,
            "--grad-tol", 1e-3, "--out", opt_dir,
        ) == 0
        with open(opt_dir / "summary.csv", newline="") as fh:
            header = next(csv.reader(fh))
        first = read_csv(tmp_path / "summary_b0.csv")
        assert list(first[0]) == header
        assert [(r["beta"], r["formulation"]) for r in first] == [("0", "known_location")]
        assert read_csv(tmp_path / "summary_b1.csv") == read_csv(opt_dir / "summary.csv")

    def test_logs_each_runs_simulation_warnings(self, tmp_path, caplog):
        assert run(
            "sweep-beta", "--betas=0,0.01", "--grad-tol", 1e-2,
            "--disturb-node", 1, "--horizon", 0.05, "--out", tmp_path,
        ) == 0
        warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warned == [
            f"beta={beta}: some buses did not settle within the horizon" for beta in ("0", "0.01")
        ]
        assert all(r["settle_time"] == "inf" for r in read_csv(tmp_path / "sweep.csv"))

    def test_unparseable_betas_exit_2(self, tmp_path):
        assert run("sweep-beta", "--betas", "a,b", "--disturb-node", 6,
                   "--out", tmp_path) == 2

    @pytest.mark.parametrize("betas", ["nan", "0,inf", "-inf"])
    def test_non_finite_betas_exit_2(self, betas, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("optimize() ran before --betas was checked")

        monkeypatch.setattr(cli, "optimize", never)
        assert run("sweep-beta", f"--betas={betas}", "--disturb-node", 1, "--out", tmp_path) == 2
        assert f"--betas must be finite numbers, got '{betas}'" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-iter", "0", "max_iter must be at least 1"),
        ("--seed-point", "2", "--seed-point fraction must lie in [0, 1]"),
    ])
    def test_invalid_run_settings_exit_2(self, flag, value, message, tmp_path, monkeypatch,
                                         capsys):
        def never(*args, **kwargs):
            raise AssertionError("optimize() ran with invalid run settings")

        monkeypatch.setattr(cli, "optimize", never)
        assert run("sweep-beta", "--betas=0,0.1", "--disturb-node", 1, flag, value,
                   "--out", tmp_path) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("argv, message", _bad_input_matrix())
    def test_bad_time_grid_exit_2_before_any_evaluation(self, argv, message, tmp_path,
                                                        monkeypatch, capsys):
        # Covers every command, not only sweep-beta: bad input exits 2 before any work.
        calls = []

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(optimizer_module, "eval_objective")
        counting(cli, "simulate")
        counting(simulator_module, "simulate")
        out = tmp_path / "out"
        assert run(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert calls == []
        assert not out.exists()

    def test_unstable_run_fails_its_row_only(self, tmp_path, monkeypatch, capsys):
        real_optimize = cli.optimize

        def unstable_at_zero(net, params, obj, *args, **kwargs):
            if obj.beta == 0.0:
                raise StabilityError("system matrix is not Hurwitz")
            return real_optimize(net, params, obj, *args, **kwargs)

        monkeypatch.setattr(cli, "optimize", unstable_at_zero)
        assert run("sweep-beta", "--betas=0,0.01", "--grad-tol", 1e-3, "--disturb-node", 6,
                   "--horizon", 5.0, "--out", tmp_path) == 1
        rows = read_csv(tmp_path / "sweep.csv")
        assert [(r["beta"], r["status"]) for r in rows] == [("0", "failed"), ("0.01", "ok")]
        assert rows[0]["error"] == "system matrix is not Hurwitz"
        assert not (tmp_path / "coefficients_b0.csv").exists()
        assert (tmp_path / "coefficients_b1.csv").exists()
        assert "1/2 runs succeeded" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["optimize"], ["compare"], ["sweep-beta", "--betas", 0]])
def test_removed_gamma0_flag_rejected(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*command, "--gamma0", 0.1, "--out", tmp_path)
    assert exc.value.code == 2
    assert "unrecognized arguments: --gamma0" in capsys.readouterr().err


FLAGS = {
    "reduce": {"--network", "--out"},
    "optimize": {"--network", "--out", "--bounds", "--max-iter", "--grad-tol", "--seed-point",
                 "--beta", "--disturb-node"},
    "simulate": {"--network", "--out", "--bounds", "--disturb-node", "--disturb-kind",
                 "--magnitude", "--horizon", "--dt", "--coeffs"},
    "compare": {"--network", "--out", "--bounds", "--max-iter", "--grad-tol", "--seed-point",
                "--disturb-node", "--disturb-kind", "--magnitude", "--horizon", "--dt",
                "--coeffs", "--known-location", "--beta"},
    "sweep-beta": {"--network", "--out", "--bounds", "--max-iter", "--grad-tol", "--seed-point",
                   "--disturb-node", "--disturb-kind", "--magnitude", "--horizon", "--dt",
                   "--betas", "--known-location"},
}


def test_each_command_declares_exactly_its_flags():
    parser = cli.build_parser()
    commands = parser._subparsers._group_actions[0].choices
    assert set(commands) == set(FLAGS)
    for name, sub in commands.items():
        flags = [f for action in sub._actions if action.dest != "help"
                 for f in action.option_strings]
        assert sorted(flags) == sorted(FLAGS[name]), name
    assert [len(FLAGS[name]) for name in commands] == [2, 8, 9, 14, 13]
    assert not parser.allow_abbrev
    assert not any(sub.allow_abbrev for sub in commands.values())


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["reduce", "--ref-bus", 1], "--ref-bus", id="reduce-ref-bus"),
    pytest.param(["reduce", "--bounds", "0,1,0,1"], "--bounds", id="reduce-bounds"),
    pytest.param(["optimize", "--ref-bus", 1], "--ref-bus", id="optimize-ref-bus"),
    pytest.param(["simulate", "--disturb-node", 1, "--ref-bus", 1], "--ref-bus",
                 id="simulate-ref-bus"),
    # Neither beta = 0 alone nor --beta read as a prefix of --betas (a sweep of beta = 5).
    pytest.param(["sweep-beta", "--betas", 0, "--beta", 5, "--disturb-node", 1, "--max-iter", 3,
                  "--horizon", 1], "--beta 5", id="sweep-beta-beta"),
    # Prefixes of --max-iter and --known-location.
    pytest.param(["optimize", "--max", 3], "--max", id="optimize-prefix"),
    pytest.param(["compare", "--disturb-node", 1, "--known"], "--known", id="compare-prefix"),
])
def test_removed_flags_and_prefixes_exit_2(argv, flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--out", tmp_path / "out")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}" in err
    # The usage line is the command's, which lists its flags.
    assert err.startswith(f"usage: vsmtune {argv[0]} [-h] [--network NETWORK]")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, value", [
    pytest.param(["optimize", "--beta", "nan"], "nan", id="optimize"),
    pytest.param(["compare", "--disturb-node", 1, "--beta", "inf"], "inf", id="compare"),
])
def test_non_finite_beta_exit_2(argv, value, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "optimize", lambda *args, **kwargs: pytest.fail("optimize ran"))
    assert run(*argv, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: --beta must be a finite number, got {value}\n"
    assert not (tmp_path / "out").exists()


class TestErrorMapping:
    def test_stability_error_exit_1(self, monkeypatch, tmp_path):
        def boom(cfg):
            raise StabilityError("synthetic instability")

        monkeypatch.setitem(cli.COMMANDS, "reduce", boom)
        assert run("reduce", "--out", tmp_path) == 1

    @pytest.mark.parametrize("command", [["reduce"], ["optimize"]])
    def test_out_naming_a_file_exit_2(self, command, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("optimize() ran before --out was checked")

        monkeypatch.setattr(cli, "optimize", never)
        target = tmp_path / "taken"
        target.write_text("keep")
        assert run(*command, "--out", target) == 2
        assert "is not a directory" in capsys.readouterr().err
        # Below a file: the nearest existing ancestor of --out is checked.
        assert run(*command, "--out", target / "sub") == 2
        assert f"{target} exists and is not a directory" in capsys.readouterr().err
        assert target.read_text() == "keep"

    def test_unwritable_output_exit_1(self, tmp_path, monkeypatch, capsys):
        def denied(path, header, rows):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli, "_write_csv", denied)
        assert run("reduce", "--out", tmp_path) == 1
        assert "error: [Errno 13] Permission denied" in capsys.readouterr().err

    def test_network_flag_default_is_bundled(self, tmp_path, monkeypatch):
        assert cli.build_parser().parse_args(["reduce"]).network is None
        read = []
        real_load = cli.load_network
        monkeypatch.setattr(cli, "load_network", lambda path: read.append(path) or real_load(path))
        assert run("reduce", "--out", tmp_path) == 0
        assert read == [bundled_network_path()]

    def test_load_bus_as_disturbance_exit_2(self, tmp_path, capsys):
        assert run("simulate", "--disturb-node", 3, "--out", tmp_path) == 2
        assert "not a generator bus" in capsys.readouterr().err

    def test_log_env_var_naming_no_level_means_warning(self, tmp_path):
        # In a fresh process, where basicConfig sets the root level: the
        # logging attribute BASIC_FORMAT is a string, not a level, so it
        # falls back to warning, and reduce exits 0 and logs nothing.
        src = str(Path(vt.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-m", "vsmtune.cli", "reduce", "--out", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src, "VSMTUNE_LOG": "basic_format"},
            capture_output=True, text=True, timeout=60,
        )
        assert (out.returncode, out.stderr) == (0, "")

    def test_log_env_var_accepted(self, tmp_path):
        # In a fresh process, as above: in-process, pytest's handlers make
        # basicConfig a no-op, so no VSMTUNE_LOG value could fail this test.
        # The console script's entry point, so the logger is vsmtune.cli.
        src = str(Path(vt.__file__).resolve().parents[1])
        script = "from vsmtune.cli import entrypoint; entrypoint()"

        def reduce(level):
            return subprocess.run(
                [sys.executable, "-c", script, "reduce", "--out", str(tmp_path)],
                env={**os.environ, "PYTHONPATH": src, "VSMTUNE_LOG": level},
                capture_output=True, text=True, timeout=60,
            )

        out = reduce("debug")
        assert out.returncode == 0
        for name in ("reduced_generators.csv", "reduced_laplacian.csv"):
            assert f"INFO vsmtune.cli: wrote {tmp_path / name}\n" in out.stderr
        out = reduce("not-a-level")
        assert (out.returncode, out.stderr) == (0, "")

    @pytest.mark.parametrize("launch", [
        ["-m", "vsmtune.cli"],
        ["-c", "from vsmtune.cli import entrypoint; entrypoint()"],
    ], ids=["module", "entrypoint"])
    def test_logger_name_same_on_every_launch_path(self, launch, tmp_path):
        # Run as a module the CLI is __main__, yet it must still log as vsmtune.cli.
        src = str(Path(vt.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, *launch, "reduce", "--out", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src, "VSMTUNE_LOG": "debug"},
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0
        for name in ("reduced_generators.csv", "reduced_laplacian.csv"):
            assert f"INFO vsmtune.cli: wrote {tmp_path / name}\n" in out.stderr

    def test_optimize_warns_of_undamped_buses_and_still_runs(self, tmp_path, caplog):
        doc = json.loads(bundled_network_path().read_text())
        for bus in doc["buses"]:
            if bus["id"] == 4:
                bus["d_hat"] = 0.0
        net = tmp_path / "undamped.json"
        net.write_text(json.dumps(doc))
        assert run("optimize", "--network", net, "--beta", 0.1, "--out", tmp_path) == 0
        warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warned) == 1 and "buses [4]" in warned[0]


class TestEntrypoint:
    """The console script's exit path: ``main``, then a frozen heap, then ``sys.exit``."""

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_freezes_once_after_main_and_passes_code_through(self, code, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or code)
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(sys, "exit", lambda status: calls.append(("exit", status)))
        cli.entrypoint()
        assert calls == ["main", "freeze", ("exit", code)]

    def test_main_alone_does_not_freeze(self, tmp_path):
        frozen = gc.get_freeze_count()
        assert run("reduce", "--out", tmp_path) == 0
        assert gc.get_freeze_count() == frozen

    @staticmethod
    def console(*argv):
        """Run the CLI as ``python -m vsmtune.cli``, through ``entrypoint``."""
        src = str(Path(vt.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, "-m", "vsmtune.cli", *map(str, argv)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )

    def test_console_compare_matches_in_process_main(self, tmp_path, twelve_params, capsys):
        coeffs = write_ub_coeffs(tmp_path / "coefficients.csv", twelve_params)
        argv = ["compare", "--disturb-node", 1, "--coeffs", coeffs, "--out"]
        assert run(*argv, tmp_path / "in") == 0
        in_process = capsys.readouterr().out
        out = self.console(*argv, tmp_path / "console")
        assert (out.returncode, out.stdout, out.stderr) == (0, in_process, "")
        names = sorted(p.name for p in (tmp_path / "in").iterdir())
        assert len(names) == 4
        assert sorted(p.name for p in (tmp_path / "console").iterdir()) == names
        for name in names:
            assert (tmp_path / "console" / name).read_bytes() == (
                tmp_path / "in" / name).read_bytes(), name

    def test_console_reduce_onto_a_file_exits_2(self, tmp_path):
        taken = tmp_path / "taken"
        taken.touch()
        out = self.console("reduce", "--out", taken)
        assert out.returncode == 2
        assert out.stderr.startswith("error: ")
