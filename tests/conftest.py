import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson

import vsmtune as vt

# The benchmark's grid generator, loaded by file path so that nothing from
# perfbench/ lands on sys.path; the tests draw the same networks from it.
_NETGEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "netgen.py"
_netgen_spec = importlib.util.spec_from_file_location("perfbench_netgen", _NETGEN_PATH)
netgen = importlib.util.module_from_spec(_netgen_spec)
_netgen_spec.loader.exec_module(netgen)

# random_connected_spec(rng, n_buses, n_loads=0): spanning tree plus a few extra lines.
random_connected_spec = functools.partial(netgen.random_connected_spec, vt)


@pytest.fixture(scope="session")
def twelve_doc():
    return vt.load_network(vt.bundled_network_path())


@pytest.fixture(scope="session")
def twelve_net(twelve_doc):
    return vt.reduce_network(twelve_doc.spec)


@pytest.fixture(scope="session")
def twelve_params(twelve_doc, twelve_net):
    return vt.device_params(twelve_doc, twelve_net.gen_ids)


@pytest.fixture
def two_bus():
    """Symmetric two-generator network with unit coefficients."""
    net = vt.ReducedNetwork(gen_ids=(1, 2), L=np.array([[1.0, -1.0], [-1.0, 1.0]]))
    params = vt.DeviceParams(
        m_hat=[1.0, 1.0], d_hat=[1.0, 1.0],
        m=[0.0, 0.0], d=[0.0, 0.0],
        m_lb=[0.0, 0.0], m_ub=[2.0, 2.0],
        d_lb=[0.0, 0.0], d_ub=[2.0, 2.0],
    )
    return net, params


def single_machine(m_hat=1.0, d_hat=1.0, m=0.0, d=0.0,
                   m_box=(0.0, 2.0), d_box=(0.0, 2.0)):
    """One-generator network; its H2 norm is 1/(2 (d_hat + d)) in closed form."""
    net = vt.ReducedNetwork(gen_ids=(1,), L=np.zeros((1, 1)))
    params = vt.DeviceParams(
        m_hat=[m_hat], d_hat=[d_hat], m=[m], d=[d],
        m_lb=[m_box[0]], m_ub=[m_box[1]], d_lb=[d_box[0]], d_ub=[d_box[1]],
    )
    return net, params


def random_stable_system(rng, dim, n_in=None, n_out=None):
    """Random Hurwitz (A, B, C) with abscissa pushed safely negative."""
    A = rng.standard_normal((dim, dim))
    abscissa = np.max(np.linalg.eigvals(A).real)
    A -= (abscissa + 0.5 + rng.random()) * np.eye(dim)
    B = rng.standard_normal((dim, n_in or max(1, dim // 2)))
    C = rng.standard_normal((n_out or max(1, dim // 2), dim))
    return A, B, C


def h2_value(ss):
    """Squared H2 norm ``trace(C P C^T)`` of a realization, ``P`` from ``solve_lyapunov``.

    A test oracle for hand-built ``StateSpace``s, apart from the
    package's one evaluator ``eval_objective``.
    """
    P = vt.solve_lyapunov(ss.A, ss.B @ ss.B.T)
    return float(np.trace(ss.C @ P @ ss.C.T))


def output_energy(result, params):
    """Quadrature of the kinetic output energy ``integral omega^T M omega dt``.

    For an impulse disturbance this matches the corresponding H2 channel
    contribution; it ties the simulator to the gramian-based objective.
    """
    M = params.m_total
    integrand = (M[:, None] * result.omega**2).sum(axis=0)
    return float(simpson(integrand, x=result.t))
