import numpy as np
import pytest
from scipy.integrate import simpson

import vsmtune as vt


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


def random_connected_spec(rng, n_buses, n_loads=0):
    """Random connected NetworkSpec: spanning tree plus a few extra lines."""
    kinds = ["generator"] * n_buses
    for i in rng.choice(n_buses, size=n_loads, replace=False):
        kinds[i] = "load"
    if all(k == "load" for k in kinds):
        kinds[0] = "generator"
    buses = tuple(
        vt.Bus(
            id=i + 1,
            kind=kinds[i],
            m_hat=float(0.5 + 2.0 * rng.random()) if kinds[i] == "generator" else 0.0,
            d_hat=float(0.2 + rng.random()) if kinds[i] == "generator" else 0.0,
        )
        for i in range(n_buses)
    )
    lines = []
    order = rng.permutation(n_buses)
    for a, b in zip(order[:-1], order[1:]):
        lines.append(vt.Line(int(buses[a].id), int(buses[b].id), float(0.5 + 5 * rng.random())))
    for _ in range(n_buses // 2):
        a, b = rng.choice(n_buses, size=2, replace=False)
        lines.append(vt.Line(int(buses[a].id), int(buses[b].id), float(0.5 + 5 * rng.random())))
    return vt.NetworkSpec(buses=buses, lines=tuple(lines))


def output_energy(result, params):
    """Quadrature of the kinetic output energy ``integral omega^T M omega dt``.

    For an impulse disturbance this matches the corresponding H2 channel
    contribution; it ties the simulator to the gramian-based objective.
    """
    M = params.m_total
    integrand = (M[:, None] * result.omega**2).sum(axis=0)
    return float(simpson(integrand, x=result.t))
