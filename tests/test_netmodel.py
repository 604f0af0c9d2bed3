import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vsmtune as vt
from vsmtune import Bus, Line, NetworkSpec

from conftest import random_connected_spec, single_machine


def spec_2bus(b=5.0):
    return NetworkSpec(
        buses=(Bus(1, "generator", 1.0, 1.0), Bus(2, "generator", 1.0, 1.0)),
        lines=(Line(1, 2, b),),
    )


def spec_chain():
    return NetworkSpec(
        buses=(
            Bus(1, "generator", 1.0, 1.0),
            Bus(2, "generator", 1.0, 1.0),
            Bus(3, "generator", 1.0, 1.0),
        ),
        lines=(Line(1, 2, 1.0), Line(2, 3, 1.0)),
    )


def chain_with_load(load_id):
    return NetworkSpec(
        buses=tuple(
            Bus(i, "load") if i == load_id else Bus(i, "generator", 1.0, 1.0) for i in (1, 2, 3)
        ),
        lines=(Line(1, 2, 1.0), Line(2, 3, 1.0)),
    )


class TestBuildLaplacian:
    """The bus Laplacian, read from ``reduce_network`` on all-generator specs, and spec checks."""

    def test_two_bus(self):
        L = vt.reduce_network(spec_2bus()).L
        assert np.array_equal(L, [[5.0, -5.0], [-5.0, 5.0]])

    def test_chain(self):
        L = vt.reduce_network(spec_chain()).L
        assert np.array_equal(L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_triangle(self):
        spec = NetworkSpec(
            buses=tuple(Bus(i, "generator", 1.0, 0.5) for i in (1, 2, 3)),
            lines=(Line(1, 2, 2.0), Line(1, 3, 3.0), Line(2, 3, 4.0)),
        )
        L = vt.reduce_network(spec).L
        assert np.array_equal(L, [[5, -2, -3], [-2, 6, -4], [-3, -4, 7]])

    def test_parallel_lines_sum(self):
        spec = NetworkSpec(
            buses=(Bus(1, "generator", 1.0, 1.0), Bus(2, "generator", 1.0, 1.0)),
            lines=(Line(1, 2, 2.0), Line(2, 1, 3.0)),
        )
        L = vt.reduce_network(spec).L
        assert np.array_equal(L, [[5.0, -5.0], [-5.0, 5.0]])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(vt.ValidationError, match="duplicate bus ids"):
            NetworkSpec(
                buses=(Bus(1, "generator", 1.0, 1.0), Bus(1, "generator", 1.0, 1.0)),
                lines=(Line(1, 1, 1.0),),
            )

    def test_unknown_endpoint_names_line(self):
        with pytest.raises(vt.ValidationError, match=r"line \(2, 9\)"):
            NetworkSpec(
                buses=(Bus(1, "generator", 1.0, 1.0), Bus(2, "generator", 1.0, 1.0)),
                lines=(Line(1, 2, 1.0), Line(2, 9, 1.0)),
            )

    def test_disconnected_rejected(self):
        with pytest.raises(vt.ValidationError, match="not connected"):
            NetworkSpec(
                buses=tuple(Bus(i, "generator", 1.0, 1.0) for i in (1, 2, 3)),
                lines=(Line(1, 2, 1.0),),
            )

    def test_load_with_inertia_rejected(self):
        with pytest.raises(vt.ValidationError, match="m_hat = 0"):
            NetworkSpec(
                buses=(Bus(1, "generator", 1.0, 1.0), Bus(2, "load", m_hat=0.5)),
                lines=(Line(1, 2, 1.0),),
            )

    def test_nonpositive_susceptance_rejected(self):
        with pytest.raises(vt.ValidationError, match="b > 0"):
            NetworkSpec(
                buses=(Bus(1, "generator", 1.0, 1.0), Bus(2, "generator", 1.0, 1.0)),
                lines=(Line(1, 2, 0.0),),
            )

    def test_doubling_susceptances_scales_linearly(self):
        L1 = vt.reduce_network(spec_chain()).L
        doubled = NetworkSpec(
            buses=spec_chain().buses,
            lines=tuple(Line(l.from_bus, l.to_bus, 2 * l.b) for l in spec_chain().lines),
        )
        L2 = vt.reduce_network(doubled).L
        assert np.array_equal(L2, 2.0 * L1)
        assert np.abs(L2.sum(axis=1)).max() == 0.0
        assert np.min(np.linalg.eigvalsh(L2)) >= -1e-12


class TestKronReduce:
    """Load elimination by ``reduce_network``."""

    def test_eliminate_nothing_is_identity(self):
        spec = spec_chain()
        red = vt.reduce_network(spec)
        assert np.array_equal(red.L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
        assert red.gen_ids == spec.generator_ids == (1, 2, 3)

    def test_eliminate_middle_bus(self):
        red = vt.reduce_network(chain_with_load(2))
        # Hand Schur complement: series combination of two unit lines.
        assert np.allclose(red.L, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)
        assert red.gen_ids == (1, 3)

    def test_eliminate_leaf_bus(self):
        red = vt.reduce_network(chain_with_load(3))
        assert np.allclose(red.L, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-14)
        assert red.gen_ids == (1, 2)

    def test_singular_load_block_rejected(self):
        # An isolated load bus would leave a singular load block; the spec refuses it.
        with pytest.raises(vt.ValidationError, match="not connected"):
            NetworkSpec(
                buses=(Bus(1, "generator", 1.0, 1.0), Bus(2, "generator", 1.0, 1.0), Bus(3, "load")),
                lines=(Line(1, 2, 1.0),),
            )

    def test_cannot_eliminate_everything(self):
        with pytest.raises(vt.ValidationError, match="no generator buses"):
            NetworkSpec(buses=(Bus(1, "load"), Bus(2, "load")), lines=(Line(1, 2, 1.0),))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_parallel_lines_rejected(self):
        # No load to eliminate: the Laplacian itself leaves floating-point range.
        spec = NetworkSpec(buses=spec_2bus().buses, lines=(Line(1, 2, 1e308), Line(2, 1, 1e308)))
        with pytest.raises(vt.ValidationError, match="out of floating-point range"):
            vt.reduce_network(spec)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=3, max_value=8),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_property_preserves_laplacian_structure(self, n_buses, n_loads, seed):
        rng = np.random.default_rng(seed)
        n_loads = min(n_loads, n_buses - 1)
        spec = random_connected_spec(rng, n_buses, n_loads)
        red = vt.reduce_network(spec)
        assert np.abs(red.L - red.L.T).max() <= 1e-9
        assert np.abs(red.L.sum(axis=1)).max() <= 1e-9
        off = red.L - np.diag(np.diag(red.L))
        assert off.max() <= 1e-9
        # connected reduction: exactly one (near-)zero eigenvalue
        eigs = np.sort(np.linalg.eigvalsh(red.L))
        assert eigs[0] >= -1e-9
        if red.n > 1:
            assert eigs[1] > 1e-9


class TestAssembleStateSpace:
    def test_two_bus_reference_grounding(self, two_bus):
        net, params = two_bus
        ss = vt.assemble_state_space(net, params, ref_bus=1)
        assert np.allclose(ss.A, [[0, 1, -1], [-1, -1, 0], [1, 0, -1]], atol=1e-15)
        assert np.allclose(ss.B, [[0, 0], [1, 0], [0, 1]], atol=1e-15)
        assert np.allclose(ss.C, [[0, 1, 0], [0, 0, 1]], atol=1e-15)

    def test_eta_selects_basis_column(self, two_bus):
        net, params = two_bus
        ss = vt.assemble_state_space(net, params, ref_bus=1, eta=np.array([1.0, 0.0]))
        assert ss.B.shape == (3, 1)
        assert np.allclose(ss.B[:, 0], [0.0, 1.0, 0.0], atol=1e-15)

    def test_inertia_scaling(self, two_bus):
        net, params = two_bus
        heavier = params.with_design([1.0, 1.0], [1.0, 1.0])  # M = 2, D = 2
        ss = vt.assemble_state_space(net, heavier, ref_bus=1)
        assert np.allclose(ss.A, [[0, 1, -1], [-0.5, -1, 0], [0.5, 0, -1]], atol=1e-15)
        assert np.allclose(ss.B, [[0, 0], [0.5, 0], [0, 0.5]], atol=1e-15)
        assert np.allclose(ss.C[:, 1:], np.diag([np.sqrt(2), np.sqrt(2)]), atol=1e-15)

    def test_matches_per_bus_loop(self, twelve_net, twelve_params):
        # Reference: the per-bus loop the vectorized assembly replaced.
        net, params = twelve_net, twelve_params
        n, na = net.n, net.n - 1
        M, D = params.m_total, params.d_total
        for ref in range(n):
            keep = [i for i in range(n) if i != ref]
            A = np.zeros((2 * n - 1, 2 * n - 1))
            for row, i in enumerate(keep):
                A[row, na + i] = 1.0
                A[row, na + ref] = -1.0
            for i in range(n):
                A[na + i, :na] = -net.L[i, keep] / M[i]
                A[na + i, na + i] -= D[i] / M[i]
            assert np.array_equal(vt.assemble_state_space(net, params, ref_bus=ref).A, A)

    def test_structural_zeros(self, twelve_net, twelve_params):
        ss = vt.assemble_state_space(twelve_net, twelve_params, ref_bus=0)
        na = twelve_net.n - 1
        assert np.all(ss.B[:na, :] == 0)
        assert np.all(ss.C[:, :na] == 0)

    def test_nonpositive_inertia_rejected(self, two_bus):
        net, _ = two_bus
        params = vt.DeviceParams(
            m_hat=[0.0, 1.0], d_hat=[1.0, 1.0], m=[0.0, 0.0], d=[0.0, 0.0],
            m_lb=[0.0, 0.0], m_ub=[1.0, 1.0], d_lb=[0.0, 0.0], d_ub=[1.0, 1.0],
        )
        with pytest.raises(vt.ParameterError, match="inertia must be positive"):
            vt.assemble_state_space(net, params, ref_bus=0)

    def test_nonpositive_damping_rejected(self, two_bus):
        net, _ = two_bus
        params = vt.DeviceParams(
            m_hat=[1.0, 1.0], d_hat=[0.0, 1.0], m=[0.0, 0.0], d=[0.0, 0.0],
            m_lb=[0.0, 0.0], m_ub=[1.0, 1.0], d_lb=[0.0, 0.0], d_ub=[1.0, 1.0],
        )
        with pytest.raises(vt.ParameterError, match="damping must be positive"):
            vt.assemble_state_space(net, params, ref_bus=0)

    def test_bad_reference_index_rejected(self, two_bus):
        net, params = two_bus
        with pytest.raises(vt.ParameterError, match="ref_bus"):
            vt.assemble_state_space(net, params, ref_bus=2)

    def test_bad_eta_shape_rejected(self, two_bus):
        net, params = two_bus
        with pytest.raises(vt.ParameterError, match="eta"):
            vt.assemble_state_space(net, params, ref_bus=0, eta=np.ones(3))

    def test_single_machine_has_one_state(self):
        net, params = single_machine(m_hat=1.5, d_hat=0.8)
        ss = vt.assemble_state_space(net, params, ref_bus=0)
        assert ss.A.shape == (1, 1)
        assert ss.A[0, 0] == pytest.approx(-0.8 / 1.5)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_property_hurwitz_for_positive_damping(self, n_buses, seed):
        rng = np.random.default_rng(seed)
        spec = random_connected_spec(rng, n_buses, n_loads=0)
        net = vt.reduce_network(spec)
        n = net.n
        m_hat = np.array([b.m_hat for b in spec.buses])
        d_hat = np.array([b.d_hat for b in spec.buses])
        params = vt.DeviceParams(
            m_hat=m_hat, d_hat=d_hat,
            m=rng.random(n), d=rng.random(n),
            m_lb=np.zeros(n), m_ub=np.ones(n),
            d_lb=np.zeros(n), d_ub=np.ones(n),
        )
        ref = int(rng.integers(n))
        ss = vt.assemble_state_space(net, params, ref_bus=ref)
        assert np.max(np.linalg.eigvals(ss.A).real) < -1e-9


class TestDeviceParams:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(vt.ParameterError, match="lb <= ub"):
            vt.DeviceParams(
                m_hat=[1.0], d_hat=[1.0], m=[0.5], d=[0.0],
                m_lb=[1.0], m_ub=[0.5], d_lb=[0.0], d_ub=[1.0],
            )

    def test_decision_must_lie_in_box(self):
        with pytest.raises(vt.ParameterError, match="violates its box"):
            vt.DeviceParams(
                m_hat=[1.0], d_hat=[1.0], m=[2.0], d=[0.0],
                m_lb=[0.0], m_ub=[1.0], d_lb=[0.0], d_ub=[1.0],
            )

    def test_negative_lower_bound_rejected(self):
        with pytest.raises(vt.ParameterError, match="nonnegative"):
            vt.DeviceParams(
                m_hat=[1.0], d_hat=[1.0], m=[0.0], d=[0.0],
                m_lb=[-0.1], m_ub=[1.0], d_lb=[0.0], d_ub=[1.0],
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(vt.ParameterError, match="length"):
            vt.DeviceParams(
                m_hat=[1.0, 1.0], d_hat=[1.0], m=[0.0], d=[0.0],
                m_lb=[0.0], m_ub=[1.0], d_lb=[0.0], d_ub=[1.0],
            )

    def test_totals(self, twelve_params):
        assert np.allclose(
            twelve_params.m_total, twelve_params.m_hat + twelve_params.m
        )
        assert np.all(twelve_params.d_total > 0)
