import json

import numpy as np
import pytest

import vsmtune as vt
from vsmtune import bundled_network_path, load_network, parse_network, serialize_network


@pytest.fixture
def small_doc():
    return parse_network({
        "defaults": {"m_lb": 0.1, "m_ub": 2.0, "d_lb": 0.2, "d_ub": 3.0, "ref_bus": 2},
        "buses": [
            {"id": 1, "kind": "generator", "m_hat": 1.0, "d_hat": 0.5, "m_ub": 5.0},
            {"id": 2, "kind": "generator", "m_hat": 2.0, "d_hat": 0.7},
            {"id": 3, "kind": "load"},
        ],
        "lines": [
            {"from": 1, "to": 3, "b": 2.0},
            {"from": 3, "to": 2, "b": 2.0},
        ],
    })


class TestParse:
    def test_bundled_dataset_loads(self, twelve_doc):
        assert len(twelve_doc.spec.buses) == 12
        assert twelve_doc.spec.load_ids == (3, 7, 11)
        assert twelve_doc.ref_bus == 1

    def test_bundled_reduction_keeps_nine_generators(self, twelve_net):
        assert twelve_net.n == 9
        assert twelve_net.gen_ids == (1, 2, 4, 5, 6, 8, 9, 10, 12)

    def test_round_trip_is_identity(self, small_doc):
        again = parse_network(serialize_network(small_doc))
        assert again.spec == small_doc.spec
        assert again.defaults == small_doc.defaults
        assert again.bus_bounds == small_doc.bus_bounds
        assert again.ref_bus == small_doc.ref_bus

    def test_round_trip_bundled(self, twelve_doc):
        again = parse_network(serialize_network(twelve_doc))
        assert again.spec == twelve_doc.spec

    def test_round_trip_through_json_text(self, small_doc):
        text = json.dumps(serialize_network(small_doc))
        assert parse_network(json.loads(text)).spec == small_doc.spec

    def test_missing_key_reported(self):
        with pytest.raises(vt.ValidationError, match="missing required key 'kind'"):
            parse_network({"buses": [{"id": 1}], "lines": []})

    def test_unknown_bus_in_line_names_line(self):
        doc = {
            "buses": [
                {"id": 1, "kind": "generator", "m_hat": 1.0},
                {"id": 2, "kind": "generator", "m_hat": 1.0},
            ],
            "lines": [{"from": 1, "to": 7, "b": 1.0}],
        }
        with pytest.raises(vt.ValidationError, match=r"line \(1, 7\)"):
            parse_network(doc)

    def test_bad_ref_bus_rejected(self):
        doc = {
            "defaults": {"ref_bus": 3},
            "buses": [
                {"id": 1, "kind": "generator", "m_hat": 1.0},
                {"id": 2, "kind": "generator", "m_hat": 1.0},
            ],
            "lines": [{"from": 1, "to": 2, "b": 1.0}],
        }
        with pytest.raises(vt.ValidationError, match="ref_bus"):
            parse_network(doc)

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(vt.ValidationError, match="cannot read"):
            load_network(tmp_path / "nope.json")

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(vt.ValidationError, match="not valid JSON"):
            load_network(path)

    @pytest.mark.parametrize("content, message", [
        pytest.param(bytes(range(156, 256)), "cannot read network file", id="not-utf-8"),
        # Deeper than any interpreter's recursion limit, so json raises RecursionError.
        pytest.param(b"[" * 100_000, "not valid JSON", id="nested-too-deep"),
    ])
    def test_undecodable_file_reported(self, tmp_path, content, message):
        path = tmp_path / "network.json"
        path.write_bytes(content)
        with pytest.raises(vt.ValidationError, match=message) as info:
            load_network(path)
        assert str(path) in str(info.value)

    def test_bundled_path_exists(self):
        assert bundled_network_path().exists()


class TestDeviceParams:
    def test_per_bus_override_beats_defaults(self, small_doc):
        net = vt.reduce_network(small_doc.spec)
        params = vt.device_params(small_doc, net.gen_ids)
        i1 = net.index_of(1)
        i2 = net.index_of(2)
        assert params.m_ub[i1] == 5.0   # per-bus override
        assert params.m_ub[i2] == 2.0   # file default
        assert params.m_lb[i1] == 0.1

    def test_global_override_beats_everything(self, small_doc):
        net = vt.reduce_network(small_doc.spec)
        override = {"m_lb": 0.0, "m_ub": 9.0, "d_lb": 0.0, "d_ub": 9.0}
        params = vt.device_params(small_doc, net.gen_ids, override)
        assert np.all(params.m_ub == 9.0)
        assert np.all(params.d_ub == 9.0)

    def test_starts_at_box_midpoint(self, small_doc):
        net = vt.reduce_network(small_doc.spec)
        params = vt.device_params(small_doc, net.gen_ids)
        assert np.allclose(params.m, 0.5 * (params.m_lb + params.m_ub))
        assert np.allclose(params.d, 0.5 * (params.d_lb + params.d_ub))

    def test_fixed_coefficients_follow_reduced_order(self, twelve_doc, twelve_net):
        params = vt.device_params(twelve_doc, twelve_net.gen_ids)
        by_id = {b.id: b for b in twelve_doc.spec.buses}
        for i, gid in enumerate(twelve_net.gen_ids):
            assert params.m_hat[i] == by_id[gid].m_hat
            assert params.d_hat[i] == by_id[gid].d_hat


def _two_bus_doc():
    return {
        "defaults": {"m_ub": 2.0},
        "buses": [
            {"id": 1, "kind": "generator", "m_hat": 1.0, "d_hat": 0.5},
            {"id": 2, "kind": "generator", "m_hat": 1.0, "d_hat": 0.5},
        ],
        "lines": [{"from": 1, "to": 2, "b": 1.0}],
    }


class TestMalformedValues:
    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda d: d["buses"][0].update(id="abc"),
                     r"bus entry 0: 'id' must be an integer, got 'abc'", id="bus-id"),
        pytest.param(lambda d: d["buses"][1].update(id=2.5),
                     r"bus entry 1: 'id' must be an integer, got 2\.5", id="bus-id-fraction"),
        pytest.param(lambda d: d["buses"][1].update(m_hat="x"),
                     r"bus 2: 'm_hat' must be a number, got 'x'", id="bus-m_hat"),
        pytest.param(lambda d: d["buses"][0].update(m_ub="x"),
                     r"bus 1: 'm_ub' must be a number", id="bus-m_ub"),
        pytest.param(lambda d: d["lines"][0].update(b="x"),
                     r"line entry 0: 'b' must be a number", id="line-b"),
        pytest.param(lambda d: d["lines"][0].update({"from": "x"}),
                     r"line entry 0: 'from' must be an integer", id="line-from"),
        pytest.param(lambda d: d["defaults"].update(m_ub="x"),
                     r"defaults: 'm_ub' must be a number", id="defaults-m_ub"),
        pytest.param(lambda d: d["defaults"].update(ref_bus="x"),
                     r"defaults: 'ref_bus' must be an integer", id="defaults-ref_bus"),
        pytest.param(lambda d: d["buses"][0].update(m_hat=True),
                     r"bus 1: 'm_hat' must be a number, got True", id="bus-m_hat-bool"),
        pytest.param(lambda d: d["buses"][0].update(id=True),
                     r"bus entry 0: 'id' must be an integer, got True", id="bus-id-bool"),
        pytest.param(lambda d: d["lines"][0].update(b="6.0"),
                     r"line entry 0: 'b' must be a number, got '6\.0'", id="line-b-numeric-string"),
        pytest.param(lambda d: d["lines"][0].update(to="2"),
                     r"line entry 0: 'to' must be an integer, got '2'", id="line-to-numeric-string"),
        pytest.param(lambda d: d["defaults"].update(ref_bus=False),
                     r"defaults: 'ref_bus' must be an integer, got False", id="defaults-ref_bus-bool"),
        pytest.param(lambda d: d.update(buses=5),
                     r"'buses' must be a list, got 5", id="buses-not-list"),
        pytest.param(lambda d: d.update(lines=[3]),
                     r"line entry 0: must be a JSON object", id="line-not-object"),
        pytest.param(lambda d: d.update(defaults=[]),
                     r"'defaults' must be a JSON object", id="defaults-not-object"),
        pytest.param(lambda d: d["buses"][1].update(m_hat=float("inf")),
                     r"bus 2: 'm_hat' must be a finite number, got inf", id="bus-m_hat-inf"),
        pytest.param(lambda d: d["buses"][0].update(d_hat=float("nan")),
                     r"bus 1: 'd_hat' must be a finite number, got nan", id="bus-d_hat-nan"),
        pytest.param(lambda d: d["buses"][0].update(d_ub=float("-inf")),
                     r"bus 1: 'd_ub' must be a finite number, got -inf", id="bus-d_ub-neg-inf"),
        pytest.param(lambda d: d["lines"][0].update(b=float("inf")),
                     r"line entry 0: 'b' must be a finite number, got inf", id="line-b-inf"),
        pytest.param(lambda d: d["lines"][0].update(b=float("-inf")),
                     r"line entry 0: 'b' must be a finite number, got -inf", id="line-b-neg-inf"),
        pytest.param(lambda d: d["defaults"].update(m_lb=float("nan")),
                     r"defaults: 'm_lb' must be a finite number, got nan", id="defaults-m_lb-nan"),
        pytest.param(lambda d: d["defaults"].update(m_ub=float("inf")),
                     r"defaults: 'm_ub' must be a finite number, got inf", id="defaults-m_ub-inf"),
        pytest.param(lambda d: d["buses"].append({"id": 3, "kind": "load", "m_ub": 5.0}),
                     r"load bus 3 carries bounds \['m_ub'\]", id="load-bus-m_ub"),
        pytest.param(lambda d: d["buses"].append({"id": 3, "kind": "load", "d_lb": 0.0, "d_ub": 1.0}),
                     r"load bus 3 carries bounds \['d_lb', 'd_ub'\]", id="load-bus-d-bounds"),
    ])
    def test_names_entry_and_key(self, edit, message):
        doc = _two_bus_doc()
        parse_network(doc)
        edit(doc)
        with pytest.raises(vt.ValidationError, match=message):
            parse_network(doc)
