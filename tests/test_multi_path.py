import math

import pytest

from conftest import build_network, diamond, path_network
from qnetcap import (
    brute_multi_path_capacity,
    chain_capacity,
    cut_multi_edge_value,
    edge_capacity,
    erasure,
    is_connected,
    lossy,
    max_flow,
    multi_path_capacity,
    widest_path,
)


class TestMaxFlow:
    def test_diamond_doubling_with_idle_middle_edge(self):
        net = diamond()
        report = max_flow(net)
        assert report.value == pytest.approx(2.0, abs=1e-12)
        for eid in ("e1", "e2", "e4", "e5"):
            assert abs(report.effective_rates[eid]) == pytest.approx(1.0, abs=1e-12)
        assert report.effective_rates["e3"] == pytest.approx(0.0, abs=1e-12)
        assert "e3" not in report.orientation
        assert cut_multi_edge_value(net, report.min_cut) == pytest.approx(2.0, abs=1e-12)

    def test_path_graph_equals_chain(self):
        specs = [lossy(0.9), erasure(0.3), lossy(0.6)]
        net = path_network(specs)
        assert max_flow(net).value == pytest.approx(
            chain_capacity(specs).value, abs=1e-12
        )

    def test_single_edge_network(self):
        net = build_network(("a", "b"), [("e0", "a", "b", erasure(0.2, dim=4))])
        assert multi_path_capacity(net) == pytest.approx(1.6, abs=1e-12)

    def test_disconnected_returns_zero_flow(self):
        net = build_network(("a", "b", "c"), [("e0", "b", "c", lossy(0.5))])
        report = max_flow(net)
        assert report.value == 0.0
        assert all(rate == 0.0 for rate in report.effective_rates.values())
        assert report.orientation == {}
        assert report.min_cut.cut_set == ()
        assert multi_path_capacity(net) == 0.0

    def test_erasure_network_formula(self):
        # multi-path value is min over cuts of the summed (1 - p) weights
        net = build_network(
            ("a", "x", "y", "b"),
            [
                ("e1", "a", "x", erasure(0.1)),
                ("e2", "a", "y", erasure(0.4)),
                ("e3", "x", "y", erasure(0.2)),
                ("e4", "x", "b", erasure(0.3)),
                ("e5", "y", "b", erasure(0.25)),
            ],
        )
        p = {"e1": 0.1, "e2": 0.4, "e3": 0.2, "e4": 0.3, "e5": 0.25}
        cuts = {
            frozenset({"a"}): ["e1", "e2"],
            frozenset({"a", "x"}): ["e2", "e3", "e4"],
            frozenset({"a", "y"}): ["e1", "e3", "e5"],
            frozenset({"a", "x", "y"}): ["e4", "e5"],
        }
        expected = min(sum(1.0 - p[eid] for eid in cross) for cross in cuts.values())
        assert max_flow(net).value == pytest.approx(expected, abs=1e-9)

    def test_matches_oracle(self, network_suite):
        for net in network_suite[:120]:
            assert max_flow(net).value == pytest.approx(
                brute_multi_path_capacity(net), abs=1e-9
            )

    def test_flow_report_invariants(self, network_suite):
        for net in network_suite[:80]:
            report = max_flow(net)
            net_rate = {p: 0.0 for p in net.points}
            for edge in net.edges:
                rate = report.effective_rates[edge.edge_id]
                assert abs(rate) <= edge_capacity(net, edge.edge_id) + 1e-9
                net_rate[edge.u] += rate
                net_rate[edge.v] -= rate
            for point in net.points:
                if point == net.alice:
                    assert net_rate[point] == pytest.approx(report.value, abs=1e-9)
                elif point == net.bob:
                    assert net_rate[point] == pytest.approx(-report.value, abs=1e-9)
                else:
                    assert abs(net_rate[point]) < 1e-9
            assert cut_multi_edge_value(net, report.min_cut) == pytest.approx(
                report.value, abs=1e-9
            )

    def test_orientation_only_for_flowing_edges(self, network_suite):
        for net in network_suite[:40]:
            report = max_flow(net)
            for eid, rate in report.effective_rates.items():
                edge = net.edge(eid)
                if eid in report.orientation:
                    start, end = report.orientation[eid]
                    assert {start, end} == {edge.u, edge.v}
                    # alice is a pure source, bob a pure sink
                    assert end != net.alice and start != net.bob
                    assert (rate > 0) == ((start, end) == (edge.u, edge.v))
                else:
                    assert abs(rate) <= 1e-12

    def test_multi_path_at_least_single_path(self, network_suite):
        for net in network_suite[:120]:
            if is_connected(net):
                assert multi_path_capacity(net) >= widest_path(net).capacity - 1e-12


class TestLossyFormulas:
    def test_diamond_value_is_minus_two_log_loss(self):
        for eta in (0.2, 0.5, 0.77):
            net = diamond(eta)
            assert multi_path_capacity(net) == pytest.approx(
                -2.0 * math.log2(1.0 - eta), abs=1e-9
            )

    def test_network_loss_product_form(self):
        net = diamond(0.3)
        # min over cuts of summed capacities equals -log2(max cut loss product)
        from qnetcap import enumerate_cuts

        best = max(
            math.prod((1.0 - 0.3) for _ in rec.cut.cut_set)
            for rec in enumerate_cuts(net).cuts
        )
        assert multi_path_capacity(net) == pytest.approx(-math.log2(best), abs=1e-9)
