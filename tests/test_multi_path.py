import math
import random

import pytest

from conftest import (
    build_network,
    check_exact_flow,
    diamond,
    enumerate_cuts,
    path_network,
    random_connected_network,
    weak_detour,
)
from qnetcap import (
    brute_multi_path_capacity,
    chain_capacity,
    cut_multi_edge_value,
    edge_capacity,
    erasure,
    is_connected,
    lossy,
    make_cut,
    max_flow,
    multi_path_capacity,
    multiband_lossy,
    widest_path,
)
from qnetcap import multi_path
from qnetcap.errors import ValidationError


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

    def test_disconnected_min_cut_sums_to_float_zero(self):
        net = build_network(("a", "x", "b"), [("e0", "a", "x", lossy(0.5))])
        report = max_flow(net)
        assert repr(cut_multi_edge_value(net, report.min_cut)) == repr(report.value) == "0.0"

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
            assert max_flow(net).value == brute_multi_path_capacity(net)

    def test_flow_report_invariants(self, network_suite):
        for net in network_suite[:80]:
            report = max_flow(net)
            check_exact_flow(net, report)
            assert cut_multi_edge_value(net, report.min_cut) == report.value

    def test_orientation_only_for_flowing_edges(self, network_suite):
        # 100-200 dB networks too: their real rates, ~1e-20, lie below any
        # absolute threshold.
        rng = random.Random(7)
        weak = [
            random_connected_network(rng, channel=lambda r: lossy(10.0 ** -r.uniform(10, 20)))
            for _ in range(20)
        ]
        for net in network_suite[:40] + weak:
            report = max_flow(net)
            for eid, rate in report.effective_rates.items():
                edge = net.edge(eid)
                if eid in report.orientation:
                    start, end = report.orientation[eid]
                    assert {start, end} == {edge.u, edge.v}
                    # alice is a pure source, bob a pure sink
                    assert end != net.alice and start != net.bob
                    assert (rate > 0) == ((start, end) == (edge.u, edge.v))
                assert (rate != 0.0) == (eid in report.orientation)

    @pytest.mark.parametrize("eta", [1e-13, 1e-16, 1e-20])
    def test_weak_channels_carry_flow(self, eta):
        # 130-200 dB links: every capacity lies below 1e-12, and all of it
        # is flow.
        chain = path_network([lossy(eta), lossy(eta)])
        assert max_flow(chain).value == widest_path(chain).capacity > 0.0
        assert max_flow(chain).value == brute_multi_path_capacity(chain)
        net = diamond(eta)
        report = max_flow(net)
        assert report.value == brute_multi_path_capacity(net) == 2.0 * edge_capacity(net, "e1")
        assert set(report.orientation) == {"e1", "e2", "e4", "e5"}

    @pytest.mark.parametrize("eta", [10**-11.5, 1e-16, 1e-20])
    def test_weak_channel_next_to_strong_one_carries_flow(self, eta):
        # A 6.6-bit link in series with a 115-200 dB one: the weak link
        # saturates at int 0, however small next to the strong one.
        chain = path_network([lossy(0.99), lossy(eta)])
        report = max_flow(chain)
        assert report.value == widest_path(chain).capacity == edge_capacity(chain, "e1") > 0.0
        assert cut_multi_edge_value(chain, report.min_cut) == report.value
        assert report.min_cut.cut_set == ("e1",)
        assert set(report.orientation) == {"e0", "e1"}

    def test_weak_detour_beside_strong_link_is_oriented(self):
        # The detour's ~1.4e-16-bit flow is 1e-16 of the value, yet it is
        # flow: its first hop is a saturated edge of the min cut.
        net = weak_detour()
        report = max_flow(net)
        assert report.min_cut.cut_set == ("e0", "e1")
        assert report.effective_rates["e1"] == report.effective_rates["e2"] == edge_capacity(net, "e1")
        assert report.orientation == {"e0": ("a", "b"), "e1": ("a", "p"), "e2": ("p", "b")}
        check_exact_flow(net, report)

    def test_multi_path_at_least_single_path(self, network_suite):
        for net in network_suite[:120]:
            if is_connected(net):
                assert multi_path_capacity(net) >= widest_path(net).capacity


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
        best = max(
            math.prod((1.0 - 0.3) for _ in rec.cut.cut_set)
            for rec in enumerate_cuts(net)
        )
        assert multi_path_capacity(net) == pytest.approx(-math.log2(best), abs=1e-9)


def parallel_pairs(bands_x, bands_b):
    """a-x and x-b, each twice in parallel: multiband_lossy(0.5, bands) has
    capacity ``bands`` bits, so a cut crossing one pair sums to twice it."""
    return build_network(
        ("a", "x", "b"),
        [
            ("e0", "a", "x", multiband_lossy(0.5, bands_x)),
            ("e1", "a", "x", multiband_lossy(0.5, bands_x)),
            ("e2", "x", "b", multiband_lossy(0.5, bands_b)),
            ("e3", "x", "b", multiband_lossy(0.5, bands_b)),
        ],
    )


def wide_span_channel(rng):
    """A channel of about 1.4e-300 to 1e300 bits."""
    k = rng.randint(1, 300)
    return lossy(10.0**-k) if rng.random() < 0.5 else multiband_lossy(0.5, 10**k)


class TestFloatRange:
    def test_exact_across_capacities_spanning_600_orders_of_magnitude(self, monkeypatch):
        # Dinic's counts are combinatorial: each augmentation leaves an arc
        # of the level graph at int 0, so a phase takes at most |E| of them,
        # and at most |P| - 1 phases reach bob.
        arcs = []
        blocking_flow = multi_path._blocking_flow

        def counted(*args):
            arcs.append(blocking_flow(*args))
            return arcs[-1]

        monkeypatch.setattr(multi_path, "_blocking_flow", counted)
        rng = random.Random(20261019)
        for _ in range(300):
            net = random_connected_network(rng, 3, 9, channel=wide_span_channel)
            arcs.clear()
            report = max_flow(net)
            # A call that pushes returns the arc it used into bob, else -1.
            assert sum(arc >= 0 for arc in arcs) <= (len(net.points) - 1) * len(net.edges)
            assert cut_multi_edge_value(net, report.min_cut) == report.value
            assert report.value == brute_multi_path_capacity(net)
            check_exact_flow(net, report)

    def test_every_cut_past_float_range_is_rejected(self):
        net = parallel_pairs(10**308, 10**308)  # every cut sums to 2e308
        for solve in (max_flow, multi_path_capacity, brute_multi_path_capacity):
            with pytest.raises(ValidationError, match="beyond float range"):
                solve(net)
        assert widest_path(net).capacity == 1e308  # a maximum, not a sum

    def test_one_cut_past_float_range_is_rejected(self):
        message = "multi-edge cut value is beyond float range"
        net = parallel_pairs(10**308, 10**308)
        with pytest.raises(ValidationError, match=message):
            cut_multi_edge_value(net, make_cut(net, ["a"]))
        # Cut {a} sums to 2e308, but cut {a, x} to 2e306.
        net = parallel_pairs(10**308, 10**306)
        assert cut_multi_edge_value(net, make_cut(net, ["a", "x"])) == 2e306
        with pytest.raises(ValidationError, match=message):
            cut_multi_edge_value(net, make_cut(net, ["a"]))

    def test_finite_minimum_with_a_total_past_float_range(self):
        # The edges total 2e308 + 2e306, but cut {a, x} sums to 2e306.
        net = parallel_pairs(10**308, 10**306)
        assert max_flow(net).value == 2e306
        assert brute_multi_path_capacity(net) == 2e306
