import itertools
import math
import random
from collections import Counter

import pytest

from conftest import build_network, diamond, path_network, random_connected_network, stdout_under_hash_seed
from qnetcap import (
    NoRoute,
    UnknownEdge,
    ValidationError,
    brute_single_path_capacity,
    chain_capacity,
    cut_single_edge_value,
    dephasing,
    edge_capacity,
    erasure,
    lossy,
    make_cut,
    max_flow,
    max_spanning_tree,
    min_single_edge_cut,
    multiband_lossy,
    tree_route_capacity,
    widest_path,
)
from qnetcap import multi_path


def lossy_for_bits(bits):
    """Lossy channel whose capacity is exactly `bits` for dyadic values."""
    return lossy(1.0 - 2.0 ** (-bits))


def grid(side, rng):
    """Points ``g<row>_<col>`` of a side x side grid and its random lossy spans."""
    points = [f"g{r}_{c}" for r in range(side) for c in range(side)]
    edges = []
    for r in range(side):
        for c in range(side):
            for r2, c2 in ((r + 1, c), (r, c + 1)):
                if r2 < side and c2 < side:
                    spec = lossy(rng.uniform(0.05, 0.95))
                    edges.append((f"e{len(edges)}", f"g{r}_{c}", f"g{r2}_{c2}", spec))
    return points, edges


def grid_behind_access_span(side, rng):
    """Grid with alice at one corner and bob behind a span weaker than any
    grid span at the opposite corner: every certifying cut holds the grid."""
    points, edges = grid(side, rng)
    access = ("access", f"g{side - 1}_{side - 1}", "b", lossy(0.01))
    return build_network(points + ["b"], edges + [access], alice="g0_0", bob="b")


def count_scans(net):
    """Make every scan of ``net.points`` or ``net.edges`` (iteration or ``in``)
    add the tuple's length to the returned counter, under ``"points"`` or
    ``"edges"``.  Building the network's index is one scan of each."""
    visits = Counter()

    def counting(name):
        class Counting(tuple):
            def __iter__(self):
                visits[name] += len(self)
                return tuple.__iter__(self)

            def __contains__(self, item):
                visits[name] += len(self)
                return tuple.__contains__(self, item)

        object.__setattr__(net, name, Counting(getattr(net, name)))

    counting("points")
    counting("edges")
    return visits


class TestWidestPath:
    def test_diamond_route_and_value(self):
        report = widest_path(diamond())
        assert report.capacity == 1.0
        # ties broken lexicographically: the two-hop route through p1
        assert report.route.point_sequence == ("a", "p1", "b")
        assert report.route.edge_sequence == ("e1", "e4")
        assert report.bottleneck_edge == "e1"
        assert report.dual_cut.side_a == ("a",)
        assert cut_single_edge_value(diamond(), report.dual_cut) == 1.0

    def test_path_graph_equals_chain(self):
        specs = [lossy(0.9), erasure(0.35), dephasing((0.85, 0.15)), lossy(0.6)]
        net = path_network(specs)
        report = widest_path(net)
        expected = chain_capacity(specs)
        assert report.capacity == expected.value
        assert report.route.point_sequence == ("a", "r1", "r2", "r3", "b")
        assert report.bottleneck_edge == f"e{expected.bottleneck_index}"

    def test_six_point_lossy_fixture_matches_oracle(self):
        rng = random.Random(6)
        net = random_connected_network(rng, min_points=6, max_points=6)
        brute = brute_single_path_capacity(net)
        report = widest_path(net)
        assert report.capacity == brute.route_value
        assert report.capacity == brute.cut_value

    def test_no_route(self):
        net = build_network(("a", "b", "c"), [("e0", "b", "c", lossy(0.5))])
        with pytest.raises(NoRoute):
            widest_path(net)
        with pytest.raises(NoRoute):
            min_single_edge_cut(net)

    def test_route_is_simple_and_bottleneck_recomputes(self, network_suite):
        for net in network_suite[:60]:
            report = widest_path(net)
            points = report.route.point_sequence
            assert points[0] == net.alice and points[-1] == net.bob
            assert len(set(points)) == len(points)
            caps = [edge_capacity(net, eid) for eid in report.route.edge_sequence]
            assert min(caps) == report.capacity
            assert edge_capacity(net, report.bottleneck_edge) == report.capacity
            for eid, (u, v) in zip(
                report.route.edge_sequence, zip(points, points[1:])
            ):
                edge = net.edge(eid)
                assert {edge.u, edge.v} == {u, v}

    def test_certificate_value_matches(self, network_suite):
        for net in network_suite[:60]:
            report = widest_path(net)
            assert cut_single_edge_value(net, report.dual_cut) == report.capacity

    def test_dijkstra_tree_split_trap(self):
        # A heavy non-tree edge crossing the naive search-tree split: the
        # reported cut must still be a true minimum single-edge cut.
        net = build_network(
            ("a", "b", "u", "v"),
            [
                ("e1", "a", "b", lossy_for_bits(5)),
                ("e2", "a", "u", lossy_for_bits(1)),
                ("e3", "u", "v", lossy_for_bits(7)),
                ("e4", "b", "v", lossy_for_bits(1)),
            ],
        )
        report = widest_path(net)
        assert report.capacity == 5.0
        assert cut_single_edge_value(net, report.dual_cut) == 5.0
        assert brute_single_path_capacity(net).cut_value == 5.0

    @pytest.mark.parametrize(
        "bundle, kept",
        [({"e2": 2, "e3": 3, "e4": 2}, "e3"), ({"e2": 2, "e3": 2, "e4": 2}, "e2")],
        ids=["wider", "equal"],
    )
    def test_parallel_edges_of_equal_reach_keep_the_wider_then_the_smaller_id(self, bundle, kept):
        # Every x-b edge is wider than x's width of 1 bit, so each reaches b
        # at 1 bit; the route keeps the widest, then the smallest id, in
        # whatever order the bundle is declared.
        for order in itertools.permutations(bundle):
            net = build_network(
                ("a", "x", "b"),
                [("e1", "a", "x", lossy_for_bits(1))]
                + [(eid, "x", "b", lossy_for_bits(bundle[eid])) for eid in order],
            )
            report = widest_path(net)
            assert (report.capacity, report.bottleneck_edge) == (1.0, "e1")
            assert report.route.edge_sequence == ("e1", kept)

    def test_monotone_under_capacity_raise(self, network_suite):
        boost = multiband_lossy(0.99, 64)  # dominates every generated capacity
        for net in network_suite[:20]:
            base = widest_path(net).capacity
            for edge in net.edges:
                raised = build_network(
                    net.points,
                    [
                        (e.edge_id, e.u, e.v, boost if e.edge_id == edge.edge_id else e.channel)
                        for e in net.edges
                    ],
                    alice=net.alice,
                    bob=net.bob,
                )
                assert widest_path(raised).capacity >= base


class TestLinearWork:
    @pytest.mark.parametrize("side", [30, 95])  # 900 and 9,025 grid points
    def test_certificates_scan_the_network_a_bounded_number_of_times(self, side):
        net = grid_behind_access_span(side, random.Random(side))
        tree = max_spanning_tree(net)
        visits = count_scans(net)
        wide = widest_path(net)
        assert len(wide.dual_cut.side_a) == side * side
        assert tree_route_capacity(net, tree).capacity == wide.capacity
        # A few passes each; one scan per point or edge lookup, as in a
        # quadratic layer, visits about |P| * |E| elements.
        assert visits.total() <= 10 * (len(net.points) + len(net.edges))

    @pytest.mark.parametrize("side", [30, 95])
    def test_max_flow_scans_the_network_a_bounded_number_of_times(self, side):
        net = grid_behind_access_span(side, random.Random(side))
        visits = count_scans(net)
        flow = max_flow(net)
        assert flow.min_cut.cut_set == ("access",)
        assert flow.value == widest_path(net).capacity
        assert visits.total() <= 10 * (len(net.points) + len(net.edges))

    @pytest.mark.parametrize("side", [30, 95])
    def test_max_flow_stops_once_bob_is_cut_off(self, monkeypatch, side):
        # The first path saturates the access span, bob's only in-arc: no
        # search for a path that cannot exist runs, in that phase or after.
        arcs = []
        blocking_flow = multi_path._blocking_flow

        def counted(*args):
            arcs.append(blocking_flow(*args))
            return arcs[-1]

        monkeypatch.setattr(multi_path, "_blocking_flow", counted)
        net = grid_behind_access_span(side, random.Random(side))
        flow = max_flow(net)
        assert len(arcs) == 1 and arcs[0] >= 0
        assert flow.min_cut.cut_set == ("access",)
        assert flow.value == edge_capacity(net, "access")

    @pytest.mark.parametrize("side", [30, 95])
    def test_solvers_and_cuts_share_one_index(self, side):
        net = grid_behind_access_span(side, random.Random(side))
        visits = count_scans(net)
        wide = widest_path(net)
        # The first call evaluates the capacities and builds the index.
        assert visits["points"] <= len(net.points)
        assert visits["edges"] <= 2 * len(net.edges)
        for solve in (
            lambda: widest_path(net),
            lambda: tree_route_capacity(net, max_spanning_tree(net)),
            lambda: max_flow(net),
            lambda: make_cut(net, wide.dual_cut.side_a),
        ):
            visits.clear()
            solve()
            assert visits["points"] <= len(net.points)
            assert visits["edges"] <= len(net.edges)


class TestMinSingleEdgeCut:
    def test_diamond_cut_value(self):
        net = diamond()
        cut = min_single_edge_cut(net)
        assert cut_single_edge_value(net, cut) == 1.0

    def test_path_graph_cut_crosses_bottleneck(self):
        specs = [lossy(0.9), lossy(0.2), lossy(0.6)]
        net = path_network(specs)
        cut = min_single_edge_cut(net)
        assert "e1" in cut.cut_set
        assert cut_single_edge_value(net, cut) == edge_capacity(net, "e1")

    def test_matches_oracle_on_small_networks(self, network_suite):
        for net in network_suite[:60]:
            cut = min_single_edge_cut(net)
            assert cut_single_edge_value(net, cut) == brute_single_path_capacity(net).cut_value


class TestSpanningTree:
    def test_diamond_all_equal_any_tree_gives_one_bit(self):
        net = diamond()
        tree = max_spanning_tree(net)
        assert len(tree) == 3
        assert tree_route_capacity(net, tree).capacity == 1.0

    def test_unique_heaviest_route_recovered(self):
        net = build_network(
            ("a", "b", "x", "y"),
            [
                ("e1", "a", "x", lossy_for_bits(4)),
                ("e2", "x", "b", lossy_for_bits(3)),
                ("e3", "a", "y", lossy_for_bits(2)),
                ("e4", "y", "b", lossy_for_bits(1)),
                ("e5", "a", "b", lossy_for_bits(0.5)),
            ],
        )
        tree = max_spanning_tree(net)
        report = tree_route_capacity(net, tree)
        wide = widest_path(net)
        assert report.route == wide.route
        assert report.capacity == wide.capacity == 3.0
        assert brute_single_path_capacity(net).route_value == 3.0

    def test_cross_algorithm_capacity_equality(self, network_suite):
        for net in network_suite[:80]:
            tree = max_spanning_tree(net)
            assert tree_route_capacity(net, tree).capacity == widest_path(net).capacity

    def test_tree_certificate_value(self, network_suite):
        for net in network_suite[:40]:
            report = tree_route_capacity(net, max_spanning_tree(net))
            assert cut_single_edge_value(net, report.dual_cut) == report.capacity

    def test_no_route(self):
        net = build_network(("a", "b", "c"), [("e0", "a", "c", lossy(0.5))])
        with pytest.raises(NoRoute):
            max_spanning_tree(net)

    def test_unknown_tree_edge(self):
        with pytest.raises(UnknownEdge):
            tree_route_capacity(diamond(), {"e1", "nope"})

    def test_unhashable_tree_edge(self):
        # An unhashable id is unknown too; the smallest unknown id by repr is named.
        with pytest.raises(UnknownEdge) as err:
            tree_route_capacity(diamond(), ["e1", ["e2"], "zz"])
        assert err.value.args == ("zz",)

    @pytest.mark.parametrize("seed", ["1", "2", "3", "4"])
    def test_unknown_tree_edge_named_alike_under_every_hash_seed(self, seed):
        # Several unknown ids in a set: the one named is the smallest by
        # repr, not the first that the set happens to yield.
        code = (
            "from qnetcap import Edge, QNetwork, lossy, tree_route_capacity\n"
            "net = QNetwork(('a', 'b'), (Edge('e', 'a', 'b', lossy(0.5)),), 'a', 'b')\n"
            "try:\n"
            "    tree_route_capacity(net, {'e', 'x1', 'x2', 'x3', 'x4'})\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        assert stdout_under_hash_seed(code, seed) == "UnknownEdge 'x1'\n"

    def test_tree_given_as_a_bare_string_is_rejected(self):
        # Iterated, the string "e1" would read as the edge ids "e" and "1".
        with pytest.raises(ValidationError, match="tree 'e1' is a string"):
            tree_route_capacity(diamond(), "e1")

    def test_cycle_is_rejected_naming_the_closing_edge(self):
        # The search reaches p1 over e1 and p2 over e2, then meets p1 again
        # from p2 over e3.
        with pytest.raises(ValidationError, match="not a forest: edge 'e3'"):
            tree_route_capacity(diamond(), {"e1", "e2", "e3", "e4", "e5"})

    def test_parallel_twins_are_rejected(self):
        # Without the check the twins would go unnoticed: the bottleneck is
        # e3, so splitting the tree there still separates alice from bob.
        net = build_network(
            ("a", "x", "b"),
            [
                ("e1", "a", "x", lossy_for_bits(3)),
                ("e2", "a", "x", lossy_for_bits(2)),
                ("e3", "x", "b", lossy_for_bits(1)),
            ],
        )
        with pytest.raises(ValidationError, match="not a forest: edge 'e2'"):
            tree_route_capacity(net, {"e1", "e2", "e3"})

    def test_tree_that_is_not_maximum_is_rejected(self):
        # The a-b edge alone is a spanning tree of this triangle, but its
        # route (1 bit) is narrower than a-x-b (2 bits): its threshold cut
        # {a} is crossed by e1 at 2 bits and certifies nothing.
        net = build_network(
            ("a", "x", "b"),
            [
                ("e1", "a", "x", lossy_for_bits(2)),
                ("e2", "x", "b", lossy_for_bits(3)),
                ("e3", "a", "b", lossy_for_bits(1)),
            ],
        )
        with pytest.raises(ValidationError, match="tree is not a maximum spanning forest: edge 'e1'"):
            tree_route_capacity(net, {"e3"})
        assert tree_route_capacity(net, max_spanning_tree(net)).capacity == 2.0


class TestDuality:
    def test_exact_equality_widest_vs_cut(self, network_suite):
        for net in network_suite[:120]:
            assert widest_path(net).capacity == cut_single_edge_value(
                net, min_single_edge_cut(net)
            )

    def test_triangle_with_shortcut(self):
        net = build_network(
            ("a", "x", "b"),
            [
                ("e1", "a", "x", lossy_for_bits(2)),
                ("e2", "x", "b", lossy_for_bits(3)),
                ("e3", "a", "b", lossy_for_bits(1)),
            ],
        )
        report = widest_path(net)
        assert report.capacity == 2.0
        assert report.route.point_sequence == ("a", "x", "b")
        assert math.isclose(
            cut_single_edge_value(net, min_single_edge_cut(net)), 2.0, abs_tol=0
        )
