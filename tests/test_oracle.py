import math
import random

import pytest

from conftest import build_network, diamond, enumerate_cuts, path_network, random_connected_network
from qnetcap import (
    Edge,
    NoRoute,
    QNetwork,
    Route,
    TooLarge,
    amplifier,
    brute_multi_path_capacity,
    brute_single_path_capacity,
    cut_multi_edge_value,
    cut_single_edge_value,
    dephasing,
    erasure,
    lossy,
    make_cut,
    max_flow,
    multiband_lossy,
    oracle,
)


def lossy_for_bits(bits):
    return lossy(1.0 - 2.0 ** (-bits))


def enumerate_simple_routes(net):
    """All simple alice-bob routes, in lexicographic depth-first order over
    each point's sorted ``(neighbour, edge id)`` pairs; parallel edges give
    distinct routes.  The plain enumeration, with its own adjacency."""
    adj = {point: [] for point in net.points}
    for e in net.edges:
        adj[e.u].append((e.v, e.edge_id))
        adj[e.v].append((e.u, e.edge_id))
    for pairs in adj.values():
        pairs.sort()
    routes = []

    def descend(points, edges):
        for other, eid in adj[points[-1]]:
            if other == net.bob:
                routes.append(Route(points + (other,), edges + (eid,)))
            elif other not in points:
                descend(points + (other,), edges + (eid,))

    descend((net.alice,), ())
    return routes


def naive_multi(net):
    """The plain enumeration: the smallest crossing set's correctly rounded sum."""
    return min(rec.multi_edge_value for rec in enumerate_cuts(net))


def three_point(p1, p2, p3):
    """a-b at 0 bits, a-x at 1 - p1 and x-b twice, at 1 - p2 and 1 - p3:
    cut {a} sums to 1 - p1 and cut {a, x} to (1 - p2) + (1 - p3)."""
    return build_network(
        ("a", "x", "b"),
        [
            ("e0", "a", "b", erasure(1.0)),
            ("e1", "a", "x", erasure(p1)),
            ("e2", "x", "b", erasure(p2)),
            ("e3", "x", "b", erasure(p3)),
        ],
    )


def complete_network(n_points, spec):
    names = ["a", "b"] + [f"p{i}" for i in range(n_points - 2)]
    edges = [
        (f"e{i}{j}", names[i], names[j], spec)
        for i in range(n_points)
        for j in range(i + 1, n_points)
    ]
    return build_network(names, edges)


#: Networks with near ties: two cuts whose sums are one ulp apart (the
#: first or the second one smaller; in the 4-point one, cuts {a, p1} at
#: 1.4000000000000001 and {a, p0, p1} at 1.4, which edge-order float sums
#: rank the other way round), zero capacities, a 200 dB link beside
#: multiband ones, disconnected pairs and a 12-point network where every
#: edge is equally wide.
CRAFTED = {
    "ulp-first-smaller": three_point(0.05, 0.1, 0.95),
    "ulp-second-smaller": three_point(0.1, 0.3, 0.8),
    "ulp-4-points": build_network(
        ("a", "b", "p0", "p1"),
        [
            (f"e{i}", u, v, erasure(p))
            for i, (u, v, p) in enumerate(
                [
                    ("a", "b", 0.6),
                    ("a", "p0", 0.7),
                    ("a", "p1", 0.8),
                    ("b", "p0", 0.3),
                    ("b", "p1", 0.7),
                    ("p0", "p1", 0.6),
                    ("a", "p1", 0.1),
                ]
            )
        ],
    ),
    "all-zero": build_network(
        ("a", "x", "b"),
        [("e0", "a", "x", erasure(1.0)), ("e1", "x", "b", erasure(1.0))],
    ),
    "200dB-beside-multiband": build_network(
        ("a", "x", "y", "b"),
        [
            ("e0", "a", "b", lossy(1e-20)),
            ("e1", "a", "x", multiband_lossy(0.5, 4)),
            ("e2", "x", "y", lossy(1e-20)),
            ("e3", "x", "b", multiband_lossy(0.5, 4)),
            ("e4", "y", "b", multiband_lossy(0.9, 3)),
            ("e5", "a", "y", lossy(1e-20)),
        ],
    ),
    "disconnected": build_network(("a", "b", "c"), [("e0", "a", "c", lossy(0.5))]),
    "no-edges": build_network(("a", "x", "b"), []),
    "12-points-all-equal": complete_network(12, erasure(0.5)),
}


class TestEnumerateRoutes:
    def test_diamond_has_four_routes(self):
        routes = enumerate_simple_routes(diamond())
        assert len(routes) == 4
        assert {r.point_sequence for r in routes} == {
            ("a", "p1", "b"),
            ("a", "p2", "b"),
            ("a", "p1", "p2", "b"),
            ("a", "p2", "p1", "b"),
        }

    def test_path_graph_single_route(self):
        routes = enumerate_simple_routes(path_network([lossy(0.5)] * 3))
        assert len(routes) == 1

    def test_k4_has_five_routes(self):
        points = ("a", "b", "x", "y")
        pairs = [("a", "b"), ("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"), ("x", "y")]
        net = build_network(
            points, [(f"e{i}", u, v, lossy(0.5)) for i, (u, v) in enumerate(pairs)]
        )
        assert len(enumerate_simple_routes(net)) == 5

    def test_deterministic_lexicographic_order(self):
        routes = enumerate_simple_routes(diamond())
        assert [r.point_sequence for r in routes] == [
            ("a", "p1", "b"),
            ("a", "p1", "p2", "b"),
            ("a", "p2", "b"),
            ("a", "p2", "p1", "b"),
        ]

    def test_parallel_edges_give_distinct_routes(self):
        net = build_network(
            ("a", "b"),
            [("e1", "a", "b", lossy(0.5)), ("e2", "a", "b", lossy(0.25))],
        )
        routes = enumerate_simple_routes(net)
        assert len(routes) == 2
        assert {r.edge_sequence for r in routes} == {("e1",), ("e2",)}

    def test_routes_are_unique_and_simple(self, network_suite):
        for net in network_suite[:30]:
            routes = enumerate_simple_routes(net)
            assert len({r.edge_sequence for r in routes}) == len(routes)
            for route in routes:
                assert len(set(route.point_sequence)) == len(route.point_sequence)


class TestEnumerateCuts:
    def test_count_is_two_to_interior(self):
        net = diamond()
        assert len(enumerate_cuts(net)) == 2 ** (len(net.points) - 2)

    def test_records_are_a_tuple_in_bipartition_order(self):
        # Record m puts the k-th interior point on alice's side iff bit k
        # of m is set.
        net = diamond()
        interior = [p for p in net.points if p not in (net.alice, net.bob)]
        records = enumerate_cuts(net)
        assert type(records) is tuple
        assert [set(rec.cut.side_a) for rec in records] == [
            {net.alice, *(p for k, p in enumerate(interior) if m >> k & 1)}
            for m in range(2 ** len(interior))
        ]

    def test_diamond_cut_values(self):
        by_side = {
            rec.cut.side_a: rec for rec in enumerate_cuts(diamond())
        }
        assert by_side[("a",)].multi_edge_value == pytest.approx(2.0, abs=1e-12)
        assert by_side[("a",)].single_edge_value == 1.0
        assert by_side[("a", "p1")].multi_edge_value == pytest.approx(3.0, abs=1e-12)


class TestBruteSinglePath:
    def test_diamond(self):
        result = brute_single_path_capacity(diamond())
        assert result.route_value == 1.0
        assert result.cut_value == 1.0

    def test_triangle_with_shortcut_hand_enumeration(self):
        net = build_network(
            ("a", "x", "b"),
            [
                ("e1", "a", "x", lossy_for_bits(2)),
                ("e2", "x", "b", lossy_for_bits(3)),
                ("e3", "a", "b", lossy_for_bits(1)),
            ],
        )
        result = brute_single_path_capacity(net)
        assert result.route_value == 2.0
        assert result.best_route.point_sequence == ("a", "x", "b")
        assert result.cut_value == 2.0

    def test_disconnected_raises_no_route(self):
        net = build_network(("a", "b", "c"), [("e0", "a", "c", lossy(0.5))])
        with pytest.raises(NoRoute):
            brute_single_path_capacity(net)

    def test_internal_duality_route_max_equals_cut_min(self, network_suite):
        for net in network_suite[:150]:
            result = brute_single_path_capacity(net)
            assert result.route_value == result.cut_value


class TestBruteMultiPath:
    def test_diamond_doubling(self):
        assert brute_multi_path_capacity(diamond()) == pytest.approx(2.0, abs=1e-12)

    def test_path_graph_equals_bottleneck(self):
        specs = [lossy(0.9), lossy(0.4), lossy(0.7)]
        net = path_network(specs)
        from qnetcap import chain_capacity

        assert brute_multi_path_capacity(net) == pytest.approx(
            chain_capacity(specs).value, abs=1e-12
        )

    def test_disconnected_is_zero(self):
        net = build_network(("a", "b", "c"), [("e0", "a", "c", lossy(0.5))])
        assert brute_multi_path_capacity(net) == 0.0

    def test_empty_crossing_set_is_float_zero(self):
        net = CRAFTED["disconnected"]
        assert repr(brute_multi_path_capacity(net)) == "0.0"
        empty = [rec for rec in enumerate_cuts(net) if not rec.cut.cut_set]
        assert empty and all(repr(rec.multi_edge_value) == "0.0" for rec in empty)

    @pytest.mark.parametrize("name", ["ulp-first-smaller", "ulp-second-smaller", "ulp-4-points"])
    def test_ulp_networks_hold_two_cuts_one_ulp_apart(self, name):
        values = sorted(rec.multi_edge_value for rec in enumerate_cuts(CRAFTED[name]))
        assert math.nextafter(values[0], math.inf) == values[1]

    @pytest.mark.parametrize("name", CRAFTED)
    def test_crafted_networks_match_the_naive_minimum(self, name):
        net = CRAFTED[name]
        assert repr(brute_multi_path_capacity(net)) == repr(naive_multi(net))

    def test_capacities_near_float_max_sum_every_bipartition(self):
        # Capacities near float max: the scaled ints and their doubled
        # totals run far past float range, and only the minimum comes back.
        net = build_network(
            ("a", "x", "b"),
            [
                ("e0", "a", "x", multiband_lossy(0.5, 10**308)),
                ("e1", "x", "b", multiband_lossy(0.5, 10**308)),
                ("e2", "a", "b", multiband_lossy(0.75, 10**307)),
            ],
        )
        assert repr(brute_multi_path_capacity(net)) == repr(naive_multi(net))


class TestSizeCap:
    def _big_network(self, n_points):
        names = ["a", "b"] + [f"p{i}" for i in range(n_points - 2)]
        edges = [
            (f"e{i}", names[i], names[i + 1], lossy(0.5))
            for i in range(len(names) - 1)
        ]
        return build_network(names, edges)

    def test_cap_boundary(self):
        net12 = self._big_network(12)
        assert brute_single_path_capacity(net12).route_value == 1.0

    def test_too_large(self):
        net13 = self._big_network(13)
        with pytest.raises(TooLarge):
            brute_single_path_capacity(net13)
        with pytest.raises(TooLarge):
            brute_multi_path_capacity(net13)


ERASURE_LEVELS = tuple(erasure(p) for p in (0.0, 0.5, 0.75))

#: Seven kinds of capacity whose sums are inexact, so that cuts with equal
#: real sums can round differently when summed in different orders.
MIXED_LEVELS = (
    lossy(0.5),
    lossy(0.9),
    erasure(0.25),
    erasure(0.5, dim=3),
    amplifier(2.0),
    multiband_lossy(0.3, 3),
    dephasing((0.7, 0.3)),
)


def tie_heavy_networks(count, levels=ERASURE_LEVELS, sizes=(2, 3)):
    """8-12 point networks whose capacities take a few of ``levels`` (by
    default two or three of 1, 1/2 and 1/4 bit), so that many routes and
    cuts tie: equal widths sit at many bits of the oracle's
    ascending-capacity masks."""
    rng = random.Random(20261019)
    networks = []
    for _ in range(count):
        values = rng.sample(levels, rng.choice(sizes))
        networks.append(random_connected_network(rng, 8, 12, channel=lambda r: r.choice(values)))
    return networks


@pytest.fixture(scope="module")
def referee_networks(network_suite):
    """The seeded suite, 12-point networks, tie-heavy networks and, last, a
    12-point network with every edge of equal capacity, so that every route
    and cut ties."""
    rng = random.Random(20261018)
    large = [random_connected_network(rng, 12, 12) for _ in range(20)]
    base = large[0]
    flat = QNetwork(
        base.points,
        tuple(Edge(e.edge_id, e.u, e.v, lossy(0.5)) for e in base.edges),
        base.alice,
        base.bob,
    )
    return network_suite + large + tie_heavy_networks(30) + [flat]


class TestAgainstNaiveReferences:
    """The brute functions against the plain enumerations they stand for."""

    def test_widest_route_is_the_first_widest_enumerated_route(self, referee_networks):
        for net in referee_networks:
            caps = net.capacities
            routes = enumerate_simple_routes(net)
            widths = [min(caps[eid] for eid in r.edge_sequence) for r in routes]
            result = brute_single_path_capacity(net)
            assert result.route_value == max(widths)
            assert result.best_route == routes[widths.index(max(widths))]

    def test_cut_side_is_the_first_strict_minimum_over_enumerated_cuts(self, referee_networks):
        for net in referee_networks:
            records = enumerate_cuts(net)
            singles = [rec.single_edge_value for rec in records]
            result = brute_single_path_capacity(net)
            assert result.cut_value == min(singles)
            assert result.min_cut == records[singles.index(min(singles))].cut
            assert brute_multi_path_capacity(net) == min(rec.multi_edge_value for rec in records)

    def test_multi_path_value_is_the_naive_minimum_bit_for_bit(self, referee_networks):
        for net in referee_networks:
            assert repr(brute_multi_path_capacity(net)) == repr(naive_multi(net))

    def test_flow_equals_the_oracle_on_mixed_kind_ties(self):
        # An edge-order sum read 1 ulp above the oracle on draws 180, 246
        # and 476, where two minimum cuts' equal real sums rounded apart.
        for net in tie_heavy_networks(500, MIXED_LEVELS, (1, 2, 3)):
            report = max_flow(net)
            value = repr(report.value)
            assert value == repr(cut_multi_edge_value(net, report.min_cut))
            assert value == repr(brute_multi_path_capacity(net))

    def test_enumerated_cuts_match_make_cut(self, referee_networks):
        for net in referee_networks:
            for rec in enumerate_cuts(net):
                cut = make_cut(net, rec.cut.side_a)
                assert rec.cut == cut
                assert rec.single_edge_value == cut_single_edge_value(net, cut)
                assert rec.multi_edge_value == cut_multi_edge_value(net, cut)

    def test_all_equal_capacities_pick_the_first_route_and_cut(self, referee_networks):
        flat = referee_networks[-1]
        result = brute_single_path_capacity(flat)
        assert result.best_route == enumerate_simple_routes(flat)[0]
        assert result.min_cut == make_cut(flat, [flat.alice])


class TestOracleWork:
    """Cut values come from edge masks; only the single-path winner is a Cut."""

    @pytest.fixture
    def make_cut_calls(self, monkeypatch):
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return make_cut(*args)

        monkeypatch.setattr(oracle, "make_cut", counting)
        return calls

    def test_make_cut_calls(self, make_cut_calls):
        net = random_connected_network(random.Random(12), 12, 12)
        brute_multi_path_capacity(net)
        assert make_cut_calls[0] == 0
        brute_single_path_capacity(net)
        assert make_cut_calls[0] == 1
