"""Certificate properties on seeded random networks of up to 200 points.

Each network is drawn from a seed and a point count, so hypothesis shrinks
a failure to a small reproducible pair.  No oracle is involved: every answer
is checked through its own certificate (route bottleneck, dual cut, flow
conservation, min cut), which is what makes these sizes checkable.

Networks come in three mixes: mixed channel kinds; weak lossy links only
(100-200 dB per edge, every capacity far below any absolute tolerance); and
mixed kinds with a third of the links weak, so capacities on one network
span up to twenty orders of magnitude.  No check has a tolerance: a flow is
held to its exact contracts, whose only slack is the proven rounding bound
of :func:`conftest.check_exact_flow`.

The last property reorders a network's points and edges, with parallel
twins of equal capacity added: route answers must not depend on that order,
and a max-flow report, rates included, not on the order of the points.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_network, check_exact_flow, random_channel
from qnetcap import (
    QNetwork,
    cut_multi_edge_value,
    cut_single_edge_value,
    lossy,
    max_flow,
    max_spanning_tree,
    tree_route_capacity,
    widest_path,
)


def random_network(seed, n):
    """Connected network: a random spanning tree, about n/2 extra edges and
    a few parallel edges; each edge is weak with probability 0, 1/3 or 1."""
    rng = random.Random(seed)
    points = ["a", "b"] + [f"p{i}" for i in range(n - 2)]
    rng.shuffle(points)
    pairs = [(points[i], rng.choice(points[:i])) for i in range(1, n)]
    pairs += [tuple(rng.sample(points, 2)) for _ in range(n // 2)]
    pairs += rng.sample(pairs, len(pairs) // 10)
    weak = rng.choice((0.0, 1 / 3, 1.0))
    edges = []
    for i, (u, v) in enumerate(pairs):
        if rng.random() < weak:
            spec = lossy(10.0 ** -rng.uniform(10.0, 20.0))
        else:
            spec = random_channel(rng)
        edges.append((f"e{i}", u, v, spec))
    return build_network(points, edges)


networks = st.builds(random_network, st.integers(0, 2**32 - 1), st.integers(2, 200))


def check_route_report(net, report):
    points = report.route.point_sequence
    assert points[0] == net.alice and points[-1] == net.bob
    assert len(set(points)) == len(points)
    for eid, hop in zip(report.route.edge_sequence, zip(points, points[1:])):
        edge = net.edge(eid)
        assert {edge.u, edge.v} == set(hop)
    caps = net.capacities
    assert min(caps[eid] for eid in report.route.edge_sequence) == report.capacity
    assert caps[report.bottleneck_edge] == report.capacity
    cut = report.dual_cut
    assert net.alice in cut.side_a and net.bob in cut.side_b
    assert cut_single_edge_value(net, cut) == report.capacity


@settings(max_examples=100, deadline=None, derandomize=True)
@given(networks)
def test_widest_path_equals_tree_route_and_both_dual_cuts(net):
    wide = widest_path(net)
    tree = tree_route_capacity(net, max_spanning_tree(net))
    check_route_report(net, wide)
    check_route_report(net, tree)
    assert wide.capacity == tree.capacity
    assert tree.dual_cut == wide.dual_cut


@settings(max_examples=100, deadline=None, derandomize=True)
@given(networks)
def test_flow_is_conserved_and_equals_its_min_cut(net):
    report = max_flow(net)
    assert report.value >= widest_path(net).capacity
    check_exact_flow(net, report)

    cut = report.min_cut
    assert net.alice in cut.side_a and net.bob in cut.side_b
    assert cut_multi_edge_value(net, cut) == report.value


def route_answer(report):
    """Everything a route report states, with the cut set as a set."""
    cut = report.dual_cut
    return (
        report.capacity,
        report.route,
        report.bottleneck_edge,
        cut.side_a,
        cut.side_b,
        frozenset(cut.cut_set),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(networks, st.integers(0, 2**32 - 1))
def test_route_answers_do_not_depend_on_declaration_order(net, seed):
    rng = random.Random(seed)
    # Equal-capacity parallel twins, so parallel edges tie exactly.
    twins = [(f"d{i}", e.u, e.v, e.channel) for i, e in enumerate(rng.choices(net.edges, k=5))]
    net = build_network(
        net.points, [(e.edge_id, e.u, e.v, e.channel) for e in net.edges] + twins
    )
    expected = [
        route_answer(widest_path(net)),
        route_answer(tree_route_capacity(net, max_spanning_tree(net))),
    ]
    report = max_flow(net)
    flow, value = repr(report), repr(report.value)
    for _ in range(3):
        points, edges = list(net.points), list(net.edges)
        rng.shuffle(points)
        assert repr(max_flow(QNetwork(tuple(points), net.edges, net.alice, net.bob))) == flow
        rng.shuffle(edges)
        shuffled = QNetwork(tuple(points), tuple(edges), net.alice, net.bob)
        assert [
            route_answer(widest_path(shuffled)),
            route_answer(tree_route_capacity(shuffled, max_spanning_tree(shuffled))),
        ] == expected
        # The flow and its cut may change with the edge order; the value may not.
        assert repr(max_flow(shuffled).value) == value
    # New names that sort in the reverse order of the old ones.
    names = {p: f"r{len(net.points) - i:03d}" for i, p in enumerate(sorted(net.points))}
    relabelled = build_network(
        [names[p] for p in shuffled.points],
        [(e.edge_id, names[e.u], names[e.v], e.channel) for e in shuffled.edges],
        names[net.alice],
        names[net.bob],
    )
    assert repr(max_flow(relabelled).value) == value
