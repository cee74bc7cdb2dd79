"""Single-path network capacity: widest path and its dual minimum cut.

Under single-path routing the end-to-end capacity is the widest-path value
over edge capacities: the route maximizing its minimum edge capacity, which
equals the minimum over alice/bob cuts of the largest crossing capacity.
Two independent algorithms are provided (a width-maximizing Dijkstra variant
and a maximum-spanning-tree extraction); both report a certifying cut.

Comparisons inside the algorithms are exact double comparisons: both sides of
the duality select among the same floating-point capacities, so equality is
achievable bit-for-bit and tolerances are reserved for cross-checks.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import NoRoute
from .network import Cut, Edge, QNetwork, Route, make_cut


@dataclass(frozen=True)
class RouteReport:
    """Optimal route, its bottleneck edge, and a cut certifying optimality.

    The dual cut's largest crossing capacity equals ``capacity``; any reader
    can verify optimality from the report alone (route feasibility gives the
    lower bound, the cut gives the matching upper bound).
    """

    capacity: float
    route: Route
    bottleneck_edge: str
    dual_cut: Cut


def _reduced_adjacency(net: QNetwork) -> dict[str, list[Edge]]:
    """Adjacency with parallel bundles reduced to their best edge.

    Only the highest-capacity edge of a parallel bundle can matter on a
    widest path; ties keep the lexicographically smallest edge id so routes
    are reproducible.
    """
    caps = net.capacities
    best: dict[tuple[str, str], Edge] = {}
    for edge in net.edges:
        key = (edge.u, edge.v) if edge.u < edge.v else (edge.v, edge.u)
        incumbent = best.get(key)
        if (
            incumbent is None
            or caps[edge.edge_id] > caps[incumbent.edge_id]
            or (
                caps[edge.edge_id] == caps[incumbent.edge_id]
                and edge.edge_id < incumbent.edge_id
            )
        ):
            best[key] = edge
    return net.adjacency(best.values())


def _route_to_bob(net: QNetwork, pred: dict[str, tuple[str, str]]) -> Route:
    """Follow ``pred`` (point -> (previous point, edge id)) back from bob."""
    points = [net.bob]
    edge_ids: list[str] = []
    while points[-1] != net.alice:
        parent, eid = pred[points[-1]]
        edge_ids.append(eid)
        points.append(parent)
    points.reverse()
    edge_ids.reverse()
    return Route(point_sequence=tuple(points), edge_sequence=tuple(edge_ids))


def _widths(net: QNetwork):
    """Width-maximizing Dijkstra from alice.

    ``width[p]`` is the best achievable bottleneck capacity of an alice-to-p
    path (infinite at alice).  The priority queue prefers larger widths and
    breaks ties by point name, so predecessors are deterministic.  Declaration
    order does not matter: bundles are reduced by (capacity, id), so a point
    lists at most one edge per neighbour and the order of that list cannot
    change which relaxation wins, and pops follow (width, name) alone.
    """
    caps = net.capacities
    adj = _reduced_adjacency(net)
    width: dict[str, float] = {net.alice: math.inf}
    pred: dict[str, tuple[str, str]] = {}
    done: set[str] = set()
    heap: list[tuple[float, str]] = [(-math.inf, net.alice)]
    while heap:
        neg_w, point = heapq.heappop(heap)
        if point in done:
            continue
        done.add(point)
        for edge in adj[point]:
            other = edge.other(point)
            if other in done:
                continue
            reach = min(width[point], caps[edge.edge_id])
            if reach > width.get(other, -math.inf):
                width[other] = reach
                pred[other] = (point, edge.edge_id)
                heapq.heappush(heap, (-reach, other))
    return width, pred


def widest_path(net: QNetwork) -> RouteReport:
    """Route maximizing the minimum edge capacity, with a certifying cut.

    Runs in O(|E| log |P|), certifying cut included (the cut costs
    O(|E| + |P| log |P|)).  Ties are broken deterministically (larger width
    first, then lexicographic point name).  Raises :class:`NoRoute` when
    alice and bob are disconnected.
    """
    width, pred = _widths(net)
    if net.bob not in width:
        raise NoRoute(f"no route from {net.alice!r} to {net.bob!r}")
    value = width[net.bob]
    route = _route_to_bob(net, pred)
    bottleneck = next(eid for eid in route.edge_sequence if net.capacities[eid] == value)
    # The dual cut's alice side is every point wider than ``value``: each
    # crossing edge has capacity <= value (else its far end would be wider)
    # and the bottleneck crosses, so this is a minimum single-edge cut.
    side_a = {p for p in net.points if width.get(p, -math.inf) > value}
    return RouteReport(
        capacity=value,
        route=route,
        bottleneck_edge=bottleneck,
        dual_cut=make_cut(net, side_a),
    )


def min_single_edge_cut(net: QNetwork) -> Cut:
    """Cut minimizing the largest crossing capacity.

    By widest-path duality its value equals the widest-path capacity
    bit-for-bit (both sides select among the same doubles).
    """
    return widest_path(net).dual_cut


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        return True


def max_spanning_tree(net: QNetwork) -> frozenset[str]:
    """Kruskal over descending edge capacities; returns the tree's edge ids.

    On a disconnected graph this yields a maximum spanning forest; the call
    raises :class:`NoRoute` when alice and bob end up in different trees.
    The optimal alice-bob route is the unique tree path between them.
    """
    caps = net.capacities
    ordered = sorted(net.edges, key=lambda e: (-caps[e.edge_id], e.edge_id))
    uf = _UnionFind(net.points)
    chosen = []
    for edge in ordered:
        if uf.union(edge.u, edge.v):
            chosen.append(edge.edge_id)
    if uf.find(net.alice) != uf.find(net.bob):
        raise NoRoute(f"no route from {net.alice!r} to {net.bob!r}")
    return frozenset(chosen)


def tree_route_capacity(net: QNetwork, tree) -> RouteReport:
    """Bottleneck report for the unique alice-bob path inside ``tree``.

    ``tree`` is a set of edge ids forming a forest (normally the output of
    :func:`max_spanning_tree`).  The dual cut splits the tree at the
    bottleneck edge: by the cut property of maximum spanning trees no
    non-tree crossing edge can beat that edge, so the certificate is exact.
    Runs in O(|E| + |P| log |P|): id lookups are dict reads and the dual cut
    is one :func:`make_cut`.  The incidence lists keep declaration order;
    paths in a forest are unique, so that order cannot change the answer.
    """
    caps = net.capacities
    tree = {net.edge(eid).edge_id for eid in tree}  # raises UnknownEdge
    adj = net.adjacency([e for e in net.edges if e.edge_id in tree])

    pred: dict[str, tuple[str, str]] = {}
    stack = [net.alice]
    seen = {net.alice}
    while stack:
        point = stack.pop()
        for edge in adj[point]:
            other = edge.other(point)
            if other not in seen:
                seen.add(other)
                pred[other] = (point, edge.edge_id)
                stack.append(other)
    if net.bob not in seen:
        raise NoRoute(f"tree contains no path from {net.alice!r} to {net.bob!r}")

    route = _route_to_bob(net, pred)
    value = min(caps[eid] for eid in route.edge_sequence)
    bottleneck = next(eid for eid in route.edge_sequence if caps[eid] == value)

    # Alice's tree component once the bottleneck edge is removed.
    side_a = {net.alice}
    stack = [net.alice]
    while stack:
        point = stack.pop()
        for edge in adj[point]:
            if edge.edge_id == bottleneck:
                continue
            other = edge.other(point)
            if other not in side_a:
                side_a.add(other)
                stack.append(other)
    return RouteReport(
        capacity=value,
        route=route,
        bottleneck_edge=bottleneck,
        dual_cut=make_cut(net, side_a),
    )
