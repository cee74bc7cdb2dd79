"""Single-path network capacity: widest path and its dual minimum cut.

Under single-path routing the end-to-end capacity is the widest-path value
over edge capacities: the route maximizing its minimum edge capacity, which
equals the minimum over alice/bob cuts of the largest crossing capacity.
Two independent algorithms are provided (a width-maximizing Dijkstra variant
and a maximum-spanning-tree extraction).  Both hand their per-point widths to
one report builder, so both report the same certifying cut: the threshold
cut whose alice side is every point wider than the capacity.  The Dijkstra
search reads every edge once, parallel edges included: no pre-pass reduces a
bundle to its best edge, since the relaxation settles ties between parallel
edges itself (see :func:`_widths`).

Comparisons inside the algorithms are exact double comparisons: both sides of
the duality select among the same floating-point capacities, so equality is
achievable bit-for-bit and tolerances are reserved for cross-checks.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import NoRoute, ValidationError
from .network import Cut, QNetwork, Route, make_cut


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


def _route_report(
    net: QNetwork, width: dict[str, float], pred: dict[str, tuple[str, str]]
) -> RouteReport:
    """Report of the alice-bob route given by a width search from alice.

    ``width[p]`` is the bottleneck capacity of the searched alice-to-p path
    and ``pred[p]`` its last step (previous point, edge id); points the
    search missed have no entry.  Raises :class:`NoRoute` if bob is missed.
    """
    if net.bob not in width:
        raise NoRoute(f"no route from {net.alice!r} to {net.bob!r}")
    value = width[net.bob]
    points = [net.bob]
    edge_ids: list[str] = []
    while points[-1] != net.alice:
        parent, eid = pred[points[-1]]
        edge_ids.append(eid)
        points.append(parent)
    points.reverse()
    edge_ids.reverse()
    caps = net.capacities
    bottleneck = next(eid for eid in edge_ids if caps[eid] == value)
    # The dual cut's alice side is every point wider than ``value``.  The
    # bottleneck crosses it, and after a widest-path search no crossing edge
    # is wider than ``value`` (else its far end would be wider), so this is
    # a minimum single-edge cut.  Widths from a tree that is not a maximum
    # spanning forest can leave a wider edge crossing: that cut certifies
    # nothing, so it is an error.
    cut = make_cut(net, {p for p in net.points if width.get(p, -math.inf) > value})
    for eid in cut.cut_set:
        if caps[eid] > value:
            raise ValidationError(
                f"tree is not a maximum spanning forest: edge {eid!r} is wider than"
                f" the route's bottleneck {bottleneck!r}"
            )
    return RouteReport(
        capacity=value,
        route=Route(point_sequence=tuple(points), edge_sequence=tuple(edge_ids)),
        bottleneck_edge=bottleneck,
        dual_cut=cut,
    )


def _widths(net: QNetwork):
    """Width-maximizing Dijkstra from alice.

    ``width[p]`` is the best achievable bottleneck capacity of an alice-to-p
    path (infinite at alice).  The priority queue prefers larger widths and
    breaks ties by point name, so predecessors are deterministic.  Parallel
    edges are settled in the relaxation: when an edge from the point being
    finished reaches a neighbour at exactly the width that same point set,
    the wider edge is kept, then the smaller id.  So of the edges from one
    point that give a neighbour its width, the kept one is the best by
    (capacity, id) whatever order they are listed in, and pops follow
    (width, name) alone: declaration order does not change the answer.
    """
    caps = net.capacities
    adj = net.adjacency()
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
            eid = edge.edge_id
            reach = min(width[point], caps[eid])
            held = width.get(other, -math.inf)
            if reach > held:
                width[other] = reach
                pred[other] = (point, eid)
                heapq.heappush(heap, (-reach, other))
            elif reach == held and pred[other][0] == point:
                kept = pred[other][1]
                if (-caps[eid], eid) < (-caps[kept], kept):
                    pred[other] = (point, eid)
    return width, pred


def widest_path(net: QNetwork) -> RouteReport:
    """Route maximizing the minimum edge capacity, with a certifying cut.

    Runs in O(|E| log |P|), certifying cut included (the cut costs
    O(|E| + |P| log |P|)).  Ties are broken deterministically (larger width
    first, then lexicographic point name).  Raises :class:`NoRoute` when
    alice and bob are disconnected.
    """
    return _route_report(net, *_widths(net))


def min_single_edge_cut(net: QNetwork) -> Cut:
    """Cut minimizing the largest crossing capacity.

    By widest-path duality its value equals the widest-path capacity
    bit-for-bit (both sides select among the same doubles).
    """
    return widest_path(net).dual_cut


def max_spanning_tree(net: QNetwork) -> frozenset[str]:
    """Kruskal over descending edge capacities; returns the tree's edge ids.

    Components are tracked by union-find on a dict (each point maps towards
    its component's root) with path halving.  On a disconnected graph this
    yields a maximum spanning forest; the call raises :class:`NoRoute` when
    alice and bob end up in different trees.  The optimal alice-bob route is
    the unique tree path between them.
    """
    caps = net.capacities
    root = {p: p for p in net.points}

    def find(p):
        while root[p] != p:
            root[p] = p = root[root[p]]
        return p

    chosen = []
    for edge in sorted(net.edges, key=lambda e: (-caps[e.edge_id], e.edge_id)):
        ru, rv = find(edge.u), find(edge.v)
        if ru != rv:
            root[rv] = ru
            chosen.append(edge.edge_id)
    if find(net.alice) != find(net.bob):
        raise NoRoute(f"no route from {net.alice!r} to {net.bob!r}")
    return frozenset(chosen)


def tree_route_capacity(net: QNetwork, tree) -> RouteReport:
    """Bottleneck report for the unique alice-bob path inside ``tree``.

    ``tree`` is a set of edge ids that must form a maximum spanning forest
    (normally the output of :func:`max_spanning_tree`).  One depth-first
    search from alice records each point's width along the tree, and the
    report is built as in :func:`widest_path`.  A maximum spanning tree
    holds a maximum-capacity route between every pair of points (Hu 1961),
    so its widths are the network's and the threshold cut equals
    ``widest_path(net).dual_cut``.  :class:`ValidationError` names the
    offending edge when one closes a cycle in alice's tree, or when an edge
    wider than the route's bottleneck crosses the threshold cut (the tree
    is then not a maximum spanning forest, and the cut certifies nothing).
    Runs in O(|E| + |P| log |P|): id lookups are dict reads, the search is
    linear, the dual cut is one :func:`make_cut` and its check reads each
    crossing edge once.  Paths in a forest are unique, so the declaration
    order of the incidence lists cannot change the answer.
    """
    caps = net.capacities
    tree = {net.edge(eid).edge_id for eid in tree}  # raises UnknownEdge
    adj = net.adjacency([e for e in net.edges if e.edge_id in tree])
    width: dict[str, float] = {net.alice: math.inf}
    pred: dict[str, tuple[str, str]] = {}
    stack = [net.alice]
    while stack:
        point = stack.pop()
        via = pred[point][1] if point in pred else None
        for edge in adj[point]:
            if edge.edge_id == via:
                continue
            other = edge.other(point)
            if other in width:
                raise ValidationError(
                    f"tree is not a forest: edge {edge.edge_id!r} closes a cycle"
                )
            width[other] = min(width[point], caps[edge.edge_id])
            pred[other] = (point, edge.edge_id)
            stack.append(other)
    return _route_report(net, width, pred)
