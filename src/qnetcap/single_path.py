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
edges itself (see :func:`_widths`).  Both algorithms read the network's one
integer index, shared with max-flow and :func:`~qnetcap.network.make_cut`:
points are ids in name order, so a tie between ids is a tie between names.

Comparisons inside the algorithms are exact double comparisons: both sides of
the duality select among the same floating-point capacities, so equality is
achievable bit-for-bit and tolerances are reserved for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import NoRoute, ValidationError
from .network import Cut, QNetwork, Route, edge_capacity, make_cut


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


def _route_report(net: QNetwork, width: list[float], pred: list[int]) -> RouteReport:
    """Report of the alice-bob route given by a width search from alice.

    Point k of the network's index is reached at ``width[k]``, the bottleneck
    capacity of the searched alice-to-k path, over the arc ``pred[k]``; a
    point the search missed reads ``-inf``.  Raises :class:`NoRoute` if bob
    is missed.
    """
    index = net._index
    value = width[index.bob]
    if value == -math.inf:
        raise NoRoute(f"no route from {net.alice!r} to {net.bob!r}")
    route = [pred[index.bob]]  # its arcs, walked back from bob
    while index.to[route[-1] ^ 1] != index.alice:
        route.append(pred[index.to[route[-1] ^ 1]])
    route.reverse()
    bottleneck = next(index.edge_ids[arc >> 1] for arc in route if index.caps[arc >> 1] == value)
    # The dual cut's alice side is every point wider than ``value``.  The
    # bottleneck crosses it, and after a widest-path search no crossing edge
    # is wider than ``value`` (else its far end would be wider), so this is
    # a minimum single-edge cut.  Widths from a tree that is not a maximum
    # spanning forest can leave a wider edge crossing: that cut certifies
    # nothing, so it is an error.
    cut = make_cut(net, (name for name, w in zip(index.names, width) if w > value))
    for eid in cut.cut_set:
        if net.capacities[eid] > value:
            raise ValidationError(
                f"tree is not a maximum spanning forest: edge {eid!r} is wider than"
                f" the route's bottleneck {bottleneck!r}"
            )
    return RouteReport(
        capacity=value,
        route=Route(
            point_sequence=(net.alice, *(index.names[index.to[arc]] for arc in route)),
            edge_sequence=tuple(index.edge_ids[arc >> 1] for arc in route),
        ),
        bottleneck_edge=bottleneck,
        dual_cut=cut,
    )


def _widths(net: QNetwork) -> tuple[list[float], list[int]]:
    """Width-maximizing Dijkstra from alice over the network's index.

    ``width[p]`` is the best achievable bottleneck capacity of an alice-to-p
    path (infinite at alice) and ``pred[p]`` the arc it arrives by.  The
    priority queue prefers larger widths and breaks ties by point id, which
    is name order, so predecessors are deterministic.  Parallel edges are
    settled in the relaxation: when an edge from the point being finished
    reaches a neighbour at exactly the width that same point set, the wider
    edge is kept, then the smaller id.  So of the edges from one point that
    give a neighbour its width, the kept one is the best by (capacity, id)
    whatever order they are listed in, and pops follow (width, name) alone:
    declaration order does not change the answer.
    """
    index = net._index
    to, arcs, caps, edge_ids = index.to, index.arcs, index.caps, index.edge_ids
    width, pred = [-math.inf] * len(arcs), [-1] * len(arcs)
    done = bytearray(len(arcs))
    width[index.alice] = math.inf
    heap: list[tuple[float, int]] = [(-math.inf, index.alice)]
    while heap:
        point = heappop(heap)[1]
        if done[point]:
            continue
        done[point] = 1
        for arc in arcs[point]:
            other = to[arc]
            if done[other]:
                continue
            cap = caps[arc >> 1]
            reach = min(width[point], cap)
            held = width[other]
            if reach > held:
                width[other] = reach
                pred[other] = arc
                heappush(heap, (-reach, other))
            elif reach == held and to[pred[other] ^ 1] == point:
                kept, k = pred[other] >> 1, arc >> 1
                if (-cap, edge_ids[k]) < (-caps[kept], edge_ids[kept]):
                    pred[other] = arc
    return width, pred


def widest_path(net: QNetwork) -> RouteReport:
    """Route maximizing the minimum edge capacity, with a certifying cut.

    Runs in O(|E| log |P|) over the network's index, certifying cut
    included (the cut costs O(|E| + |P|)); the index is built once per
    network in O(|E| + |P| log |P|) and shared with every other solver.
    Ties are broken deterministically (larger width first, then
    lexicographic point name).  Raises :class:`NoRoute` when alice and bob
    are disconnected.
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

    Components are tracked by union-find on a list over the point ids (each
    point maps towards its component's root) with path halving.  On a
    disconnected graph this yields a maximum spanning forest; the call
    raises :class:`NoRoute` when alice and bob end up in different trees.
    The optimal alice-bob route is the unique tree path between them.
    Runs in O(|E| log |E|): two stable sorts of the edge ids put the edges
    in (-capacity, id) order.
    """
    index = net._index
    to, edge_ids = index.to, index.edge_ids
    root = list(range(len(index.names)))

    def find(p):
        while root[p] != p:
            root[p] = p = root[root[p]]
        return p

    order = sorted(range(len(edge_ids)), key=edge_ids.__getitem__)
    order.sort(key=index.caps.__getitem__, reverse=True)
    chosen = []
    for k in order:
        ru, rv = find(to[2 * k + 1]), find(to[2 * k])
        if ru != rv:
            root[rv] = ru
            chosen.append(edge_ids[k])
    if find(index.alice) != find(index.bob):
        raise NoRoute(f"no route from {net.alice!r} to {net.bob!r}")
    return frozenset(chosen)


def tree_route_capacity(net: QNetwork, tree) -> RouteReport:
    """Bottleneck report for the unique alice-bob path inside ``tree``.

    ``tree`` is a collection of edge ids, not a string, that must form a
    maximum spanning forest (normally the output of
    :func:`max_spanning_tree`).  One depth-first search from alice over the
    index's arcs of tree edges records each point's width along the tree,
    and the report is built as in :func:`widest_path`.  A maximum spanning
    tree holds a maximum-capacity route between every pair of points (Hu
    1961), so its widths are the network's and the threshold cut equals
    ``widest_path(net).dual_cut``.  :class:`ValidationError` names the
    offending edge when one closes a cycle in alice's tree, or when an edge
    wider than the route's bottleneck crosses the threshold cut (the tree
    is then not a maximum spanning forest, and the cut certifies nothing).
    Runs in O(|E| + |P|): id lookups are dict reads, the search reads each
    arc of a reached point once, the dual cut is one :func:`make_cut` and
    its check reads each crossing edge once.  Paths in a forest are unique,
    so the declaration order of the arc lists cannot change the answer.
    """
    if isinstance(tree, str):
        raise ValidationError(f"tree {tree!r} is a string, not a collection of edge ids")
    ids = list(tree)
    try:
        tree = set(ids)
        unknown = tree - net.capacities.keys()  # the index's edge-id map
    except TypeError:  # an unhashable id: each id is tried
        unknown = ids
    # UnknownEdge names the smallest unknown id by repr, not the first given:
    # one message whatever the order (or hash seed) of ``tree``.
    for eid in sorted(unknown, key=repr):
        edge_capacity(net, eid)
    index = net._index
    to, arcs, caps, edge_ids = index.to, index.arcs, index.caps, index.edge_ids
    in_tree = bytes(map(tree.__contains__, edge_ids))
    width, pred = [-math.inf] * len(arcs), [-1] * len(arcs)
    width[index.alice] = math.inf
    stack = [index.alice]
    while stack:
        point = stack.pop()
        via = pred[point] >> 1  # -1 at alice, which no edge is
        for arc in arcs[point]:
            k = arc >> 1
            if k == via or not in_tree[k]:
                continue
            other = to[arc]
            if width[other] != -math.inf:
                raise ValidationError(f"tree is not a forest: edge {edge_ids[k]!r} closes a cycle")
            width[other] = min(width[point], caps[k])
            pred[other] = arc
            stack.append(other)
    return _route_report(net, width, pred)
