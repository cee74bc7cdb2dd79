"""Brute-force ground truth on small networks.

Everything here is deliberately naive: all 2^(|P|-2) alice/bob bipartitions
and all simple alice-bob routes are enumerated outright, with no graph
algorithms involved.  That makes these functions an independent referee for
the fast widest-path and max-flow implementations, and a direct check of the
route/cut dualities themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoRoute, TooLarge
from .network import Cut, QNetwork, Route, make_cut

#: Hard cap on |P|; 2^10 cuts and the simple-path count stay sub-second.
#: The cap belongs here, not in the production algorithms.
MAX_POINTS = 12


def _check_size(net: QNetwork):
    if len(net.points) > MAX_POINTS:
        raise TooLarge(
            f"{len(net.points)} points exceeds the brute-force cap of {MAX_POINTS}"
        )


@dataclass(frozen=True)
class CutRecord:
    """One enumerated cut with both of its values.

    ``single_edge_value`` is the largest crossing capacity (None when the
    cut-set is empty, i.e. the bipartition already separates the graph), and
    ``multi_edge_value`` the total crossing capacity.
    """

    cut: Cut
    single_edge_value: float | None
    multi_edge_value: float


@dataclass(frozen=True)
class CutEnumeration:
    """All 2^(|P|-2) alice/bob bipartitions of a network."""

    cuts: tuple[CutRecord, ...]


@dataclass(frozen=True)
class BruteForceSinglePath:
    """Both sides of the widest-path duality, computed independently.

    ``route_value`` maximizes the minimum edge capacity over enumerated
    simple routes; ``cut_value`` minimizes the largest crossing capacity over
    enumerated cuts.  They must agree exactly on every connected network.
    """

    route_value: float
    cut_value: float
    best_route: Route
    min_cut: Cut


def enumerate_cuts(net: QNetwork) -> CutEnumeration:
    """Every alice/bob bipartition with its single- and multi-edge values."""
    _check_size(net)
    caps = net.capacities
    interior = [p for p in net.points if p not in (net.alice, net.bob)]
    records = []
    for mask in range(1 << len(interior)):
        side_a = {net.alice}
        for bit, point in enumerate(interior):
            if mask >> bit & 1:
                side_a.add(point)
        cut = make_cut(net, side_a)
        records.append(
            CutRecord(
                cut=cut,
                single_edge_value=max((caps[eid] for eid in cut.cut_set), default=None),
                multi_edge_value=sum(caps[eid] for eid in cut.cut_set),
            )
        )
    return CutEnumeration(cuts=tuple(records))


def enumerate_simple_routes(net: QNetwork) -> list[Route]:
    """All simple alice-bob paths, in lexicographic depth-first order.

    Parallel edges yield distinct routes (same points, different edges).
    Non-simple walks are excluded: restricting to cycle-free routes loses
    nothing for bottleneck or flow values.
    """
    _check_size(net)
    adj: dict[str, list[tuple[str, str]]] = {p: [] for p in net.points}
    for edge in net.edges:
        adj[edge.u].append((edge.v, edge.edge_id))
        adj[edge.v].append((edge.u, edge.edge_id))
    for point in adj:
        adj[point].sort()

    routes: list[Route] = []
    point_stack = [net.alice]
    edge_stack: list[str] = []
    on_path = {net.alice}

    def descend(point: str):
        for other, eid in adj[point]:
            if other in on_path:
                continue
            if other == net.bob:
                routes.append(
                    Route(
                        point_sequence=tuple(point_stack) + (net.bob,),
                        edge_sequence=tuple(edge_stack) + (eid,),
                    )
                )
                continue
            point_stack.append(other)
            edge_stack.append(eid)
            on_path.add(other)
            descend(other)
            point_stack.pop()
            edge_stack.pop()
            on_path.remove(other)

    descend(net.alice)
    return routes


def brute_single_path_capacity(net: QNetwork) -> BruteForceSinglePath:
    """Widest-path value from both sides of the duality, by enumeration."""
    _check_size(net)
    caps = net.capacities

    routes = enumerate_simple_routes(net)
    if not routes:
        raise NoRoute(f"no route from {net.alice!r} to {net.bob!r}")
    best_route = None
    route_value = -1.0
    for route in routes:
        bottleneck = min(caps[eid] for eid in route.edge_sequence)
        if bottleneck > route_value:
            route_value = bottleneck
            best_route = route

    cut_value = None
    min_cut = None
    for record in enumerate_cuts(net).cuts:
        if record.single_edge_value is None:
            # An empty crossing set means the bipartition already separates
            # alice from bob, contradicting the route found above.
            raise NoRoute(f"no route from {net.alice!r} to {net.bob!r}")
        if cut_value is None or record.single_edge_value < cut_value:
            cut_value = record.single_edge_value
            min_cut = record.cut
    return BruteForceSinglePath(
        route_value=route_value,
        cut_value=cut_value,
        best_route=best_route,
        min_cut=min_cut,
    )


def brute_multi_path_capacity(net: QNetwork) -> float:
    """Minimum over enumerated cuts of the total crossing capacity.

    Returns 0.0 when alice and bob are disconnected (some bipartition has an
    empty crossing set), matching the 0-flow convention of ``max_flow``.
    """
    _check_size(net)
    return min(record.multi_edge_value for record in enumerate_cuts(net).cuts)
