"""Multi-path (flooding) network capacity via max-flow / min-cut.

The undirected network is turned into a directed flow network: every edge is
two opposite arcs of equal capacity, alice being the source and bob the
sink.  The maximum flow on that network equals the minimum over alice/bob
cuts of the total crossing capacity, which is the multi-path capacity of a
distillable network.

Dinic's blocking-flow algorithm is used because its phase count depends only
on the graph size, so it terminates on real-valued (irrational) capacities
where naive augmenting-path schemes need not.
"""

from __future__ import annotations

from dataclasses import dataclass

from .network import Cut, QNetwork, make_cut

#: A residual arc holding at most this fraction of its edge's capacity counts
#: as saturated.  The only epsilon inside an algorithm in the package, it
#: guards against drift in repeated float subtractions.  Each push is bounded
#: by the arc's own residual, so drift stays within a few ulps of the edge's
#: capacity and the tolerance is scaled per edge: a 200 dB link next to a
#: 7-bit one still carries its flow.
RESIDUAL_EPS = 1e-12


@dataclass(frozen=True)
class FlowReport:
    """Optimal flow value with per-edge effective rates and a certifying cut.

    Every edge is two opposite arcs of its capacity, so
    ``effective_rates[edge_id]`` is the net of the flows along them, signed
    relative to the edge's declared (u, v) order: positive means net flow
    u -> v.  ``orientation`` holds the flow direction for edges actually
    carrying flow; edges with zero net rate have no orientation.
    ``min_cut``'s alice side is the set of points still reachable in the
    final residual graph, and its total crossing capacity equals ``value``.
    """

    value: float
    effective_rates: dict[str, float]
    orientation: dict[str, tuple[str, str]]
    min_cut: Cut


class _Residual:
    """Adjacency-array residual graph; entry i pairs with i ^ 1.

    Arc i is saturated once ``cap[i] <= eps[i]``, ``RESIDUAL_EPS`` times the
    capacity of the edge it belongs to.
    """

    def __init__(self, points):
        self.to: list[str] = []
        self.cap: list[float] = []
        self.eps: list[float] = []
        self.adj: dict[str, list[int]] = {p: [] for p in points}

    def add(self, source: str, target: str, cap: float):
        index = len(self.to)
        self.to.append(target)
        self.cap.append(cap)
        self.adj[source].append(index)
        self.to.append(source)
        self.cap.append(0.0)
        self.adj[target].append(index + 1)
        self.eps += [RESIDUAL_EPS * cap] * 2

    def push(self, index: int, amount: float):
        self.cap[index] -= amount
        self.cap[index ^ 1] += amount


def _bfs_levels(res: _Residual, source: str) -> dict[str, int]:
    """Level of every point reachable from ``source`` over unsaturated arcs."""
    level = {source: 0}
    queue = [source]
    for point in queue:
        for idx in res.adj[point]:
            other = res.to[idx]
            if other not in level and res.cap[idx] > res.eps[idx]:
                level[other] = level[point] + 1
                queue.append(other)
    return level


def _blocking_flow(res: _Residual, level, ptr, source: str, sink: str) -> float:
    """Push flow along one source-sink path of the level graph; 0.0 if none.

    Depth-first with an explicit stack, so path length is not bounded by the
    recursion limit.  ``ptr[p]`` is the next arc to try at ``p``; it moves
    past arcs outside the level graph and arcs leading to dead ends, so later
    calls resume where this one stopped.
    """
    path: list[int] = []  # arcs from source to ``point``
    point = source
    while point != sink:
        adj = res.adj[point]
        while ptr[point] < len(adj):
            idx = adj[ptr[point]]
            other = res.to[idx]
            if res.cap[idx] > res.eps[idx] and level.get(other) == level[point] + 1:
                path.append(idx)
                point = other
                break
            ptr[point] += 1
        else:
            if not path:
                return 0.0
            point = res.to[path.pop() ^ 1]  # back to the arc's tail
            ptr[point] += 1
    pushed = min(res.cap[idx] for idx in path)
    for idx in path:
        res.push(idx, pushed)
    return pushed


def max_flow(net: QNetwork) -> FlowReport:
    """Maximum end-to-end flow with rates, orientation, and min-cut witness.

    Never raises on disconnected inputs: the value is then 0, every rate is
    zero, and the min cut is the trivial bipartition along alice's component.

    The min cut comes from the last level search, the one that no longer
    reaches bob: the points it reached are those still reachable in the
    residual graph, which form the alice side of a minimum cut (Dinic 1970).
    """
    caps = net.capacities
    res = _Residual(net.points)
    # Edge k is two opposite arcs: u -> v at index 4k, v -> u at 4k + 2.
    for edge in net.edges:
        res.add(edge.u, edge.v, caps[edge.edge_id])
        res.add(edge.v, edge.u, caps[edge.edge_id])

    while True:
        level = _bfs_levels(res, net.alice)
        if net.bob not in level:
            break
        ptr = {p: 0 for p in net.points}
        while _blocking_flow(res, level, ptr, net.alice, net.bob) > 0.0:
            pass

    value = 0.0
    effective_rates: dict[str, float] = {}
    for k, edge in enumerate(net.edges):
        # Each paired arc's residual is the flow pushed along its twin, exact
        # even where cap - residual would cancel a small flow against a large
        # cap.  No arc enters alice in a level graph, so her edges carry flow
        # out of her only and the value is her net outflow.
        rate = res.cap[4 * k + 1] - res.cap[4 * k + 3]
        if edge.u == net.alice:
            value += rate
        elif edge.v == net.alice:
            value -= rate
        effective_rates[edge.edge_id] = rate

    # An augmenting path crosses an edge at most once, so the pushes through
    # any edge total at most ``value`` and its drift stays within ulps of it.
    eps = RESIDUAL_EPS * value
    orientation: dict[str, tuple[str, str]] = {}
    for edge in net.edges:
        rate = effective_rates[edge.edge_id]
        if rate > eps:
            orientation[edge.edge_id] = (edge.u, edge.v)
        elif rate < -eps:
            orientation[edge.edge_id] = (edge.v, edge.u)

    return FlowReport(
        value=value,
        effective_rates=effective_rates,
        orientation=orientation,
        min_cut=make_cut(net, level),
    )


def multi_path_capacity(net: QNetwork) -> float:
    """Multi-path capacity: the max-flow value, 0 when disconnected."""
    return max_flow(net).value
