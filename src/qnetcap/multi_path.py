"""Multi-path (flooding) network capacity via max-flow / min-cut.

The undirected network is turned into a directed flow network: alice's edges
leave her (source), bob's edges enter him (sink), and every interior edge is
split into two opposite arcs of equal capacity.  The maximum flow on that
network equals the minimum over alice/bob cuts of the total crossing
capacity, which is the multi-path capacity of a distillable network.

Dinic's blocking-flow algorithm is used because its phase count depends only
on the graph size, so it terminates on real-valued (irrational) capacities
where naive augmenting-path schemes need not.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channels import capacity
from .network import Cut, QNetwork, make_cut

#: Residual capacities at or below this are treated as saturated.  This is
#: the only epsilon inside an algorithm in the package; it guards against
#: denormal drift in repeated float subtractions.
RESIDUAL_EPS = 1e-12


@dataclass(frozen=True)
class FlowReport:
    """Optimal flow value with per-edge effective rates and a certifying cut.

    ``effective_rates[edge_id]`` is signed relative to the edge's declared
    (u, v) order: positive means net flow u -> v.  ``orientation`` holds the
    flow direction for edges actually carrying flow; edges with zero net rate
    have no orientation.  ``min_cut`` is extracted from residual reachability
    and its total crossing capacity equals ``value``.
    """

    value: float
    effective_rates: dict[str, float]
    orientation: dict[str, tuple[str, str]]
    min_cut: Cut


class _Residual:
    """Adjacency-array residual graph; entry i pairs with i ^ 1."""

    def __init__(self, points):
        self.to: list[str] = []
        self.cap: list[float] = []
        self.adj: dict[str, list[int]] = {p: [] for p in points}

    def add(self, source: str, target: str, cap: float) -> int:
        index = len(self.to)
        self.to.append(target)
        self.cap.append(cap)
        self.adj[source].append(index)
        self.to.append(source)
        self.cap.append(0.0)
        self.adj[target].append(index + 1)
        return index

    def push(self, index: int, amount: float):
        self.cap[index] -= amount
        self.cap[index ^ 1] += amount


def _bfs_levels(res: _Residual, source: str, sink: str):
    level = {source: 0}
    queue = [source]
    for point in queue:
        for idx in res.adj[point]:
            other = res.to[idx]
            if other not in level and res.cap[idx] > RESIDUAL_EPS:
                level[other] = level[point] + 1
                queue.append(other)
    return level if sink in level else None


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
            if res.cap[idx] > RESIDUAL_EPS and level.get(other) == level[point] + 1:
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
    """
    res = _Residual(net.points)
    # Per edge, its arcs as (residual index, capacity, runs u -> v): one arc
    # leaving alice or entering bob, else one arc each way.
    arcs = []
    for edge in net.edges:
        cap = capacity(edge.channel)
        if net.alice in (edge.u, edge.v):
            ends = [(net.alice, edge.other(net.alice))]
        elif net.bob in (edge.u, edge.v):
            ends = [(edge.other(net.bob), net.bob)]
        else:
            ends = [(edge.u, edge.v), (edge.v, edge.u)]
        arcs.append([(res.add(s, t, cap), cap, s == edge.u) for s, t in ends])

    while True:
        level = _bfs_levels(res, net.alice, net.bob)
        if level is None:
            break
        ptr = {p: 0 for p in net.points}
        while _blocking_flow(res, level, ptr, net.alice, net.bob) > 0.0:
            pass

    value = 0.0
    effective_rates: dict[str, float] = {}
    orientation: dict[str, tuple[str, str]] = {}
    for edge, edge_arcs in zip(net.edges, arcs):
        rate = 0.0
        for idx, cap, forward in edge_arcs:
            flow = cap - res.cap[idx]
            rate += flow if forward else -flow
        if net.alice in (edge.u, edge.v):
            value += flow  # the edge's only arc, leaving alice
        effective_rates[edge.edge_id] = rate
        if rate > RESIDUAL_EPS:
            orientation[edge.edge_id] = (edge.u, edge.v)
        elif rate < -RESIDUAL_EPS:
            orientation[edge.edge_id] = (edge.v, edge.u)

    # Points still reachable in the residual graph form the alice side of a
    # minimum cut (standard max-flow/min-cut certificate).
    side_a = {net.alice}
    stack = [net.alice]
    while stack:
        point = stack.pop()
        for idx in res.adj[point]:
            other = res.to[idx]
            if other not in side_a and res.cap[idx] > RESIDUAL_EPS:
                side_a.add(other)
                stack.append(other)
    return FlowReport(
        value=value,
        effective_rates=effective_rates,
        orientation=orientation,
        min_cut=make_cut(net, side_a),
    )


def multi_path_capacity(net: QNetwork) -> float:
    """Multi-path capacity: the max-flow value, 0 when disconnected."""
    return max_flow(net).value
