"""Multi-path (flooding) network capacity via max-flow / min-cut.

The undirected network is turned into a residual graph with alice as the
source and bob as the sink: every edge is two opposite arcs, each starting at
the edge's capacity and each the other's reverse, so pushing along one frees
the same amount on the other (as in networkx's undirected residual graphs).
The arcs are those of the network's shared integer index; only the residual
capacities and pushes are this solver's own flat lists.  The maximum flow
equals the minimum over alice/bob cuts of the total crossing capacity, which
is the multi-path capacity of a distillable network.

Dinic's blocking-flow algorithm is used because its phase and augmentation
counts depend only on the graph size.  It pushes exact ints: every capacity
is a dyadic rational, so one power of two (the largest denominator of the
capacities' integer ratios) scales them all to ints without rounding.  No
tolerance is needed anywhere: an arc is saturated when its residual is int
0, an edge's net flow is its int capacity minus its forward residual, and a
rate is that int over the scale, rounded once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .network import Cut, QNetwork, _bfs_levels, _cut_sum, make_cut


@dataclass(frozen=True)
class FlowReport:
    """Optimal flow value with per-edge effective rates and a certifying cut.

    ``effective_rates[edge_id]`` is the edge's exact net flow, correctly
    rounded, relative to its declared (u, v) order: positive means net flow
    u -> v.  So no rate exceeds its edge's capacity, and the rates balance
    at every point to within the rounding of each.  ``orientation`` holds
    the flow direction of exactly the edges whose rate is nonzero.  Both
    dicts are in edge order.
    ``min_cut``'s alice side is the set of points still reachable in the
    final residual graph.  ``value`` is that cut's crossing capacity,
    correctly rounded as :func:`~qnetcap.network.cut_multi_edge_value` sums
    it, so it can be re-added from the certificate bit for bit and does not
    depend on the order of the edges; the flow is its witness.  It is also
    alice's exact net outflow, correctly rounded.
    """

    value: float
    effective_rates: dict[str, float]
    orientation: dict[str, tuple[str, str]]
    min_cut: Cut


def _blocking_flow(arcs, to, cap, level, ptr, source: int, sink: int) -> int:
    """Push flow along one source-sink path of the level graph; return its last arc, -1 if none.

    Depth-first with an explicit stack, so path length is not bounded by the
    recursion limit.  ``ptr[p]`` is the next arc to try at ``p``; it moves
    past arcs outside the level graph and arcs leading to dead ends, so later
    calls resume where this one stopped.
    """
    path: list[int] = []  # arcs from source to ``point``
    point = source
    while point != sink:
        out = arcs[point]
        next_level = level[point] + 1
        for i in range(ptr[point], len(out)):
            idx = out[i]
            if cap[idx] > 0 and level[to[idx]] == next_level:
                ptr[point] = i
                path.append(idx)
                point = to[idx]
                break
        else:
            ptr[point] = len(out)
            if not path:
                return -1
            point = to[path.pop() ^ 1]  # back to the arc's tail
            ptr[point] += 1
    pushed = min(cap[idx] for idx in path)
    for idx in path:
        cap[idx] -= pushed
        cap[idx ^ 1] += pushed
    return path[-1]


def max_flow(net: QNetwork) -> FlowReport:
    """Maximum end-to-end flow with rates, orientation, and min-cut witness.

    Never raises on disconnected inputs: the value is then 0, every rate is
    zero, and the min cut is the trivial bipartition along alice's component.

    The min cut comes from the last level search, the one that no longer
    reaches bob: the points it reached are those still reachable in the
    residual graph, which form the alice side of a minimum cut (Dinic 1970).
    Once every arc into bob is saturated, no further path is searched for.

    Raises :class:`ValidationError` when the value is beyond float range.
    """
    index = net._index
    to, arcs, names, alice = index.to, index.arcs, index.names, index.alice
    ratios = [c.as_integer_ratio() for c in index.caps]
    # Every denominator is a power of two, so each divides the largest.
    scale = max((den for _, den in ratios), default=1)
    ints = [num * (scale // den) for num, den in ratios]
    # The index's arcs 2k and 2k + 1 of edge k both start at the edge's
    # capacity in ``cap``, so edge k's net flow u -> v is ints[k] - cap[2k].
    cap = list(chain.from_iterable(zip(ints, ints)))

    # Bob's in-arcs with residual capacity.  No path leaves bob, so a
    # saturated one stays saturated; once none is left, no phase's search
    # for a path that cannot exist runs.
    open_in = sum(cap[idx ^ 1] > 0 for idx in arcs[index.bob])
    level = _bfs_levels(arcs, to, cap, alice)
    while level[index.bob] >= 0:
        ptr = [0] * len(arcs)
        while open_in and (last := _blocking_flow(arcs, to, cap, level, ptr, alice, index.bob)) >= 0:
            open_in -= cap[last] == 0
        level = _bfs_levels(arcs, to, cap, alice)

    min_cut = make_cut(net, (name for name, lv in zip(names, level) if lv >= 0))
    value = _cut_sum(map(net.capacities.__getitem__, min_cut.cut_set))

    # Int true division rounds each exact net flow once, and a nonzero one
    # stays nonzero: it is at least 1 / scale, itself a float.
    rates = [(c - r) / scale for c, r in zip(ints, cap[::2])]
    orientation: dict[str, tuple[str, str]] = {}
    for k, rate in enumerate(rates):
        if rate:
            arc = 2 * k + (rate < 0)  # the arc the net flow runs along
            orientation[index.edge_ids[k]] = (names[to[arc ^ 1]], names[to[arc]])

    return FlowReport(
        value=value,
        effective_rates=dict(zip(index.edge_ids, rates)),
        orientation=orientation,
        min_cut=min_cut,
    )


def multi_path_capacity(net: QNetwork) -> float:
    """Multi-path capacity: the max-flow value, 0 when disconnected."""
    return max_flow(net).value
