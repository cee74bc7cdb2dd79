"""Brute-force ground truth on small networks.

Everything here is exhaustive and free of graph algorithms, which makes these
functions an independent referee for the fast widest-path and max-flow
implementations and a direct check of the route/cut dualities themselves:

- The cut side visits all 2^(|P|-2) alice/bob bipartitions.  Each one's
  crossing set is a bit mask over the edges, the XOR of its points' incidence
  masks, so the cut values do not depend on ``make_cut``; only the winning
  cut of :func:`brute_single_path_capacity` is built with it.  With the
  edges as bits in ascending capacity order, a bipartition's largest
  crossing capacity is that of its mask's highest bit, so the single-path
  cut is the smallest mask in ascending-capacity bit order.
  :func:`brute_multi_path_capacity` scales the capacities to exact
  integers and gets every bipartition's total crossing capacity exactly from
  per-point totals, one list step each; only the minimum is rounded, so its
  answer is the exhaustive minimum of the correctly rounded cut sums, bit
  for bit.
- The route side is an exhaustive depth-first search over the simple
  alice-bob routes, each point's ``(neighbour, edge id, capacity)`` triples
  taken in sorted order, with a bound: it drops any partial route no wider
  than the best complete one found so far, so no route list is ever built.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import add

from .errors import NoRoute, TooLarge, ValidationError
from .network import _EVERY_CUT, Cut, QNetwork, Route, make_cut

#: Hard cap on |P|: 2^10 bipartitions of a few dozen edges, and a route
#: search whose worst case grows like the count of simple routes.  The cap
#: belongs here, not in the production algorithms.
MAX_POINTS = 12


def _check_size(net: QNetwork):
    if len(net.points) > MAX_POINTS:
        raise TooLarge(
            f"{len(net.points)} points exceeds the brute-force cap of {MAX_POINTS}"
        )


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


def _interior(net: QNetwork) -> list[str]:
    """The points other than alice and bob; bit k of a bipartition's index
    puts the k-th of them on alice's side."""
    return [p for p in net.points if p not in (net.alice, net.bob)]


def _crossing_masks(net: QNetwork, edges) -> list[int]:
    """Crossing set of every bipartition, as a mask whose bit i is ``edges[i]``.

    An edge crosses iff exactly one endpoint is on alice's side, so a side's
    crossing set is the XOR of its points' incidence masks.  Entry m is
    bipartition m: each interior point doubles the list, one XOR per entry.
    """
    incidence = dict.fromkeys(net.points, 0)
    for bit, edge in enumerate(edges):
        incidence[edge.u] |= 1 << bit
        incidence[edge.v] |= 1 << bit
    masks = [incidence[net.alice]]
    for point in _interior(net):
        flip = incidence[point]
        masks += [mask ^ flip for mask in masks]
    return masks


def _sorted_adjacency(net: QNetwork) -> dict[str, list[tuple[str, str, float]]]:
    """Each point's ``(neighbour, edge id, capacity)`` triples, sorted: the
    route order (edge ids are unique, so capacities never decide it).

    Built here from the edges, not from the solvers' index, so the referee
    shares no graph code with what it checks.
    """
    adj: dict[str, list[tuple[str, str, float]]] = {p: [] for p in net.points}
    for edge, cap in zip(net.edges, net.capacities.values()):
        u, v, eid = edge.u, edge.v, edge.edge_id
        adj[u].append((v, eid, cap))
        adj[v].append((u, eid, cap))
    for triples in adj.values():
        triples.sort()
    return adj


def brute_single_path_capacity(net: QNetwork) -> BruteForceSinglePath:
    """Widest-path value from both sides of the duality, by exhaustive search.

    ``best_route`` is, of the simple alice-bob routes with the largest
    bottleneck, the first in lexicographic depth-first order over sorted
    ``(neighbour, edge id)`` pairs (parallel edges are distinct routes), and
    ``min_cut`` the first bipartition in :func:`_crossing_masks`' order with
    the smallest largest crossing capacity.
    """
    _check_size(net)
    alice, bob = net.alice, net.bob
    # Bits in ascending capacity order: a cut's largest crossing capacity is
    # that of its mask's highest bit, so the smallest mask has the smallest.
    caps = net.capacities
    by_width = sorted(net.edges, key=lambda e: caps[e.edge_id])
    widths = [caps[e.edge_id] for e in by_width]
    masks = _crossing_masks(net, by_width)
    smallest = min(masks)
    if smallest == 0:
        # An empty crossing set: the bipartition separates alice from bob.
        raise NoRoute(f"no route from {alice!r} to {bob!r}")
    cut_value = widths[smallest.bit_length() - 1]
    # The masks of value cut_value are those with no bit of a wider edge.
    limit = 1 << bisect_right(widths, cut_value)
    winner = next(index for index, mask in enumerate(masks) if mask < limit)

    adj = _sorted_adjacency(net)
    best = ()
    route_value = -1.0

    def descend(points: tuple, edges: tuple, width: float):
        # Every route through an extension is at most as wide as it, so one
        # no wider than the best route so far can only tie, never win.
        nonlocal best, route_value
        for other, eid, cap in adj[points[-1]]:
            narrowed = cap if cap < width else width  # min(width, cap)
            if narrowed <= route_value or other in points:
                continue
            if other == bob:
                route_value = narrowed
                best = points + (bob,), edges + (eid,)
            else:
                descend(points + (other,), edges + (eid,), narrowed)

    # Alice and bob are connected, so a route exists.
    descend((alice,), (), math.inf)
    return BruteForceSinglePath(
        route_value=route_value,
        cut_value=cut_value,
        best_route=Route(*best),
        min_cut=make_cut(net, [alice, *(p for k, p in enumerate(_interior(net)) if winner >> k & 1)]),
    )


def brute_multi_path_capacity(net: QNetwork) -> float:
    """Minimum over enumerated cuts of the total crossing capacity.

    The answer is, bit for bit, the smallest correctly rounded sum of a
    crossing set over all 2^(|P|-2) bipartitions, whatever the order of the
    edges; 0.0 when alice and bob are disconnected (some bipartition has an
    empty crossing set), matching the 0-flow convention of ``max_flow``.

    Method.  Every finite float is an integer over a power of two, so
    scaling the capacities by the largest of their denominators makes each
    an exact int, and every total below is exact.  A side A holding alice is
    crossed by d(A) - 2 w(A) of capacity, where d(A) sums its points'
    incident capacities and w(A) the capacities of the edges inside A.  One
    pass over the edges gives each point's d and the capacity w between
    each pair of points.  The values V_i then follow in
    :func:`_crossing_masks`' index order by doubling: interior point k adds
    D_k[i] = d(p_k) - 2 W_k[i] to V_i, where W_k[i] is the capacity between
    p_k and alice's side of bipartition i.  D_k doubles the same way, from
    d(p_k) - 2 w(p_k, alice) down by 2 w(p_k, p_j) for each earlier
    interior point p_j on that side.  Rounding is monotone, so the smallest
    correctly rounded cut sum is min V divided by the scale, which int true
    division rounds once, correctly.  A minimum beyond float range (every
    cut sums past it) raises :class:`ValidationError`, as in ``max_flow``.
    """
    _check_size(net)
    ratios = [cap.as_integer_ratio() for cap in net.capacities.values()]
    # Every denominator is a power of two, so each divides the largest.
    scale = max((den for _, den in ratios), default=1)
    interior = _interior(net)
    # Slot 0 is alice and slot k > 0 the interior point of bit k - 1; bob's
    # slot, the last, is never read.
    slot = {point: k for k, point in enumerate([net.alice, *interior, net.bob])}
    degree = [0] * len(slot)
    between = [[0] * len(slot) for _ in slot]
    for edge, (num, den) in zip(net.edges, ratios):
        cap = num * (scale // den)
        ku, kv = slot[edge.u], slot[edge.v]
        degree[ku] += cap
        degree[kv] += cap
        between[ku][kv] += cap
        between[kv][ku] += cap
    values = [degree[0]]
    for k in range(1, len(slot) - 1):
        step = [degree[k] - 2 * between[k][0]]
        for w2 in [2 * w for w in between[k][1:k]]:
            step += [v - w2 for v in step] if w2 else step
        values += list(map(add, values, step))
    try:
        return min(values) / scale
    except OverflowError:
        raise ValidationError(_EVERY_CUT) from None
