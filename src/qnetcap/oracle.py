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
  :func:`brute_multi_path_capacity` first approximates every bipartition's
  total crossing capacity from per-point totals, one list step each, and
  sums exactly, in edge order, only the bipartitions that a rounding bound
  cannot rule out; its answer is the exhaustive minimum bit for bit.
- The route side is an exhaustive depth-first search over the simple
  alice-bob routes, each point's ``(neighbour, edge id, capacity)`` triples
  taken in sorted order, with a bound: it drops any partial route no wider
  than the best complete one found so far, so no route list is ever built.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from operator import add

from .errors import NoRoute, TooLarge
from .network import _ONE_CUT, Cut, QNetwork, Route, _finite_multi_edge_value, make_cut

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


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _selected(items, mask: int):
    """The items at the set bits of ``mask`` (bit i selects ``items[i]``), in order."""
    return compress(items, format(mask, "b")[::-1].encode().translate(_BIT_FLAGS))


def enumerate_cuts(net: QNetwork) -> tuple[CutRecord, ...]:
    """Every alice/bob bipartition with its single- and multi-edge values.

    One :class:`CutRecord` per bipartition, in bipartition order: record m
    puts the k-th interior point on alice's side iff bit k of m is set.
    Raises :class:`ValidationError` if any cut's multi-edge value is beyond
    float range, as :func:`~qnetcap.network.cut_multi_edge_value` does.
    """
    _check_size(net)
    caps = list(net.capacities.values())
    edge_ids = [e.edge_id for e in net.edges]
    interior = _interior(net)
    ordered = sorted(net.points)
    records = []
    for index, mask in enumerate(_crossing_masks(net, net.edges)):
        side_a = {net.alice, *_selected(interior, index)}
        crossing = list(_selected(caps, mask))
        records.append(
            CutRecord(
                cut=Cut(
                    side_a=tuple(p for p in ordered if p in side_a),
                    side_b=tuple(p for p in ordered if p not in side_a),
                    cut_set=tuple(_selected(edge_ids, mask)),
                ),
                single_edge_value=max(crossing, default=None),
                multi_edge_value=_finite_multi_edge_value(sum(crossing, 0.0), _ONE_CUT),
            )
        )
    return tuple(records)


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
    ``min_cut`` the first bipartition of :func:`enumerate_cuts` with the
    smallest largest crossing capacity.
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
        min_cut=make_cut(net, [alice, *_selected(_interior(net), winner)]),
    )


def brute_multi_path_capacity(net: QNetwork) -> float:
    """Minimum over enumerated cuts of the total crossing capacity.

    The answer is, bit for bit, the smallest edge-order float sum of a
    crossing set over all 2^(|P|-2) bipartitions; 0.0 when alice and bob are
    disconnected (some bipartition has an empty crossing set), matching the
    0-flow convention of ``max_flow``.

    Method.  A side A holding alice is crossed by d(A) - 2 w(A) of capacity,
    where d(A) sums its points' incident capacities and w(A) the capacities
    of the edges inside A.  One pass over the edges gives each point's d,
    the capacity w between each pair of points and the total T.  The
    approximate values V_i then follow in :func:`_crossing_masks`' index
    order by the same doubling: interior point k adds D_k[i] = d(p_k) -
    2 W_k[i] to V_i, where W_k[i] is the capacity between p_k and alice's
    side of bipartition i.  D_k doubles the same way, from d(p_k) -
    2 w(p_k, alice) down by 2 w(p_k, p_j) for each earlier interior point
    p_j on that side.  Only the bipartitions with V_i <= min V + tol get an
    exact edge-order sum S_i.

    Bound.  Let u = 2^-53, n = |P| - 2, m = |E|, C_i the real cut value and
    g_j = j u / (1 - j u).  Capacities are non-negative, so
    - B = g_m T bounds |S_i - C_i|: a sum of at most m terms, all <= T;
    - A = (4 g_m + 3 n u) T bounds |V_i - C_i|: each d and w sums at most
      m capacities, and on one side the d's add up to <= 2T and the doubled
      w's to <= 2T; each D_k[i] takes <= n roundings of values in
      [-d(p_k), d(p_k)], <= 2 n u T on one side; and each of the <= n
      steps V + D rounds once on a value <= T.
    If S_j is the minimum, V_j <= S_j + A + B and every V_i >= S_i - A - B
    >= S_j - A - B, so V_j - min V <= 2 (A + B), about (10 m + 6 n) u T.
    tol = 32 (|P| + |E|) ulp(T) >= 32 (|P| + |E|) u T covers that, the
    second-order terms and the rounding of min V + tol, and is itself exact
    (a power of two times an integer).  A bipartition left out has
    S_i >= V_i - A - B > min V + tol - A - B >= S_j.

    Range.  No intermediate exceeds 2T, and every capacity is finite, but T
    need not be: should 4T overflow, no V_i is trusted and every bipartition
    is summed exactly, so a minimum cut inside float range is still found
    exactly.  A minimum that reads ``inf`` (every cut beyond float range)
    raises :class:`ValidationError`, as in ``max_flow``.
    """
    _check_size(net)
    caps = list(net.capacities.values())
    interior = _interior(net)
    # Slot 0 is alice and slot k > 0 the interior point of bit k - 1; bob's
    # slot, the last, is never read.
    slot = {point: k for k, point in enumerate([net.alice, *interior, net.bob])}
    degree = [0.0] * len(slot)
    between = [[0.0] * len(slot) for _ in slot]
    for edge, cap in zip(net.edges, caps):
        ku, kv = slot[edge.u], slot[edge.v]
        degree[ku] += cap
        degree[kv] += cap
        between[ku][kv] += cap
        between[kv][ku] += cap
    approx = [degree[0]]
    for k in range(1, len(slot) - 1):
        step = [degree[k] - 2.0 * between[k][0]]
        for w2 in [2.0 * w for w in between[k][1:k]]:
            step += [v - w2 for v in step] if w2 else step
        approx += list(map(add, approx, step))

    total = sum(caps, 0.0)
    if math.isfinite(4.0 * total):
        bound = min(approx) + 32 * (len(net.points) + len(caps)) * math.ulp(total)
        candidates = [index for index, v in enumerate(approx) if v <= bound]
    else:
        candidates = range(len(approx))
    sides = ({net.alice, *_selected(interior, index)} for index in candidates)
    value = min(
        sum(compress(caps, [(e.u in side) != (e.v in side) for e in net.edges]), 0.0)
        for side in sides
    )
    return _finite_multi_edge_value(value)
