"""Shared fixtures: hand-built topologies and the seeded random suite.

The random suite is the referee corpus for the duality and cross-algorithm
checks: connected networks with 3..8 points, mixed channel kinds, occasional
parallel edges, all drawn from one fixed seed so every run sees the same
networks.  :func:`enumerate_cuts` is the plain cut enumeration the oracle
and the solvers are checked against.
"""

import math
import os
import pathlib
import random
import subprocess
import sys
from dataclasses import dataclass
from itertools import combinations

import pytest

import qnetcap
from qnetcap import (
    Cut,
    Edge,
    QNetwork,
    TooLarge,
    amplifier,
    dephasing,
    erasure,
    is_connected,
    lossy,
    multiband_lossy,
    oracle,
)

SUITE_SEED = 20250808
SUITE_SIZE = 500

#: Network documents repeating one key, by where the key repeats.  JSON
#: decoders keep the last value by default.
DUPLICATE_KEY_DOCS = {
    "top-level": '{"points": ["a", "b"], "points": ["a", "b"], "alice": "a", "bob": "b",'
    ' "edges": []}',
    "edge": '{"points": ["a", "b"], "alice": "a", "bob": "b", "edges": [{"id": "e0", "u": "a",'
    ' "v": "b", "u": "a", "channel": {"kind": "lossy", "eta": 0.5}}]}',
    "channel": '{"points": ["a", "b"], "alice": "a", "bob": "b", "edges": [{"id": "e0", "u": "a",'
    ' "v": "b", "channel": {"kind": "lossy", "eta": 0.5, "eta": 0.9}}]}',
}


def stdout_under_hash_seed(code: str, seed: str) -> str:
    """What ``code`` prints in a fresh interpreter under ``PYTHONHASHSEED=seed``."""
    src = pathlib.Path(qnetcap.__file__).parent.parent
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout


def build_network(point_names, edge_specs, alice="a", bob="b"):
    """edge_specs: iterable of (edge_id, u, v, ChannelSpec)."""
    return QNetwork(
        points=tuple(point_names),
        edges=tuple(Edge(eid, u, v, spec) for eid, u, v, spec in edge_specs),
        alice=alice,
        bob=bob,
    )


def diamond(eta=0.5):
    """Four points, five lossy edges: the classic route/cut showcase."""
    spec = lossy(eta)
    return build_network(
        ("a", "p1", "p2", "b"),
        [
            ("e1", "a", "p1", spec),
            ("e2", "a", "p2", spec),
            ("e3", "p1", "p2", spec),
            ("e4", "p1", "b", spec),
            ("e5", "p2", "b", spec),
        ],
    )


def weak_detour():
    """A 0.5 link a-b beside a detour a-p-b whose first hop is a 160 dB link:
    the detour carries ~1.4e-16 bits, a rate far below the 1-bit value."""
    return build_network(
        ("a", "b", "p"),
        [("e0", "a", "b", lossy(0.5)), ("e1", "a", "p", lossy(1e-16)), ("e2", "p", "b", lossy(0.5))],
    )


def path_network(specs):
    """Chain rendered as a network: a - r1 - ... - b with the given channels."""
    names = ["a"] + [f"r{i}" for i in range(1, len(specs))] + ["b"]
    edges = [
        (f"e{i}", names[i], names[i + 1], spec) for i, spec in enumerate(specs)
    ]
    return build_network(names, edges)


def check_exact_flow(net, report):
    """Assert a max-flow report's exact contracts, with no tolerance.

    No rate exceeds its edge's capacity, and exactly the edges with a
    nonzero rate are oriented.  Each rate is an exact net flow, correctly
    rounded, and the value the exact flow value, correctly rounded.  So at
    every point the terms that balance exactly (its signed rates, with the
    value taken out at alice and put back at bob) sum to at most half an
    ulp of each: a proven bound.
    """
    terms = {p: [] for p in net.points}
    terms[net.alice].append(-report.value)
    terms[net.bob].append(report.value)
    for edge in net.edges:
        rate = report.effective_rates[edge.edge_id]
        assert abs(rate) <= net.capacities[edge.edge_id], edge.edge_id
        assert (rate != 0.0) == (edge.edge_id in report.orientation), edge.edge_id
        terms[edge.u].append(rate)
        terms[edge.v].append(-rate)
    for point, at in terms.items():
        assert abs(math.fsum(at)) <= math.fsum(math.ulp(t) / 2 for t in at), point


@dataclass(frozen=True)
class CutRecord:
    """One bipartition's cut with both of its values.

    ``single_edge_value`` is the largest crossing capacity (None when the
    crossing set is empty) and ``multi_edge_value`` the correctly rounded
    crossing sum.
    """

    cut: Cut
    single_edge_value: float | None
    multi_edge_value: float


def enumerate_cuts(net):
    """Every alice/bob bipartition of ``net``, the plain way, with no mask,
    no oracle helper and no ``make_cut``.

    Record m puts the k-th interior point on alice's side iff bit k of m is
    set.  An edge crosses iff exactly one of its ends is on alice's side.
    """
    if len(net.points) > oracle.MAX_POINTS:
        raise TooLarge(f"{len(net.points)} points exceeds the enumeration cap of {oracle.MAX_POINTS}")
    interior = [p for p in net.points if p not in (net.alice, net.bob)]
    ordered = sorted(net.points)
    records = []
    for m in range(2 ** len(interior)):
        side_a = {net.alice, *(p for k, p in enumerate(interior) if m >> k & 1)}
        crossing = [e for e in net.edges if (e.u in side_a) != (e.v in side_a)]
        caps = [net.capacities[e.edge_id] for e in crossing]
        cut = Cut(
            side_a=tuple(p for p in ordered if p in side_a),
            side_b=tuple(p for p in ordered if p not in side_a),
            cut_set=tuple(e.edge_id for e in crossing),
        )
        records.append(CutRecord(cut, max(caps, default=None), math.fsum(caps)))
    return tuple(records)


def random_channel(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return lossy(rng.uniform(0.05, 0.95))
    if kind == 1:
        return amplifier(rng.uniform(1.05, 4.0))
    if kind == 2:
        d = rng.choice((2, 3))
        raw = [rng.random() + 1e-3 for _ in range(d)]
        total = sum(raw)
        return dephasing(tuple(x / total for x in raw))
    if kind == 3:
        return erasure(rng.uniform(0.0, 0.9), dim=rng.choice((2, 3, 4)))
    return multiband_lossy(rng.uniform(0.05, 0.95), rng.randint(1, 4))


def random_connected_network(rng, min_points=3, max_points=8, channel=random_channel):
    """One connected network drawn from the generator distribution.

    Edge slots follow an Erdos-Renyi draw at p = 0.5, alice and bob each get
    a forced attachment if left isolated, and with probability 0.3 one
    existing pair gains a parallel edge.  Each edge's channel is
    ``channel(rng)``.  Candidates are redrawn until alice and bob are
    connected.
    """
    while True:
        n = rng.randint(min_points, max_points)
        interior = [f"p{i}" for i in range(1, n - 1)]
        points = ["a", "b"] + interior
        pairs = [pair for pair in combinations(points, 2) if rng.random() < 0.5]
        degree = {p: 0 for p in points}
        for u, v in pairs:
            degree[u] += 1
            degree[v] += 1
        for endpoint in ("a", "b"):
            if degree[endpoint] == 0:
                other = rng.choice([p for p in points if p != endpoint])
                pairs.append((endpoint, other))
                degree[endpoint] += 1
                degree[other] += 1
        if pairs and rng.random() < 0.3:
            pairs.append(rng.choice(pairs))
        edges = [
            (f"e{i}", u, v, channel(rng)) for i, (u, v) in enumerate(pairs)
        ]
        net = build_network(points, edges)
        if is_connected(net):
            return net


@pytest.fixture(scope="session")
def network_suite():
    rng = random.Random(SUITE_SEED)
    return [random_connected_network(rng) for _ in range(SUITE_SIZE)]
