"""Shared fixtures: hand-built topologies and the seeded random suite.

The random suite is the referee corpus for the duality and cross-algorithm
checks: connected networks with 3..8 points, mixed channel kinds, occasional
parallel edges, all drawn from one fixed seed so every run sees the same
networks.
"""

import random
from itertools import combinations

import pytest

from qnetcap import (
    Edge,
    QNetwork,
    amplifier,
    dephasing,
    erasure,
    is_connected,
    lossy,
    multiband_lossy,
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


def path_network(specs):
    """Chain rendered as a network: a - r1 - ... - b with the given channels."""
    names = ["a"] + [f"r{i}" for i in range(1, len(specs))] + ["b"]
    edges = [
        (f"e{i}", names[i], names[i + 1], spec) for i, spec in enumerate(specs)
    ]
    return build_network(names, edges)


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


def random_connected_network(rng, min_points=3, max_points=8):
    """One connected network drawn from the generator distribution.

    Edge slots follow an Erdos-Renyi draw at p = 0.5, alice and bob each get
    a forced attachment if left isolated, and with probability 0.3 one
    existing pair gains a parallel edge.  Candidates are redrawn until alice
    and bob are connected.
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
            (f"e{i}", u, v, random_channel(rng)) for i, (u, v) in enumerate(pairs)
        ]
        net = build_network(points, edges)
        if is_connected(net):
            return net


@pytest.fixture(scope="session")
def network_suite():
    rng = random.Random(SUITE_SEED)
    return [random_connected_network(rng) for _ in range(SUITE_SIZE)]
