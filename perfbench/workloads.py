"""Seeded input generators for the three benchmark workloads.

Everything here is standard library and independent of ``qnetcap``: the
program under test only ever sees the JSON documents and argv lists built
here.  The same seed always yields byte-identical inputs.

* ``fiber-mesh``: three large networks of about 2e4 edges each (a square
  grid, a random geometric fiber graph, a long repeater chain).
* ``small-referee``: a few hundred 8-12 point networks drawn from the
  referee distribution of the test suite (mixed channel kinds, occasional
  parallel edges, alice and bob connected).
* ``loss-sweep``: the ``sweep`` and ``compare-multiband`` CSV commands over
  0-200 dB; the seed does not change them.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

#: Fiber attenuation used for every generated span: eta = 10**(-0.02 km).
DB_PER_KM = 0.2

#: Full-size and scaling-check parameters of the fiber-mesh networks.  The
#: "small" set has about a tenth of the edges, for the traced run's slopes.
MESH_SIZES = {
    "full": {"grid_side": 100, "fiber_points": 5000, "chain_hops": 3000},
    "small": {"grid_side": 32, "fiber_points": 500, "chain_hops": 300},
}
FIBER_KM2_PER_POINT = 200.0  # 5,000 points on 1000 x 1000 km
FIBER_MEAN_DEGREE = 8.0  # spans up to about 22.6 km
FIBER_DUCTS = 8  # parallel/multiband ducts added on top of the geometric graph
GRID_SPAN_KM = (5.0, 40.0)
CHAIN_SPAN_KM = (2.0, 20.0)
#: Bob is a user site behind one access span longer than any backbone span.
#: That span is then the bottleneck of every mesh network and the only edge
#: of its minimum cut, so all certifying cuts hold every point but bob.
#: Without it the bottleneck sat next to alice or next to bob by a coin flip
#: of the seed, and since building a cut costs time in proportion to its
#: size, the flip alone decided whether ``network --mode single`` on the
#: grid took 0.3 s or 1.2 s.
ACCESS_SPAN_KM = (45.0, 60.0)

REFEREE_SIZES = {"full": 300, "small": 30}
#: Independent input sets drawn per seed.  A run cycles through them, one per
#: round, so its figures rest on more than one draw of each network.
INPUT_SETS = {"fiber-mesh": 3, "small-referee": 3, "loss-sweep": 1}
REFEREE_POINTS = (8, 12)
#: Draws with more simple alice-bob routes than this are redrawn (about 4%
#: of them).  Route counts have a heavy tail (the largest of 600 draws held
#: 7e4 to 2.7e5 routes across six seeds) and the oracle holds every route in
#: memory at once, so one such draw would set a run's peak memory and much
#: of its time by itself.
REFEREE_MAX_ROUTES = 20_000

SWEEP_REPEATERS = "0,1,2,5,10,20,50,100,1000"
COMPARE_BANDS = "1,10,100"
COMPARE_REPEATERS = "1,2,10"
SWEEP_STEPS = {"full": "0.01", "small": "0.1"}
SWEEP_STOP_DB = "200"


def _lossy(km: float) -> dict:
    return {"kind": "lossy", "eta": 10.0 ** (-DB_PER_KM * km / 10.0)}


def _doc(points, alice, bob, edges) -> dict:
    return {"points": list(points), "alice": alice, "bob": bob, "edges": edges}


def _edge(index: int, u: str, v: str, channel: dict) -> dict:
    return {"id": f"e{index}", "u": u, "v": v, "channel": channel}


def _with_access(doc: dict, site: str, rng: random.Random) -> dict:
    """Attach bob to ``site`` by one access span."""
    doc["points"].append("bob")
    doc["edges"].append(_edge(len(doc["edges"]), site, "bob", _lossy(rng.uniform(*ACCESS_SPAN_KM))))
    doc["bob"] = "bob"
    return doc


def grid_network(side: int, rng: random.Random) -> dict:
    """side x side grid of lossy spans; alice at one corner, bob's access
    span at the opposite one."""
    name = lambda i, j: f"g{i}_{j}"  # noqa: E731
    points = [name(i, j) for i in range(side) for j in range(side)]
    edges = []
    for i in range(side):
        for j in range(side):
            for ii, jj in ((i, j + 1), (i + 1, j)):
                if ii < side and jj < side:
                    edges.append(
                        _edge(len(edges), name(i, j), name(ii, jj), _lossy(rng.uniform(*GRID_SPAN_KM)))
                    )
    return _with_access(_doc(points, name(0, 0), None, edges), name(side - 1, side - 1), rng)


def chain_network(hops: int, rng: random.Random) -> dict:
    """Repeater chain a - r1 - ... - bob of ``hops`` lossy links, the last
    one bob's access span."""
    points = ["a"] + [f"r{i}" for i in range(1, hops)]
    edges = [
        _edge(i, points[i], points[i + 1], _lossy(rng.uniform(*CHAIN_SPAN_KM)))
        for i in range(hops - 1)
    ]
    return _with_access(_doc(points, "a", None, edges), points[-1], rng)


def _components(n: int, pairs) -> list[int]:
    """Component label per vertex (union-find over the given pairs)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        parent[find(u)] = find(v)
    return [find(x) for x in range(n)]


def fiber_network(n_points: int, rng: random.Random) -> dict:
    """Random geometric fiber graph at FIBER_KM2_PER_POINT.

    Points closer than the radius giving FIBER_MEAN_DEGREE are joined by a
    lossy span of that length.  A few extra ducts run in parallel to existing
    spans, some as multiband channels.  Alice is the point of the largest
    component nearest to one corner; bob's access span attaches to the one
    nearest the opposite corner.
    """
    side = math.sqrt(FIBER_KM2_PER_POINT * n_points)
    xy = [(rng.uniform(0.0, side), rng.uniform(0.0, side)) for _ in range(n_points)]
    radius = math.sqrt(FIBER_MEAN_DEGREE * FIBER_KM2_PER_POINT / math.pi)
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(xy):
        buckets.setdefault((int(x // radius), int(y // radius)), []).append(i)
    spans = []
    for i, (x, y) in enumerate(xy):
        cx, cy = int(x // radius), int(y // radius)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for j in buckets.get((cx + dx, cy + dy), ()):
                    if j > i:
                        km = math.hypot(x - xy[j][0], y - xy[j][1])
                        if km <= radius:
                            # Co-located sites still see connector loss.
                            spans.append((i, j, max(km, 0.5)))
    names = [f"f{i}" for i in range(n_points)]
    edges = [_edge(k, names[i], names[j], _lossy(km)) for k, (i, j, km) in enumerate(spans)]
    for i, j, km in rng.sample(spans, FIBER_DUCTS):
        channel = _lossy(km)
        if rng.random() < 0.5:
            channel = {"kind": "multiband_lossy", "eta": channel["eta"], "bands": rng.randint(2, 4)}
        edges.append(_edge(len(edges), names[i], names[j], channel))

    label = _components(n_points, [(i, j) for i, j, _ in spans])
    counts: dict[int, int] = {}
    for root in label:
        counts[root] = counts.get(root, 0) + 1
    biggest = max(counts, key=lambda r: (counts[r], -r))
    members = [i for i in range(n_points) if label[i] == biggest]
    alice = min(members, key=lambda i: math.hypot(*xy[i]))
    site = min(members, key=lambda i: math.hypot(side - xy[i][0], side - xy[i][1]))
    return _with_access(_doc(names, names[alice], None, edges), names[site], rng)


def mesh_networks(seed: int, scale: str = "full", index: int = 0) -> list[tuple[str, dict]]:
    """Input set ``index`` of fiber-mesh as (label, document) pairs."""
    size = MESH_SIZES[scale]
    rng = random.Random(f"fiber-mesh/{scale}/{seed}/{index}")
    return [
        ("grid", grid_network(size["grid_side"], rng)),
        ("fiber", fiber_network(size["fiber_points"], rng)),
        ("chain", chain_network(size["chain_hops"], rng)),
    ]


# --- small-referee ---------------------------------------------------------


def random_channel(rng: random.Random) -> dict:
    """One channel object; the same kind mix and ranges as the test suite."""
    kind = rng.randrange(5)
    if kind == 0:
        return {"kind": "lossy", "eta": rng.uniform(0.05, 0.95)}
    if kind == 1:
        return {"kind": "amplifier", "gain": rng.uniform(1.05, 4.0)}
    if kind == 2:
        d = rng.choice((2, 3))
        raw = [rng.random() + 1e-3 for _ in range(d)]
        total = sum(raw)
        return {"kind": "dephasing", "probs": [x / total for x in raw], "dim": d}
    if kind == 3:
        return {"kind": "erasure", "p": rng.uniform(0.0, 0.9), "dim": rng.choice((2, 3, 4))}
    return {"kind": "multiband_lossy", "eta": rng.uniform(0.05, 0.95), "bands": rng.randint(1, 4)}


def _adjacency(doc: dict) -> dict[str, list[str]]:
    adj: dict[str, list[str]] = {p: [] for p in doc["points"]}
    for e in doc["edges"]:
        adj[e["u"]].append(e["v"])
        adj[e["v"]].append(e["u"])
    return adj


def simple_routes(doc: dict, limit: int) -> int:
    """Number of simple alice-bob routes (parallel edges count apart),
    counting stops once it passes ``limit``."""
    adj = _adjacency(doc)
    on_path = {doc["alice"]}
    count = 0

    def descend(point):
        nonlocal count
        for other in adj[point]:
            if count > limit:
                return
            if other in on_path:
                continue
            if other == doc["bob"]:
                count += 1
                continue
            on_path.add(other)
            descend(other)
            on_path.remove(other)

    descend(doc["alice"])
    return count


def connected(doc: dict) -> bool:
    """True iff alice and bob share a component of the document's graph."""
    adj = _adjacency(doc)
    seen = {doc["alice"]}
    stack = [doc["alice"]]
    while stack:
        for other in adj[stack.pop()]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return doc["bob"] in seen


def referee_network(rng: random.Random, n: int) -> dict:
    """Erdos-Renyi draw on ``n`` points at p = 0.5 with forced end-point
    attachment and an occasional parallel edge, redrawn until alice and bob
    are joined by at least one and at most REFEREE_MAX_ROUTES simple routes."""
    while True:
        points = ["a", "b"] + [f"p{i}" for i in range(1, n - 1)]
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
        edges = [_edge(i, u, v, random_channel(rng)) for i, (u, v) in enumerate(pairs)]
        doc = _doc(points, "a", "b", edges)
        if 0 < simple_routes(doc, REFEREE_MAX_ROUTES) <= REFEREE_MAX_ROUTES:
            return doc


def referee_networks(seed: int, scale: str = "full", index: int = 0) -> list[dict]:
    """Input set ``index`` of small-referee: equally many networks of each
    size in REFEREE_POINTS, interleaved.  Oracle cost doubles with each
    point, so a seed's share of large networks would otherwise move the
    median op time by itself (a spread of 0.14 across five seeds)."""
    rng = random.Random(f"small-referee/{scale}/{seed}/{index}")
    low, high = REFEREE_POINTS
    sizes = range(low, high + 1)
    return [referee_network(rng, sizes[i % len(sizes)]) for i in range(REFEREE_SIZES[scale])]


# --- loss-sweep ------------------------------------------------------------


def sweep_commands(scale: str = "full") -> list[tuple[str, list[str]]]:
    """(kind, argv without --out) for the two CSV commands."""
    step = SWEEP_STEPS[scale]
    grid = ["--start", "0", "--stop", SWEEP_STOP_DB, "--step", step]
    return [
        ("sweep", ["sweep", *grid, "--repeaters", SWEEP_REPEATERS]),
        ("compare", ["compare-multiband", *grid, "--bands", COMPARE_BANDS, "--repeaters", COMPARE_REPEATERS]),
    ]
