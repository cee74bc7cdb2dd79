"""Independent checks of every answer the benchmark collects.

Nothing here imports ``qnetcap``: capacities are recomputed from the channel
objects of the input documents with this file's own formulas, and each
answer is checked through its certificate (a feasible route or flow whose
value matches a cut), plus an own widest-path search and, for the CSV
commands, a log1p reference on every cell and a decimal one on a sample of
rows.  Each ``check_*`` function returns a list of problems; empty means the
answer is right.
"""

from __future__ import annotations

import decimal
import heapq
import math

#: One printed unit: every CLI number carries 9 decimals.
CAPACITY_TOL = 1e-9
#: A printed number is rounded to the nearest printed unit.
_HALF_UNIT = 5e-10
_LN2 = math.log(2.0)
_DB_PER_KM = 0.2
#: Rows of a CSV that are also checked against a decimal reference.
DECIMAL_ROW_STRIDE = 97


def channel_capacity(ch: dict) -> float:
    """Two-way capacity in bits/use of one channel object."""
    kind = ch["kind"]
    if kind == "lossy":
        return -math.log1p(-ch["eta"]) / _LN2
    if kind == "multiband_lossy":
        return -ch["bands"] * math.log1p(-ch["eta"]) / _LN2
    if kind == "amplifier":
        return -math.log1p(-1.0 / ch["gain"]) / _LN2
    if kind == "erasure":
        return (1.0 - ch["p"]) * math.log2(ch["dim"])
    if kind == "dephasing":
        probs = ch["probs"]
        entropy = -math.fsum(p * math.log2(p) for p in probs if p > 0.0)
        return max(0.0, math.log2(len(probs)) - entropy)
    raise ValueError(f"unknown channel kind {kind!r}")


class Graph:
    """Edge table and capacities of one network document."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.alice = doc["alice"]
        self.bob = doc["bob"]
        self.points = set(doc["points"])
        self.edges = {e["id"]: (e["u"], e["v"]) for e in doc["edges"]}
        self.order = [e["id"] for e in doc["edges"]]
        self.cap = {e["id"]: channel_capacity(e["channel"]) for e in doc["edges"]}

    def crossing(self, side_a) -> list[str]:
        side_a = set(side_a)
        return [eid for eid in self.order if (self.edges[eid][0] in side_a) != (self.edges[eid][1] in side_a)]

    def widths(self) -> dict[str, float]:
        """Best bottleneck capacity of an alice-to-p path for every reachable
        point p (own Dijkstra; infinite at alice)."""
        adj: dict[str, list[tuple[str, float]]] = {p: [] for p in self.points}
        for eid, (u, v) in self.edges.items():
            adj[u].append((v, self.cap[eid]))
            adj[v].append((u, self.cap[eid]))
        best = {self.alice: math.inf}
        heap = [(-math.inf, self.alice)]
        done = set()
        while heap:
            neg, point = heapq.heappop(heap)
            if point in done:
                continue
            done.add(point)
            for other, cap in adj[point]:
                width = min(-neg, cap)
                if width > best.get(other, -1.0):
                    best[other] = width
                    heapq.heappush(heap, (-width, other))
        return best

    def widest_value(self) -> float:
        """Largest bottleneck capacity of an alice-bob path."""
        return self.widths()[self.bob]


def close(a: float, b: float) -> bool:
    """Equal within CAPACITY_TOL, relative above 1."""
    return abs(a - b) <= CAPACITY_TOL * max(1.0, abs(b))


# --- CLI text ----------------------------------------------------------------


def _field(lines: list[str], prefix: str) -> str:
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    raise ValueError(f"missing {prefix!r} line")


def _names(text: str) -> list[str]:
    return text.split(",") if text else []


def parse_single(text: str) -> dict:
    """Route report from the text of ``network --mode single``."""
    lines = text.splitlines()
    return {
        "capacity": float(_field(lines, "capacity: ").removesuffix(" bits/use")),
        "route_points": _field(lines, "route: ").split(" -> "),
        "route_edges": _names(_field(lines, "route_edges: ")),
        "bottleneck": _field(lines, "bottleneck_edge: "),
        "side_a": _names(_field(lines, "dual_cut_side_a: ")),
        "cut_edges": _names(_field(lines, "dual_cut_edges: ")),
    }


def parse_multi(text: str) -> dict:
    """Flow report from the text of ``network --mode multi``."""
    lines = text.splitlines()
    rates = []
    for line in lines:
        if line.startswith("rate "):
            head, rate = line[len("rate "):].rsplit(": ", 1)
            eid, ends = head.split(" ", 1)
            u, v = ends.split("->")
            rates.append((eid, u, v, float(rate)))
    return {
        "value": float(_field(lines, "capacity: ").removesuffix(" bits/use")),
        "rates": rates,
        "side_a": _names(_field(lines, "min_cut_side_a: ")),
        "cut_edges": _names(_field(lines, "min_cut_edges: ")),
    }


# --- route, flow and cut certificates ---------------------------------------


def _check_cut(g: Graph, side_a, cut_edges) -> list[str]:
    problems = []
    if g.alice not in side_a or g.bob in side_a:
        problems.append("cut side must hold alice and not bob")
    if not set(side_a) <= g.points:
        problems.append("cut side names an unknown point")
    if list(cut_edges) != g.crossing(side_a):
        problems.append("cut edges differ from the edges crossing the cut side")
    return problems


def check_route(g: Graph, ans: dict, reference: float) -> list[str]:
    """Route report: a real alice-bob path whose bottleneck and dual cut both
    equal the capacity, and the capacity equals the reference widest path."""
    problems = []
    pts, eids, value = ans["route_points"], ans["route_edges"], ans["capacity"]
    if not pts or pts[0] != g.alice or pts[-1] != g.bob:
        problems.append("route does not run from alice to bob")
    if len(eids) != len(pts) - 1:
        problems.append("route has the wrong number of edges")
    else:
        for eid, u, v in zip(eids, pts, pts[1:]):
            if eid not in g.edges or set(g.edges[eid]) != {u, v}:
                problems.append(f"route edge {eid!r} does not join {u!r} and {v!r}")
                break
    if len(set(pts)) != len(pts):
        problems.append("route revisits a point")
    if problems:
        return problems
    if not close(min(g.cap[e] for e in eids), value):
        problems.append("route bottleneck differs from the capacity")
    if ans["bottleneck"] not in eids or not close(g.cap[ans["bottleneck"]], value):
        problems.append("bottleneck edge is off the route or has another capacity")
    cut_problems = _check_cut(g, ans["side_a"], ans["cut_edges"])
    problems += cut_problems
    if not cut_problems and not close(max(g.cap[e] for e in ans["cut_edges"]), value):
        problems.append("largest dual-cut edge differs from the capacity")
    if not close(value, reference):
        problems.append("capacity differs from the reference widest path")
    return problems


def check_flow(g: Graph, ans: dict, reference_single: float, rounded: bool = True) -> list[str]:
    """Flow report: capacity bounds, conservation, value, min-cut total, and
    multi >= single - CAPACITY_TOL."""
    problems = []
    unit = _HALF_UNIT if rounded else 0.0
    value = ans["value"]
    net = {p: 0.0 for p in g.points}
    degree = {p: 0 for p in g.points}
    if [r[0] for r in ans["rates"]] != g.order:
        return ["rates do not list every edge once, in input order"]
    for eid, u, v, rate in ans["rates"]:
        if (u, v) != g.edges[eid]:
            return [f"rate line of {eid!r} names the wrong end-points"]
        if abs(rate) > g.cap[eid] + CAPACITY_TOL:
            problems.append(f"rate on {eid!r} exceeds its capacity")
        net[u] += rate
        net[v] -= rate
        degree[u] += 1
        degree[v] += 1
    for p in g.points - {g.alice, g.bob}:
        if abs(net[p]) > CAPACITY_TOL + unit * degree[p]:
            problems.append(f"flow is not conserved at {p!r}")
            break
    if abs(net[g.alice] - value) > CAPACITY_TOL + unit * (degree[g.alice] + 1):
        problems.append("net outflow from alice differs from the value")
    cut_problems = _check_cut(g, ans["side_a"], ans["cut_edges"])
    problems += cut_problems
    if not cut_problems:
        total = math.fsum(g.cap[e] for e in ans["cut_edges"])
        if abs(total - value) > CAPACITY_TOL * max(1.0, value) + 1e-12 * len(ans["cut_edges"]):
            problems.append("min-cut total differs from the value")
    if value < reference_single - CAPACITY_TOL:
        problems.append("multi-path value is below the single-path value")
    return problems


# --- CSV commands ------------------------------------------------------------


def _equidistant(loss_db: float, n: int) -> float:
    if loss_db == 0.0:
        return math.inf
    root = math.exp(-loss_db * math.log(10.0) / (10.0 * (n + 1)))
    return -math.log1p(-root) / _LN2


def _equidistant_decimal(loss_db: str, n: int) -> float:
    ctx = decimal.Context(prec=40)
    loss = decimal.Decimal(loss_db)
    root = ctx.exp(ctx.divide(-loss * ctx.ln(decimal.Decimal(10)), 10 * (n + 1)))
    return float(-ctx.ln(1 - root) / ctx.ln(decimal.Decimal(2)))


def _cell_ok(cell: str, expected: float) -> bool:
    if math.isinf(expected):
        return cell == "inf"
    return abs(float(cell) - expected) <= CAPACITY_TOL


def _flag_value(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check_csv(argv: list[str], text: str) -> list[str]:
    """CSV from ``sweep`` or ``compare-multiband`` against own references."""
    start, stop, step = (float(_flag_value(argv, f)) for f in ("--start", "--stop", "--step"))
    repeaters = [int(x) for x in _flag_value(argv, "--repeaters").split(",")]
    compare = argv[0] == "compare-multiband"
    bands = [int(x) for x in _flag_value(argv, "--bands").split(",")] if compare else []
    header = ["loss_db"] + (["distance_km"] if compare else [])
    header += [f"M{m}" for m in bands] + [f"N{n}" for n in repeaters]
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != ",".join(header):
        return ["CSV header or final newline is wrong"]
    rows = lines[1:-1]
    if len(rows) != int((stop - start) / step + 1e-9) + 1:
        return ["CSV has the wrong number of rows"]
    for i, line in enumerate(rows):
        cells = line.split(",")
        if len(cells) != len(header):
            return [f"CSV row {i} has {len(cells)} cells"]
        loss = start + i * step
        if abs(float(cells[0]) - loss) > 1e-5 * max(1.0, loss):
            return [f"CSV row {i}: loss_db {cells[0]} is off the grid"]
        values = cells[1:]
        if compare:
            if abs(float(values[0]) - loss / _DB_PER_KM) > 1e-5 * max(1.0, loss / _DB_PER_KM):
                return [f"CSV row {i}: distance {values[0]} is wrong"]
            values = values[1:]
        p2p = _equidistant(loss, 0)
        expected = [m * p2p for m in bands] + [_equidistant(loss, n) for n in repeaters]
        for cell, want in zip(values, expected):
            if not _cell_ok(cell, want):
                return [f"CSV row {i}: cell {cell} differs from {want!r}"]
        if i % DECIMAL_ROW_STRIDE == 1:
            for cell, n in zip(values[len(bands):], repeaters):
                if not _cell_ok(cell, _equidistant_decimal(cells[0], n)):
                    return [f"CSV row {i}: N{n} cell {cell} differs from the decimal reference"]
    return []
