"""Undirected multigraph model of an end-to-end quantum network.

Points are opaque strings, edges carry a :class:`~qnetcap.channels.ChannelSpec`
and a unique id.  Channel direction is deliberately not stored: with two-way
classical assistance the optimal transmission does not depend on the physical
direction of a channel, so the undirected graph is the right model.

The JSON format accepted by :func:`parse_network` is bit-exact: unknown kinds
and extra fields are errors, and :func:`serialize_network` emits a normalized
document that round-trips byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import channels
from .channels import ChannelSpec, capacity
from .errors import InvalidParameter, NoRoute, ParseError, UnknownEdge, ValidationError


@dataclass(frozen=True)
class Edge:
    """One channel between two distinct points; parallel edges are allowed."""

    edge_id: str
    u: str
    v: str
    channel: ChannelSpec

    def other(self, point: str) -> str:
        if point == self.u:
            return self.v
        if point == self.v:
            return self.u
        raise ValidationError(f"edge {self.edge_id!r} is not incident to {point!r}")


@dataclass(frozen=True)
class QNetwork:
    """Immutable network of named points with two designated end-points."""

    points: tuple[str, ...]
    edges: tuple[Edge, ...]
    alice: str
    bob: str

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "edges", tuple(self.edges))
        seen = set()
        for name in self.points:
            if not isinstance(name, str) or not name:
                raise ValidationError(f"point name {name!r} must be a non-empty string")
            if name in seen:
                raise ValidationError(f"duplicate point name {name!r}")
            seen.add(name)
        if self.alice == self.bob:
            raise ValidationError("alice and bob must be distinct points")
        for role, name in (("alice", self.alice), ("bob", self.bob)):
            if name not in seen:
                raise ValidationError(f"{role} {name!r} is not a declared point")
        ids = set()
        for edge in self.edges:
            if not isinstance(edge.edge_id, str) or not edge.edge_id:
                raise ValidationError(f"edge id {edge.edge_id!r} must be a non-empty string")
            if edge.edge_id in ids:
                raise ValidationError(f"duplicate edge id {edge.edge_id!r}")
            ids.add(edge.edge_id)
            for endpoint in (edge.u, edge.v):
                if endpoint not in seen:
                    raise ValidationError(
                        f"edge {edge.edge_id!r}: endpoint {endpoint!r} is not a declared point"
                    )
            if edge.u == edge.v:
                raise ValidationError(f"edge {edge.edge_id!r}: self-loops are not allowed")

    def edge(self, edge_id: str) -> Edge:
        for edge in self.edges:
            if edge.edge_id == edge_id:
                return edge
        raise UnknownEdge(edge_id)

    def adjacency(self) -> dict[str, list[Edge]]:
        """Incidence lists in declaration order; rebuilt per call, never cached."""
        adj: dict[str, list[Edge]] = {p: [] for p in self.points}
        for edge in self.edges:
            adj[edge.u].append(edge)
            adj[edge.v].append(edge)
        return adj


@dataclass(frozen=True)
class Route:
    """Simple alice-to-bob path: point sequence plus the edges joining it."""

    point_sequence: tuple[str, ...]
    edge_sequence: tuple[str, ...]


@dataclass(frozen=True)
class Cut:
    """Alice/Bob bipartition of the points with its derived crossing edges."""

    side_a: tuple[str, ...]
    side_b: tuple[str, ...]
    cut_set: tuple[str, ...]


def make_cut(net: QNetwork, side_a) -> Cut:
    """Build the cut induced by the given alice-side point set."""
    side_a = set(side_a)
    if net.alice not in side_a:
        raise ValidationError("side_a must contain alice")
    if net.bob in side_a:
        raise ValidationError("side_a must not contain bob")
    for name in side_a:
        if name not in net.points:
            raise ValidationError(f"side_a point {name!r} is not a declared point")
    side_b = [p for p in net.points if p not in side_a]
    crossing = tuple(
        e.edge_id for e in net.edges if (e.u in side_a) != (e.v in side_a)
    )
    return Cut(
        side_a=tuple(sorted(side_a)),
        side_b=tuple(sorted(side_b)),
        cut_set=crossing,
    )


def cut_single_edge_value(net: QNetwork, cut: Cut) -> float:
    """Largest capacity crossing the cut (the single-edge cut value)."""
    if not cut.cut_set:
        raise NoRoute("cut-set is empty: alice and bob are disconnected")
    return max(edge_capacity(net, eid) for eid in cut.cut_set)


def cut_multi_edge_value(net: QNetwork, cut: Cut) -> float:
    """Total capacity crossing the cut (the multi-edge cut value)."""
    return sum(edge_capacity(net, eid) for eid in cut.cut_set)


def is_connected(net: QNetwork) -> bool:
    """True iff alice and bob sit in the same component."""
    adj = net.adjacency()
    stack = [net.alice]
    seen = {net.alice}
    while stack:
        point = stack.pop()
        if point == net.bob:
            return True
        for edge in adj[point]:
            other = edge.other(point)
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return False


def edge_capacity(net: QNetwork, edge_id: str) -> float:
    """Capacity in bits/use of the channel on the named edge."""
    return capacity(net.edge(edge_id).channel)


# --- JSON ingestion / serialization ---------------------------------------

def _reject_duplicate_keys(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValidationError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def _load_json(document: str):
    """Decode a JSON document; duplicate keys are an error, not last-wins."""
    try:
        return json.loads(document, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def channel_from_json(obj, where: str = "channel") -> ChannelSpec:
    """Validate one channel object of the network JSON format."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: channel must be an object")
    name = obj.get("kind")
    kind = channels.KINDS.get(name) if isinstance(name, str) else None
    if kind is None:
        raise ValidationError(f"{where}: unknown channel kind {name!r}")
    values = {}
    for param in kind.params:
        if param.name in obj:
            values[param.name] = obj[param.name]
        elif param.required:
            raise ValidationError(f"{where}: missing field {param.name!r} for kind {name!r}")
    if len(values) + 1 != len(obj):
        extra = next(key for key in obj if key != "kind" and key not in values)
        raise ValidationError(f"{where}: unknown field {extra!r} for kind {name!r}")
    if None in values.values():
        raise ValidationError(f"{where}: fields of kind {name!r} must not be null")
    try:
        # Each kind's public constructor carries the kind's name.
        return getattr(channels, name)(**values)
    except InvalidParameter as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def channel_to_json(spec: ChannelSpec) -> dict:
    """Normalized JSON object for a channel, fields in canonical order."""
    obj = {"kind": spec.kind}
    for param in channels.KINDS[spec.kind].params:
        value = getattr(spec, param.attr)
        obj[param.name] = list(value) if param.type == channels.NUMBERS else value
    return obj


def parse_network(document: str) -> QNetwork:
    """Parse and validate a network document in the JSON format.

    Raises :class:`ParseError` for malformed JSON (with position) and
    :class:`ValidationError` for any invariant violation, naming the
    offending element.
    """
    data = _load_json(document)
    if not isinstance(data, dict):
        raise ValidationError("top-level document must be an object")
    expected = {"points", "alice", "bob", "edges"}
    for key in data:
        if key not in expected:
            raise ValidationError(f"unknown top-level field {key!r}")
    for key in expected:
        if key not in data:
            raise ValidationError(f"missing top-level field {key!r}")
    points = data["points"]
    if not isinstance(points, list):
        raise ValidationError("'points' must be an array of names")
    if not isinstance(data["edges"], list):
        raise ValidationError("'edges' must be an array")
    edges = []
    for i, obj in enumerate(data["edges"]):
        if not isinstance(obj, dict):
            raise ValidationError(f"edge #{i}: must be an object")
        for key in obj:
            if key not in ("id", "u", "v", "channel"):
                raise ValidationError(f"edge #{i}: unknown field {key!r}")
        for key in ("id", "u", "v", "channel"):
            if key not in obj:
                raise ValidationError(f"edge #{i}: missing field {key!r}")
        for key in ("id", "u", "v"):
            if not isinstance(obj[key], str):
                raise ValidationError(f"edge #{i}: field {key!r} must be a string")
        spec = channel_from_json(obj["channel"], where=f"edge {obj['id']!r}")
        edges.append(Edge(edge_id=obj["id"], u=obj["u"], v=obj["v"], channel=spec))
    for role in ("alice", "bob"):
        if not isinstance(data[role], str):
            raise ValidationError(f"'{role}' must be a string")
    return QNetwork(
        points=tuple(points),
        edges=tuple(edges),
        alice=data["alice"],
        bob=data["bob"],
    )


def serialize_network(net: QNetwork) -> str:
    """Normalized JSON document; stable field order, LF line endings.

    ``parse_network(serialize_network(net))`` reproduces ``net`` exactly
    (edge order included) and a second serialization is byte-identical.
    """
    doc = {
        "points": list(net.points),
        "alice": net.alice,
        "bob": net.bob,
        "edges": [
            {"id": e.edge_id, "u": e.u, "v": e.v, "channel": channel_to_json(e.channel)}
            for e in net.edges
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
