"""Undirected multigraph model of an end-to-end quantum network.

Points are opaque strings, edges carry a :class:`~qnetcap.channels.ChannelSpec`
and a unique id.  Channel direction is deliberately not stored: with two-way
classical assistance the optimal transmission does not depend on the physical
direction of a channel, so the undirected graph is the right model.

The JSON format accepted by :func:`parse_network` is bit-exact: unknown kinds
and extra fields are errors, and :func:`serialize_network` emits a normalized
document that round-trips byte-identically.  A key repeated within one object
is an error too.  It is detected by counting colons (:func:`_load_json`), so a
document whose strings hold no ``:`` is decoded with no Python call per
member; names containing ``:`` stay valid but take a slower second decode.
"""

from __future__ import annotations

import gc
import io
import json
import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import compress, count
from operator import ne, not_

from . import channels
from .channels import ChannelSpec, capacity
from .errors import InvalidParameter, NoRoute, ParseError, UnknownEdge, ValidationError


# Slots, not an instance dict: an edge is smaller and stays one object for
# the cyclic garbage collector to scan.
@dataclass(frozen=True, slots=True)
class Edge:
    """One channel between two distinct points; parallel edges are allowed."""

    edge_id: str
    u: str
    v: str
    channel: ChannelSpec

    def __init__(self, edge_id: str, u: str, v: str, channel: ChannelSpec):
        # Each slot is set by its own descriptor, bound once below; the frozen
        # dataclass __init__ goes through object.__setattr__ for each field.
        _set_edge_id(self, edge_id)
        _set_u(self, u)
        _set_v(self, v)
        _set_channel(self, channel)


_set_edge_id, _set_u, _set_v, _set_channel = (
    vars(Edge)[name].__set__ for name in ("edge_id", "u", "v", "channel")
)


class _Index:
    """A network as integers, the one graph every solver and :func:`make_cut` read.

    Point k is ``names[k]``, the points numbered in sorted-name order, so an
    integer tie breaks as a name tie would; ``ids`` maps a name to its id,
    and ``alice`` and ``bob`` are the end-points' ids.  Edge k is arc 2k
    (u -> v) and arc 2k + 1 (v -> u): ``to[arc]`` is the arc's head and
    ``arc ^ 1`` its reverse.  ``arcs[p]`` lists the arcs out of point p in
    edge order, and ``caps`` and ``edge_ids`` are in edge order too.  Built
    in one pass over the points and one over the edges.
    """

    def __init__(self, net: QNetwork):
        self.names = names = sorted(net.points)
        self.ids = ids = {name: k for k, name in enumerate(names)}
        self.to = to = []
        self.arcs = arcs = [[] for _ in names]
        for arc, edge in zip(count(0, 2), net.edges):
            u, v = ids[edge.u], ids[edge.v]
            to += (v, u)
            arcs[u].append(arc)
            arcs[v].append(arc + 1)
        self.caps, self.edge_ids = list(net.capacities.values()), list(net.capacities)
        self.alice, self.bob = ids[net.alice], ids[net.bob]


@dataclass(frozen=True)
class QNetwork:
    """Immutable network of named points with two designated end-points.

    Indexed once: the ids behind :meth:`edge` on construction, and
    :attr:`capacities` and the solvers' integer graph on first read, each in
    one pass over the network.  No solver or cut rescans it.
    """

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
            if not isinstance(name, str) or name not in seen:
                raise ValidationError(f"{role} {name!r} is not a declared point")
        by_id = {}
        for edge in self.edges:
            eid, u, v = edge.edge_id, edge.u, edge.v
            # One test passes a well-formed edge; the exact types come first,
            # so no unhashable name reaches a lookup.
            if not (
                type(eid) is type(u) is type(v) is str
                and eid and u != v and eid not in by_id and u in seen and v in seen
            ):
                if not isinstance(eid, str) or not eid:
                    raise ValidationError(f"edge id {eid!r} must be a non-empty string")
                if eid in by_id:
                    raise ValidationError(f"duplicate edge id {eid!r}")
                for endpoint in (u, v):
                    if not isinstance(endpoint, str) or endpoint not in seen:
                        raise ValidationError(
                            f"edge {eid!r}: endpoint {endpoint!r} is not a declared point"
                        )
                if u == v:
                    raise ValidationError(f"edge {eid!r}: self-loops are not allowed")
            by_id[eid] = edge
        object.__setattr__(self, "_edges_by_id", by_id)

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edges_by_id[edge_id]
        except (KeyError, TypeError):
            raise UnknownEdge(edge_id) from None

    @cached_property
    def capacities(self) -> dict[str, float]:
        """Edge id -> channel capacity, in edge order; shared, so read only."""
        return {e.edge_id: capacity(e.channel) for e in self.edges}

    #: The network's integer graph, built on first read; shared, so read only.
    _index = cached_property(_Index)


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
    """Build the cut induced by the given alice-side point names.

    ``side_a`` is any iterable of names but a string.  Runs in
    O(|E| + |P| + len(side_a)): one flag per point, set by id, then one pass
    over the arcs for the crossing set.  The index numbers points in name
    order, so both sides come out sorted without a sort.
    """
    if isinstance(side_a, str):
        raise ValidationError(f"side_a {side_a!r} is a string, not a collection of point names")
    index = net._index
    ids = index.ids
    on_a = bytearray(len(ids))
    unknown = []
    for name in side_a:
        try:
            on_a[ids[name]] = 1
        except (KeyError, TypeError):  # TypeError: an unhashable member
            unknown.append(name)
    if not on_a[index.alice]:
        raise ValidationError("side_a must contain alice")
    if on_a[index.bob]:
        raise ValidationError("side_a must not contain bob")
    if unknown:
        # The smallest by repr, not the first given: one message whatever
        # the order (or hash seed) of ``side_a``.
        raise ValidationError(f"side_a point {min(unknown, key=repr)!r} is not a declared point")
    heads = bytes(map(on_a.__getitem__, index.to))  # edge k's v at 2k, its u at 2k + 1
    return Cut(
        side_a=tuple(compress(index.names, on_a)),
        side_b=tuple(compress(index.names, map(not_, on_a))),
        cut_set=tuple(compress(index.edge_ids, map(ne, heads[::2], heads[1::2]))),
    )


def cut_single_edge_value(net: QNetwork, cut: Cut) -> float:
    """Largest capacity crossing the cut (the single-edge cut value)."""
    if not cut.cut_set:
        raise NoRoute("cut-set is empty: alice and bob are disconnected")
    return max(edge_capacity(net, eid) for eid in cut.cut_set)


#: Why a multi-edge value reads ``inf``: one cut's sum, or every cut's.
_ONE_CUT = "multi-edge cut value is beyond float range: its crossing capacities sum past it"
_EVERY_CUT = "multi-path capacity is beyond float range: every alice/bob cut sums past it"


def cut_multi_edge_value(net: QNetwork, cut: Cut) -> float:
    """Total capacity crossing the cut (the multi-edge cut value), summed in
    cut-set order; ``0.0`` for an empty cut-set.  Raises
    :class:`ValidationError` when the total is beyond float range."""
    value = sum((edge_capacity(net, eid) for eid in cut.cut_set), 0.0)
    return _finite_multi_edge_value(value, _ONE_CUT)


def _finite_multi_edge_value(value: float, message: str = _EVERY_CUT) -> float:
    """One cut's multi-edge value, or the minimum over all cuts, checked:
    ``inf`` means it sums beyond float range, and raises
    :class:`ValidationError` with ``message``, as one channel's capacity past
    it does."""
    if value == math.inf:
        raise ValidationError(message)
    return value


def is_connected(net: QNetwork) -> bool:
    """True iff alice and bob sit in the same component."""
    index = net._index
    reached = bytearray(len(index.arcs))
    reached[index.alice] = 1
    queue = [index.alice]
    for point in queue:
        for other in map(index.to.__getitem__, index.arcs[point]):
            if not reached[other]:
                reached[other] = 1
                queue.append(other)
    return bool(reached[index.bob])


def edge_capacity(net: QNetwork, edge_id: str) -> float:
    """Capacity in bits/use of the channel on the named edge."""
    try:
        return net.capacities[edge_id]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        raise UnknownEdge(edge_id) from None


# --- JSON ingestion / serialization ---------------------------------------

def _reject_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValidationError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def _load_json(document):
    """Decode a JSON document, text or the bytes of a UTF-8 text file: a duplicate
    key raises ValidationError (not last-wins), a document that won't decode ParseError.

    A repeated key is found by counting, with no Python call per member: each
    member of a JSON object has one colon outside strings, and a last-wins
    decode keeps one member less per repeat, so decoded objects whose sizes
    add up to the text's colon count repeat no key.  Otherwise (a colon inside
    a string, as in a point named ``host:port``, a repeat, a document that
    does not decode, or one that is not text after the bytes conversion) the
    document is decoded again, each object's pairs handed to
    :func:`_reject_duplicate_keys`, and that decode gives the result or error.
    """
    try:
        if isinstance(document, bytes):  # universal newlines, as open() reads text
            document = io.TextIOWrapper(io.BytesIO(document), encoding="utf-8").read()
        if isinstance(document, str):
            sizes = []
            with suppress(ValueError, RecursionError):  # the hooked decode words the error
                data = json.loads(document, object_hook=lambda obj: sizes.append(len(obj)) or obj)
                if sum(sizes) == str.count(document, ":"):  # not a str subclass's own count
                    return data
        return json.loads(document, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValidationError:
        raise
    except (ValueError, RecursionError) as exc:
        # not UTF-8, nested too deep, or an integer past int()'s digit limit
        raise ParseError(str(exc)) from exc


def _reject_fields(obj, allowed, required, where, field="field", suffix=""):
    """Name the first key of ``obj`` not in ``allowed``, else the first of
    ``required`` (ordered) it lacks; called once a quick key check failed."""
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"{where}unknown {field} {key!r}{suffix}")
    for key in required:
        if key not in obj:
            raise ValidationError(f"{where}missing {field} {key!r}{suffix}")


def channel_from_json(obj, where: str = "channel") -> ChannelSpec:
    """Validate one channel object of the network JSON format.

    The checks run in one order: an object, a known kind, its fields, no
    null; then the kind's public constructor checks each value.  A dict or
    str subclass is accepted.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: channel must be an object")
    name = obj.get("kind")
    kind = channels.KINDS.get(name) if isinstance(name, str) else None
    if kind is None:
        raise ValidationError(f"{where}: unknown channel kind {name!r}")
    if not kind.required_fields <= obj.keys() <= kind.fields:
        suffix = f" for kind {name!r}"
        _reject_fields(obj, kind.fields, kind.required_fields, f"{where}: ", suffix=suffix)
    if None in obj.values():
        raise ValidationError(f"{where}: fields of kind {name!r} must not be null")
    try:
        # Each kind's public constructor carries the kind's name and takes
        # its parameters in order; an absent optional one is passed unset.
        return getattr(channels, kind.name)(*map(obj.get, kind.names))
    except InvalidParameter as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def channel_to_json(spec: ChannelSpec) -> dict:
    """Normalized JSON object for a channel, fields in canonical order."""
    obj = {"kind": spec.kind}
    for param in channels.KINDS[spec.kind].params:
        value = getattr(spec, param.name)
        obj[param.name] = list(value) if param.type is tuple else value
    return obj


# Ordered, and compared with a dict's keys as a set in one step.
_TOP_FIELDS = dict.fromkeys(("points", "alice", "bob", "edges")).keys()
_EDGE_FIELDS = dict.fromkeys(("id", "u", "v", "channel")).keys()


def _gc_paused(function):
    """``function``, run with the cyclic garbage collector paused.

    The caller's setting comes back however the call ends, and a nested
    pause leaves it off.  The setting is process-wide: threads pausing at
    once each restore the one they found on entry.
    """

    @wraps(function)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return function(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@_gc_paused
def parse_network(document: str | bytes) -> QNetwork:
    """Parse and validate a network document in the JSON format.

    Raises :class:`ParseError` for a document that does not decode (with
    the position of malformed JSON) and :class:`ValidationError` for any
    invariant violation, naming the offending element.

    The cyclic garbage collector is paused while the document is decoded
    and the network built (:func:`_gc_paused`): a parse makes many objects
    and no reference cycles, so a collection would find nothing.  Inside
    the ``qnetcap`` command, whose one pause runs from argument parsing to
    the last write, it is already paused.
    """
    data = _load_json(document)
    if not isinstance(data, dict):
        raise ValidationError("top-level document must be an object")
    if data.keys() != _TOP_FIELDS:
        _reject_fields(data, _TOP_FIELDS, _TOP_FIELDS, "", "top-level field")
    points = data["points"]
    if not isinstance(points, list):
        raise ValidationError("'points' must be an array of names")
    if not isinstance(data["edges"], list):
        raise ValidationError("'edges' must be an array")
    edges = []
    for i, obj in enumerate(data["edges"]):
        if not isinstance(obj, dict):
            raise ValidationError(f"edge #{i}: must be an object")
        if obj.keys() != _EDGE_FIELDS:
            _reject_fields(obj, _EDGE_FIELDS, _EDGE_FIELDS, f"edge #{i}: ")
        try:
            spec = channel_from_json(obj["channel"])
        except ValidationError:  # fails again, now naming the edge
            spec = channel_from_json(obj["channel"], where=f"edge {obj['id']!r}")
        edges.append(Edge(obj["id"], obj["u"], obj["v"], spec))
    return QNetwork(points, edges, data["alice"], data["bob"])


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
