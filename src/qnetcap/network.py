"""Undirected multigraph model of an end-to-end quantum network.

Points are opaque strings, edges carry a :class:`~qnetcap.channels.ChannelSpec`
and a unique id.  Channel direction is deliberately not stored: with two-way
classical assistance the optimal transmission does not depend on the physical
direction of a channel, so the undirected graph is the right model.

The JSON format accepted by :func:`parse_network` is bit-exact: unknown kinds
and extra fields are errors, and :func:`serialize_network` emits a normalized
document that round-trips byte-identically.  A key repeated within one object
is an error too.  It is detected by counting colons (:func:`_load_json`), so a
document is decoded with no Python call per member unless a string in it
opens with ``:`` or holds an escaped quote before a ``:``.

A network is checked and indexed in one pass over its edges' records,
whether parsed or built by hand (:class:`_Index`).  A record is an edge's
id, ends and capacity: the solvers read capacities only, so the index holds
no channel.  Parsing takes the records as columns first.  The edges' ids,
ends and channels are taken one block at a time (:func:`_edge_columns`),
each block of decoded edges dropped as its columns are made, so the parse's
memory peaks at about the decode's.  Then the channels are checked and
their capacities taken (:func:`_channel_columns`).  The usual lossy
channel, the bulk of an optical network, is checked as one column by the
kind's own check of its smallest and largest eta, and is held as its eta,
its capacity the kind's formula of it.  Every other channel is checked and
built once, in edge order, and where the column cannot be checked so, every
channel is.  So every field or channel error comes in edge order, before
any fault of the points, the end-points or an edge's id or ends.  The index
pass then checks each edge once and writes it straight into the solvers'
integer index, and the channel column stays beside it: a parsed network
holds no :class:`Edge`, and no spec of a lossy channel, until its
``edges`` are read.
"""

from __future__ import annotations

import gc
import io
import json
import math
import re
from contextlib import suppress
from dataclasses import dataclass
from functools import wraps
from itertools import compress, count, repeat
from operator import eq, itemgetter, ne, not_

from . import channels
from .channels import LOSSY, ChannelSpec, _new, _pure_loss, _set, capacity
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


class _Index:
    """A network as integers, the one graph every solver and :func:`make_cut` read.

    Point k is ``names[k]``, the points numbered in sorted-name order, so an
    integer tie breaks as a name tie would; ``ids`` maps a name to its id,
    and ``alice`` and ``bob`` are the end-points' ids.  Edge k is arc 2k
    (u -> v) and arc 2k + 1 (v -> u): ``to[arc]`` is the arc's head and
    ``arc ^ 1`` its reverse.  ``arcs[p]`` lists the arcs out of point p in
    edge order, and ``caps`` and ``edge_ids`` are in edge order too.
    ``capacities`` maps each edge id to its capacity, in edge order: it is
    the index's edge-id map.  The index holds no channel: the solvers read
    capacities only.

    Checked and built in one pass over ``records``, an iterable of each
    edge's ``(id, u, v, capacity)`` in edge order: the first fault of the
    points, then of the end-points, then of each edge in order raises
    :class:`ValidationError`.  Each edge is checked once, in one sequence:
    its id, then each end, looked up once, then that the ends differ, then
    its capacity.  A capacity of ``None`` stands for a channel that is no
    :class:`ChannelSpec`, and is that edge's fault after its id and ends.
    """

    def __init__(self, points, alice, bob, records):
        seen = set()
        for name in points:
            if not isinstance(name, str) or not name:
                raise ValidationError(f"point name {name!r} must be a non-empty string")
            if name in seen:
                raise ValidationError(f"duplicate point name {name!r}")
            seen.add(name)
        if alice == bob:
            raise ValidationError("alice and bob must be distinct points")
        for role, name in (("alice", alice), ("bob", bob)):
            if not isinstance(name, str) or name not in seen:
                raise ValidationError(f"{role} {name!r} is not a declared point")
        self.names = names = sorted(points)
        self.ids = ids = dict(zip(names, count()))
        self.alice, self.bob = ids[alice], ids[bob]
        self.to, self.arcs = to, arcs = [], [[] for _ in names]
        self.capacities = caps = {}
        for arc, (eid, u, v, cap) in zip(count(0, 2), records):
            if not isinstance(eid, str) or not eid:
                raise ValidationError(f"edge id {eid!r} must be a non-empty string")
            if eid in caps:
                raise ValidationError(f"duplicate edge id {eid!r}")
            # The str test first, so no unhashable name reaches a lookup.
            a = ids.get(u) if isinstance(u, str) else None
            b = ids.get(v) if isinstance(v, str) else None
            if a is None or b is None:
                raise ValidationError(f"edge {eid!r}: endpoint {u if a is None else v!r} is not a declared point")
            if a == b:
                raise ValidationError(f"edge {eid!r}: self-loops are not allowed")
            if cap is None:
                raise ValidationError(f"edge {eid!r}: channel must be a ChannelSpec")
            caps[eid] = cap
            to += (b, a)
            arcs[a].append(arc)
            arcs[b].append(arc + 1)
        self.edge_ids, self.caps = list(caps), list(caps.values())

    def ends(self):
        """Each edge's u names and v names: two iterators in edge order."""
        return map(self.names.__getitem__, self.to[1::2]), map(self.names.__getitem__, self.to[::2])


@dataclass(frozen=True)
class QNetwork:
    """Immutable network of named points with two designated end-points.

    Checked and indexed on construction, in one pass over the edges' ids,
    ends and capacities (:class:`_Index`): :attr:`capacities` (edge id ->
    channel capacity, in edge order) and the solvers' integer graph are
    built there, shared and read only, and no solver or cut rescans the
    network.
    A network from :func:`parse_network` holds no :class:`Edge` objects,
    only its channel column beside the index: a spec per channel, or a
    lossy channel's eta.  Its :attr:`edges` are built from the two when
    first read, each eta through :func:`~qnetcap.channels.lossy`, and its
    equality, hash and repr are those of the same network built by hand.
    A network built by hand must give its points as a collection, not a
    string, and each entry of its edges as an :class:`Edge`, named by
    position (``edge #1``) before the one pass.
    """

    points: tuple[str, ...]
    edges: tuple[Edge, ...]
    alice: str
    bob: str

    def __post_init__(self, records=None):
        # parse_network passes its edges' (id, u, v, capacity) records and sets no edges.
        if records is None:
            if isinstance(self.points, str):
                raise ValidationError(f"points {self.points!r} is a string, not a collection of point names")
            _set(self, "edges", tuple(self.edges))
            for i, edge in enumerate(self.edges):
                if not isinstance(edge, Edge):
                    raise ValidationError(f"edge #{i}: must be an Edge")
            # A generator, so an edge's channel is checked after its id and ends.
            records = (
                (e.edge_id, e.u, e.v, capacity(e.channel) if isinstance(e.channel, ChannelSpec) else None)
                for e in self.edges)
        _set(self, "points", tuple(self.points))
        _set(self, "_index", _Index(self.points, self.alice, self.bob, records))
        _set(self, "capacities", self._index.capacities)

    def __getattr__(self, name):
        # Called only for a missing attribute.  A parsed network's edges, and
        # any network's id -> edge map, are each built once, on first read.
        if name == "edges":
            specs = [channels.lossy(c) if type(c) is float else c for c in self._channels]
            _set(self, name, tuple(map(Edge, self._index.edge_ids, *self._index.ends(), specs)))
        elif name == "_edges_by_id":
            _set(self, name, dict(zip(self._index.edge_ids, self.edges)))
        return object.__getattribute__(self, name)  # any other raises as usual

    def edge(self, edge_id: str) -> Edge:
        edge_capacity(self, edge_id)  # UnknownEdge for an id not in the network
        return self._edges_by_id[edge_id]


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
    """Total capacity crossing the cut (the multi-edge cut value), correctly
    rounded, so it does not depend on the order of the cut-set; ``0.0`` for
    an empty cut-set.  Raises :class:`ValidationError` when the total is
    beyond float range."""
    return _cut_sum((edge_capacity(net, eid) for eid in cut.cut_set), _ONE_CUT)


def _cut_sum(capacities, message: str = _EVERY_CUT) -> float:
    """The correctly rounded sum of ``capacities``: the one definition of a
    multi-edge cut value.  A sum beyond float range raises
    :class:`ValidationError` with ``message``, as one channel's capacity
    past it does."""
    try:
        return math.fsum(capacities)
    except OverflowError:
        raise ValidationError(message) from None


def _bfs_levels(arcs, to, cap, source: int) -> list[int]:
    """Level of every point reachable from ``source`` over arcs of positive
    ``cap``; -1 for the others."""
    level = [-1] * len(arcs)
    level[source] = 0
    queue = [source]
    for point in queue:
        next_level = level[point] + 1
        for idx in arcs[point]:
            other = to[idx]
            if level[other] < 0 and cap[idx] > 0.0:
                level[other] = next_level
                queue.append(other)
    return level


def is_connected(net: QNetwork) -> bool:
    """True iff alice and bob sit in the same component."""
    index = net._index  # every arc open: a positive capacity on each
    return _bfs_levels(index.arcs, index.to, b"\1" * len(index.to), index.alice)[index.bob] >= 0


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
    decode keeps one member less per repeat.  So after a plain decode,
    :func:`_members` counts the members of the objects where the network and
    chain formats put them, and when they add up to the text's colon count
    no key repeats (any other object then has no member).  A colon inside a
    string, as in a point named ``host:port``, breaks that count, so the
    members are then counted a second way: each member's key ends in a
    match of :data:`_KEY_END`, and the only other matches are a string
    opening with ``:`` and an escaped quote before a ``:``; when the matches
    add up to the members, no key repeats either.  Otherwise (such a string, an
    object elsewhere, a repeat, a document that does not decode, or one
    that is not text after the bytes conversion) the document is decoded
    again, each object's pairs handed to :func:`_reject_duplicate_keys`,
    and that decode gives the result or error, before any channel is built.
    """
    try:
        if isinstance(document, bytes):  # universal newlines, as open() reads text
            document = io.TextIOWrapper(io.BytesIO(document), encoding="utf-8").read()
        # Any miss, a document that is not text (TypeError) included, goes to
        # the hooked decode, which words the error.
        with suppress(ValueError, RecursionError, TypeError):
            data = json.loads(document)
            members = _members(data)
            # Not a str subclass's own count; the matches are counted only on a miss.
            if members == str.count(document, ":") or members == len(re.findall(_KEY_END, document)):
                return data
        return json.loads(document, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValidationError:
        raise
    except (ValueError, RecursionError) as exc:
        # not UTF-8, nested too deep, or an integer past int()'s digit limit
        raise ParseError(str(exc)) from exc


#: The end of an object key: its closing quote, JSON whitespace, the colon.
#: A pattern, not a compiled one: ``re`` compiles it on first use, not on import.
_KEY_END = r'"[ \t\n\r]*:'


def _members(data) -> int:
    """Members of the decoded objects the formats expect, each counted once:
    a network's top level, each edge and each edge's channel, or each
    channel of a chain.  Exact dicts only: when an entry of the array is no
    dict, or an edge's channel is neither a dict nor empty, only the top
    level is counted."""
    size, entries = (len(data), data.get("edges")) if type(data) is dict else (0, data)
    if type(entries) is not list or not {*map(type, entries)} <= {dict}:
        return size
    inner = [*filter(None, map(dict.get, entries, repeat("channel")))]
    return size + sum(map(len, entries)) + sum(map(len, inner)) if {*map(type, inner)} <= {dict} else size


def _check_fields(obj, allowed, required, where, noun="", field="field", suffix=""):
    """Raise :class:`ValidationError` if ``obj`` is no object, else name its
    first key not in ``allowed``, else the first of ``required`` (ordered)
    it lacks."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}{noun}must be an object")
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
    str subclass is accepted.  The usual object, a dict holding every field
    of its kind and no null, passes the field checks by its size.
    """
    try:  # only an exact dict is read here: no other type's lookup runs
        kind = channels.KINDS[obj["kind"] if type(obj) is dict else None]
        values = [*map(obj.get, kind.names)]
        usual = len(obj) == 1 + len(values) and None not in values
    except (KeyError, TypeError):
        usual = False
    if not usual:
        if not isinstance(obj, dict):
            raise ValidationError(f"{where}: channel must be an object")
        name = obj.get("kind")
        kind = channels.KINDS.get(name) if isinstance(name, str) else None
        if kind is None:
            raise ValidationError(f"{where}: unknown channel kind {name!r}")
        required = ["kind", *(p.name for p in kind.params if p.required)]
        _check_fields(obj, ("kind", *kind.names), required, f"{where}: ", suffix=f" for kind {name!r}")
        if None in obj.values():
            raise ValidationError(f"{where}: fields of kind {name!r} must not be null")
        values = [*map(obj.get, kind.names)]
    try:
        # Each kind's public constructor carries the kind's name and takes
        # its parameters in order; an absent optional one is passed unset.
        return getattr(channels, kind.name)(*values)
    except InvalidParameter as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def channel_to_json(spec: ChannelSpec) -> dict:
    """Normalized JSON object for a channel, fields in canonical order."""
    obj = {"kind": spec.kind}
    for param in channels.KINDS[spec.kind].params:
        value = getattr(spec, param.name)
        obj[param.name] = list(value) if param.type is tuple else value
    return obj


#: The fields of the top-level and of an edge object, in the order a missing one is named.
_TOP_FIELDS = ("points", "alice", "bob", "edges")
_EDGE_FIELDS = ("id", "u", "v", "channel")
_edge_values = itemgetter(*_EDGE_FIELDS)
#: Edges whose columns are taken at once: the decoded edges of one block
#: are dropped before the next block is read.
_BLOCK = 1024


def _edge_columns(edges) -> list:
    """Every edge object's id, u, v and channel: four columns, in edge order.

    ``edges`` is the decoded list, the parse's own.  It is taken one block
    at a time, and a block's entries are set to None once its columns are
    taken, so the edge objects are freed as the columns grow.  With both, a
    parse peaks within a few percent of its decode (1.015x on a 100 x 100
    grid, against 1.054x with the four columns taken whole and 1.6x with
    the decoded edges kept to the end).  The usual edge, an object of the
    four fields, is told by its block's sizes and a read of each field by
    name: in decoded JSON only such an object passes both.  In a block
    holding any other, each edge is checked by name; at the first fault,
    the channels of the edges before it are checked first, so a fault
    among them raises before it, as in edge order.
    """
    ids, us, vs, channels = columns = [], [], [], []
    for start in range(0, len(edges), _BLOCK):
        block = edges[start:start + _BLOCK]
        try:
            rows = [*map(_edge_values, block)] if {*map(len, block)} <= {4} else None
        except (KeyError, TypeError):  # a field missing, or an edge that is no object
            rows = None
        if rows is None:
            for i, obj in enumerate(block, start):
                if not (isinstance(obj, dict) and obj.keys() == set(_EDGE_FIELDS)):
                    _channel_columns(ids, channels)  # a fault of an earlier channel comes first
                    _check_fields(obj, _EDGE_FIELDS, _EDGE_FIELDS, f"edge #{i}: ")  # raises, naming which
                for column, value in zip(columns, _edge_values(obj)):
                    column.append(value)
        else:
            for column, values in zip(columns, zip(*rows)):
                column += values
        edges[start:start + _BLOCK] = repeat(None, len(block))
    return columns


def _channel_columns(ids, channels):
    """Each edge's channel and its capacity: two columns, in edge order.
    ``channels`` are the decoded channel objects and ``ids`` their edges'
    ids.

    The usual lossy channel, ``{"kind": "lossy", "eta": x}``, is checked
    in one column with the others of its kind: each x an exact float and
    none NaN, then the smallest and the largest passed to
    :func:`channel_from_json`.  Its range check is monotone, so those two
    decide it for every eta.  A usual lossy channel is then held as its
    eta, and its capacity is the kind's own formula of the eta.  Every
    other channel is built one by one, in edge order, as its spec, by one
    call of :func:`channel_from_json` that names its edge in any error, and
    its capacity is :func:`~qnetcap.channels.capacity` of the spec.  When the
    column does not pass, or a channel is no object, every channel is built
    one by one, so the first fault raises as it does in edge order.
    """
    column, lossy = [None] * len(channels), [False] * len(channels)
    with suppress(TypeError, ValidationError):  # a channel that is no object, or an eta out of range
        column_etas = [*map(dict.get, channels, repeat("eta"))]
        flags = [*map(eq, map(dict.get, channels, repeat("kind")), repeat(LOSSY))]
        usual = [*compress(column_etas, flags)]
        nan = any(map(ne, usual, usual))  # x != x only for NaN, which min and max pass over
        if not nan and {*map(len, compress(channels, flags))} <= {2} and {*map(type, usual)} <= {float}:
            for eta in {min(usual), max(usual)} if usual else ():
                channel_from_json({"kind": LOSSY, "eta": eta})
            column, lossy = column_etas, flags
    for i in compress(count(), map(not_, lossy)):
        column[i] = channel_from_json(channels[i], where=f"edge {ids[i]!r}")
    return column, [_pure_loss(c) if type(c) is float else capacity(c) for c in column]


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
    invariant violation, naming the offending element.  It runs in two
    steps.  First every edge's fields and channel are checked, as columns,
    and each channel's capacity taken: the usual lossy channel as one
    column of etas, checked by its extremes, each other channel built one
    by one (:func:`_channel_columns`).  Any such error, of whichever edge,
    comes in edge order and before a fault of the points or of an edge's id
    or ends.  Then the network is indexed in one pass over the records of
    ids, ends and capacities, as a network built by hand is, and the channel
    column is kept for :attr:`QNetwork.edges`: no :class:`Edge`, nor a lossy
    channel's spec, is made.  The parse peaks at about the memory of the
    decode itself.

    The cyclic garbage collector is paused while the document is decoded
    and the network built (:func:`_gc_paused`): a parse makes many objects
    and no reference cycles, so a collection would find nothing.  Inside
    the ``qnetcap`` command, whose one pause runs from argument parsing to
    the last write, it is already paused.
    """
    data = _load_json(document)
    _check_fields(data, _TOP_FIELDS, _TOP_FIELDS, "", "top-level document ", "top-level field")
    if not isinstance(data["points"], list):
        raise ValidationError("'points' must be an array of names")
    if not isinstance(data["edges"], list):
        raise ValidationError("'edges' must be an array")
    ids, us, vs, channels = _edge_columns(data["edges"])
    channels, capacities = _channel_columns(ids, channels)  # the decoded channels are freed here
    net = _new(QNetwork)
    vars(net).update(points=data["points"], alice=data["alice"], bob=data["bob"], _channels=channels)
    net.__post_init__(zip(ids, us, vs, capacities))
    return net


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
