import copy
import dataclasses
import gc
import io
import json
import math
import pathlib
import pickle
import re
import sys
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DUPLICATE_KEY_DOCS, build_network, diamond, enumerate_cuts, stdout_under_hash_seed
from qnetcap import (
    Edge,
    NoRoute,
    ParseError,
    QNetwork,
    UnknownEdge,
    ValidationError,
    amplifier,
    brute_multi_path_capacity,
    capacity,
    cut_multi_edge_value,
    cut_single_edge_value,
    dephasing,
    edge_capacity,
    erasure,
    is_connected,
    lossy,
    make_cut,
    max_spanning_tree,
    multiband_lossy,
    parse_network,
    serialize_network,
    tree_route_capacity,
    widest_path,
)
from qnetcap import cli, network
from qnetcap.channels import ChannelKind
from qnetcap.cli import main as cli_main
from test_properties import networks
from test_readme import fenced


DIAMOND_DOC = """
{ "points": ["a", "p1", "p2", "b"],
  "alice": "a", "bob": "b",
  "edges": [
    {"id": "e1", "u": "a",  "v": "p1", "channel": {"kind": "lossy", "eta": 0.5}},
    {"id": "e2", "u": "a",  "v": "p2", "channel": {"kind": "lossy", "eta": 0.5}},
    {"id": "e3", "u": "p1", "v": "p2", "channel": {"kind": "lossy", "eta": 0.5}},
    {"id": "e4", "u": "p1", "v": "b",  "channel": {"kind": "lossy", "eta": 0.5}},
    {"id": "e5", "u": "p2", "v": "b",  "channel": {"kind": "lossy", "eta": 0.5}}
  ] }
"""

MIXED_DOC = """
{ "points": ["a", "p1", "p2", "b"],
  "alice": "a", "bob": "b",
  "edges": [
    {"id": "e1", "u": "a",  "v": "p1", "channel": {"kind": "lossy", "eta": 0.5}},
    {"id": "e2", "u": "a",  "v": "p2", "channel": {"kind": "erasure", "p": 0.1, "dim": 2}},
    {"id": "e3", "u": "p1", "v": "p2", "channel": {"kind": "dephasing", "probs": [0.9, 0.1]}},
    {"id": "e4", "u": "p1", "v": "b",  "channel": {"kind": "amplifier", "gain": 1.5}},
    {"id": "e5", "u": "p2", "v": "b",  "channel": {"kind": "multiband_lossy", "eta": 0.5, "bands": 3}}
  ] }
"""

def diamond_with(edit):
    """DIAMOND_DOC as JSON text once ``edit`` has changed it in place."""
    doc = json.loads(DIAMOND_DOC)
    edit(doc)
    return json.dumps(doc)


#: Documents and the exact message ``parse_network`` and ``qnetcap network``
#: give for each.
REJECTIONS = {
    "document-not-object": ("[]", "top-level document must be an object"),
    "unknown-top-level": (
        diamond_with(lambda doc: doc.update(comment="hi")), "unknown top-level field 'comment'"
    ),
    "missing-top-level": (
        diamond_with(lambda doc: doc.pop("bob")), "missing top-level field 'bob'"
    ),
    "points-not-array": (
        diamond_with(lambda doc: doc.update(points="a,b")),
        "'points' must be an array of names",
    ),
    "edges-not-array": (
        diamond_with(lambda doc: doc.update(edges={})), "'edges' must be an array"
    ),
    "edge-not-object": (
        diamond_with(lambda doc: doc["edges"].insert(0, "e0")), "edge #0: must be an object"
    ),
    "edge-unknown-field": (
        diamond_with(lambda doc: doc["edges"][1].update(w=1)), "edge #1: unknown field 'w'"
    ),
    "edge-missing-field": (
        diamond_with(lambda doc: doc["edges"][2].pop("u")), "edge #2: missing field 'u'"
    ),
    "edge-missing-and-unknown-field": (
        diamond_with(lambda doc: doc["edges"][2].update(w=doc["edges"][2].pop("channel"))),
        "edge #2: unknown field 'w'",
    ),
    "channel-not-object": (
        diamond_with(lambda doc: doc["edges"][3].update(channel=0.5)),
        "edge 'e4': channel must be an object",
    ),
    "channel-missing-and-unknown-field": (
        diamond_with(lambda doc: doc["edges"][0].update(channel={"kind": "lossy", "x": 1})),
        "edge 'e1': unknown field 'x' for kind 'lossy'",
    ),
    "point-duplicated": (
        diamond_with(lambda doc: doc["points"].append("p1")), "duplicate point name 'p1'"
    ),
    "point-empty": (
        diamond_with(lambda doc: doc["points"].append("")),
        "point name '' must be a non-empty string",
    ),
}


class TestParse:
    def test_diamond_document(self):
        net = parse_network(DIAMOND_DOC)
        assert len(net.points) == 4
        assert len(net.edges) == 5
        assert net.alice == "a" and net.bob == "b"

    def test_mixed_kinds_document(self):
        net = parse_network(MIXED_DOC)
        assert [e.channel.kind for e in net.edges] == [
            "lossy", "erasure", "dephasing", "amplifier", "multiband_lossy",
        ]
        assert net.edge("e3").channel.dim == 2

    def test_alice_equals_bob(self):
        doc = json.loads(DIAMOND_DOC)
        doc["bob"] = "a"
        with pytest.raises(ValidationError):
            parse_network(json.dumps(doc))

    def test_unknown_point_in_edge(self):
        doc = json.loads(DIAMOND_DOC)
        doc["edges"][0]["v"] = "nowhere"
        with pytest.raises(ValidationError, match="nowhere"):
            parse_network(json.dumps(doc))

    def test_duplicate_edge_id(self):
        doc = json.loads(DIAMOND_DOC)
        doc["edges"][1]["id"] = "e1"
        with pytest.raises(ValidationError, match="e1"):
            parse_network(json.dumps(doc))

    def test_self_loop(self):
        doc = json.loads(DIAMOND_DOC)
        doc["edges"][0]["v"] = "a"
        with pytest.raises(ValidationError, match="self-loop"):
            parse_network(json.dumps(doc))

    def test_unknown_channel_kind(self):
        doc = json.loads(DIAMOND_DOC)
        doc["edges"][0]["channel"]["kind"] = "thermal"
        with pytest.raises(ValidationError, match="thermal"):
            parse_network(json.dumps(doc))

    def test_unhashable_channel_kind(self):
        doc = json.loads(DIAMOND_DOC)
        doc["edges"][0]["channel"]["kind"] = ["lossy"]
        with pytest.raises(ValidationError, match="unknown channel kind"):
            parse_network(json.dumps(doc))

    def test_null_channel_field(self):
        doc = json.loads(MIXED_DOC)
        doc["edges"][1]["channel"]["dim"] = None
        with pytest.raises(ValidationError, match="null"):
            parse_network(json.dumps(doc))

    def test_extra_channel_field(self):
        doc = json.loads(DIAMOND_DOC)
        doc["edges"][0]["channel"]["mood"] = 1
        with pytest.raises(ValidationError, match="mood"):
            parse_network(json.dumps(doc))

    def test_extra_top_level_field(self):
        doc = json.loads(DIAMOND_DOC)
        doc["comment"] = "hi"
        with pytest.raises(ValidationError, match="comment"):
            parse_network(json.dumps(doc))

    def test_out_of_range_channel_parameter(self):
        doc = json.loads(DIAMOND_DOC)
        doc["edges"][0]["channel"]["eta"] = 1.0
        with pytest.raises(ValidationError, match="eta"):
            parse_network(json.dumps(doc))

    def test_integer_parameter_beyond_float_range(self):
        # Not an OverflowError from float(): 10**400 is an accepted JSON number.
        doc = json.loads(DIAMOND_DOC)
        doc["edges"][0]["channel"]["eta"] = 10**400
        with pytest.raises(ValidationError) as err:
            parse_network(json.dumps(doc))
        assert str(err.value) == f"edge 'e1': eta={10**400}: must be finite"

    @pytest.mark.parametrize("seed", ["1", "2", "3", "4"])
    def test_missing_top_level_field_is_named_alike_under_every_hash_seed(self, seed):
        code = (
            "from qnetcap import parse_network\n"
            "try:\n"
            "    parse_network('{\"points\": [\"a\"]}')\n"
            "except Exception as exc:\n"
            "    print(exc)\n"
        )
        assert stdout_under_hash_seed(code, seed) == "missing top-level field 'alice'\n"

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_network("{ nope }")

    @pytest.mark.parametrize("document", DUPLICATE_KEY_DOCS.values(), ids=DUPLICATE_KEY_DOCS)
    def test_duplicate_key(self, document):
        with pytest.raises(ValidationError, match="duplicate key"):
            parse_network(document)

    @pytest.mark.parametrize("document, expected", REJECTIONS.values(), ids=REJECTIONS)
    def test_rejection_message(self, document, expected, tmp_path, capsys):
        with pytest.raises(ValidationError) as err:
            parse_network(document)
        assert str(err.value) == expected
        path = tmp_path / "net.json"
        path.write_text(document, encoding="utf-8")
        assert cli_main(["network", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize("value", [["a"], 7, None], ids=["list", "number", "null"])
    @pytest.mark.parametrize("field", ["id", "u", "v", "alice", "bob"])
    def test_non_string_name(self, field, value):
        doc = json.loads(DIAMOND_DOC)
        (doc if field in ("alice", "bob") else doc["edges"][0])[field] = value
        with pytest.raises(ValidationError):
            parse_network(json.dumps(doc))


def _reference_load(document):
    """``network._load_json`` with every object's pairs handed to
    ``_reject_duplicate_keys``, the decode it falls back to, and its errors
    worded the same way: the reference the colon count must match."""
    try:
        if isinstance(document, bytes):
            document = io.TextIOWrapper(io.BytesIO(document), encoding="utf-8").read()
        return json.loads(document, object_pairs_hook=network._reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValidationError:
        raise
    except (ValueError, RecursionError) as exc:
        raise ParseError(str(exc)) from exc


def _outcome(call, *args):
    """What ``call(*args)`` gives: ``repr`` of its result (which tells 1 from
    1.0 and True), or its exception's type and message."""
    try:
        return repr(call(*args))
    except Exception as exc:  # the comparison is the test
        return type(exc), str(exc)


def _network_text(point="a", edge_id="e0", kind="lossy", extra=""):
    """A one-edge network document from ``point`` (alice) to b."""
    return (
        f'{{"points": [{json.dumps(point)}, "b"], "alice": {json.dumps(point)}, "bob": "b",'
        f' "edges": [{{"id": {json.dumps(edge_id)}, "u": {json.dumps(point)}, "v": "b",'
        f' "channel": {{"kind": {json.dumps(kind)}, "eta": 0.5{extra}}}}}]}}'
    )


ONE_EDGE = _network_text()

#: Documents whose decode the colon count must leave unchanged, by what
#: each one exercises.
COUNTED_DOCS = {
    **{f"duplicate-{where}": doc for where, doc in DUPLICATE_KEY_DOCS.items()},
    "duplicate-in-points": '{"points": [{"x": 1, "x": 2}, "b"], "alice": "a", "bob": "b", "edges": []}',
    "duplicate-in-probs": ONE_EDGE.replace(
        '"kind": "lossy", "eta": 0.5', '"kind": "dephasing", "probs": [{"p": 0.5, "p": 0.5}, 0.5]'
    ),
    "duplicate-then-syntax-error": '{"points": ["a", "b"], "edges": [{"id": "e0", "id": "e1"}], "alice": "a",, }',
    "syntax-error-then-duplicate": '{"points": ["a" "b"], "alice": "a", "alice": "a"}',
    "colon-in-point-name": _network_text(point="a:1"),
    "colon-in-edge-id": _network_text(edge_id="e:0"),
    "colon-in-kind": _network_text(kind="lossy:x"),
    "escaped-colon": _network_text(point="a:1").replace("a:1", "a\\u003a1"),
    "colon-in-string-and-duplicate": _network_text(point="a:1", extra=', "eta": 0.9'),
    # Key ends the second count also finds inside a string: it misses too.
    "colon-opening-a-name": _network_text(point=":x"),
    "quote-colon-in-a-name": _network_text(point='a":1'),
    "quote-colon-in-a-name-and-duplicate": _network_text(point='a":1', extra=', "eta": 0.9'),
    "spaces-before-colons-and-colon-in-name": _network_text(point="a:1").replace('": ', '" \r\n\t: '),
    "chain": '[{"kind": "lossy", "eta": 0.5}, {"kind": "erasure", "p": 0.25}]',
    "chain-duplicate": '[{"kind": "lossy", "eta": 0.5, "eta": 0.9}]',
    "chain-colon-in-kind": '[{"kind": "lossy:x", "eta": 0.5}]',
    "null": "null",
    "zero": "0",
    "empty-string": '""',
    "empty-array": "[]",
    "empty-object": "{}",
    "empty-document": "",
    "extra-data": ONE_EDGE + ' {"a": 1}',
    "crlf-bytes": DIAMOND_DOC.replace("\n", "\r\n").encode(),
    "non-utf8-bytes": b'{"points": ["\xff", "b"]}',
    "utf8-bom-bytes": b"\xef\xbb\xbf" + ONE_EDGE.encode(),
    "deep-arrays": "[" * 100_000 + "]" * 100_000,
    "deep-objects": '{"a": ' * 100_000 + "1" + "}" * 100_000,
    "integer-past-digit-limit": '{"points": [' + "1" * 5000 + "]}",
    "bytearray": bytearray(ONE_EDGE.encode()),
    "bytearray-utf16-bom": bytearray(ONE_EDGE.encode("utf-16")),
    "bytearray-duplicate": bytearray(DUPLICATE_KEY_DOCS["channel"].encode()),
    # Objects the count does not visit: with members they make it miss.
    "object-as-an-edge-end": ONE_EDGE.replace('"u": "a"', '"u": {"x": 1}'),
    "duplicate-in-an-edge-end": ONE_EDGE.replace('"u": "a"', '"u": {"x": 1, "x": 2}'),
    "object-in-probs": ONE_EDGE.replace(
        '"kind": "lossy", "eta": 0.5', '"kind": "dephasing", "probs": [{"p": 0.5}, 0.5]'
    ),
    "empty-object-in-points": '{"points": [{}, "b"], "alice": "a", "bob": "b", "edges": []}',
    "empty-edge": '{"points": ["a", "b"], "alice": "a", "bob": "b", "edges": [{}]}',
    "empty-channel": ONE_EDGE.replace('{"kind": "lossy", "eta": 0.5}', "{}"),
    "edges-an-object": '{"points": ["a", "b"], "alice": "a", "bob": "b", "edges": {"e0": {"x": 1}}}',
    "channel-a-list": ONE_EDGE.replace('{"kind": "lossy", "eta": 0.5}', '[{"kind": "lossy"}]'),
    "chain-with-an-edge-key": '[{"kind": "lossy", "eta": 0.5, "channel": {"x": 1}}]',
}

#: JSON text with keys drawn from a small pool, so that keys repeat, one of
#: them holding a colon.
_KEYS = st.sampled_from(["a", "b", "id", "a:b"])
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text("ab:", max_size=3)
)


def _object_text(pairs):
    return "{" + ", ".join(f"{json.dumps(key)}: {value}" for key, value in pairs) + "}"


_JSON_TEXT = st.recursive(
    _SCALARS.map(json.dumps),
    lambda inner: st.lists(inner, max_size=3).map(lambda items: "[" + ", ".join(items) + "]")
    | st.lists(st.tuples(_KEYS, inner), max_size=4).map(_object_text),
    max_leaves=12,
)


class TestRepeatedKeysByColonCount:
    """``_load_json`` keeps a decode with no per-member hook when its objects'
    sizes add up to the text's colons, and otherwise decodes again through
    ``_reject_duplicate_keys``: every result and error is the reference's."""

    def assert_parse_matches_reference(self, document):
        fast = _outcome(network._load_json, document), _outcome(parse_network, document)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(network, "_load_json", _reference_load)
            reference = _outcome(_reference_load, document), _outcome(parse_network, document)
        assert fast == reference

    @pytest.mark.parametrize("document", COUNTED_DOCS.values(), ids=COUNTED_DOCS)
    def test_parse_matches_the_hooked_reference(self, document):
        self.assert_parse_matches_reference(document)

    @pytest.mark.parametrize("command", ["network", "chain"])
    @pytest.mark.parametrize("document", COUNTED_DOCS.values(), ids=COUNTED_DOCS)
    def test_cli_matches_the_hooked_reference(self, document, command, tmp_path, capsys, monkeypatch):
        path = tmp_path / "input.json"
        path.write_bytes(document.encode() if isinstance(document, str) else document)

        def run():
            code = cli_main([command, str(path)])
            return (code, *capsys.readouterr())

        fast = run()
        monkeypatch.setattr(network, "_load_json", _reference_load)
        monkeypatch.setattr(cli, "_load_json", _reference_load)
        assert fast == run()

    @given(
        pairs=st.lists(st.tuples(_KEYS, _JSON_TEXT), min_size=1, max_size=5),
        data=st.data(),
    )
    def test_an_object_with_a_key_repeated_at_random(self, pairs, data):
        key = data.draw(st.sampled_from([key for key, _ in pairs]))
        at = data.draw(st.integers(0, len(pairs)))
        pairs.insert(at, (key, data.draw(_JSON_TEXT)))
        self.assert_parse_matches_reference(_object_text(pairs))

    @given(document=_JSON_TEXT)
    def test_json_with_keys_from_a_small_pool(self, document):
        self.assert_parse_matches_reference(document)

    def test_a_str_subclass_cannot_supply_the_colon_count(self):
        class Text(str):
            def count(self, *args):  # one colon short: the sizes of a one-repeat document
                return super().count(*args) - 1

        with pytest.raises(ValidationError, match="duplicate key 'points'"):
            parse_network(Text(DUPLICATE_KEY_DOCS["top-level"]))

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-16"])
    def test_bytearray_decodes_as_before(self, encoding):
        # A bytearray is no str after the bytes conversion, so it goes
        # through json.loads' own encoding detection, a UTF-16 BOM included.
        assert parse_network(bytearray(DIAMOND_DOC.encode(encoding))) == parse_network(DIAMOND_DOC)

    @pytest.fixture
    def hooked_calls(self, monkeypatch):
        calls = []
        hook = network._reject_duplicate_keys

        def spy(pairs):
            calls.append(pairs)
            return hook(pairs)

        monkeypatch.setattr(network, "_reject_duplicate_keys", spy)
        return calls

    def test_no_hook_call_on_a_grid_or_the_readme_example(self, hooked_calls):
        grid = _grid_network(100)
        assert parse_network(serialize_network(grid)) == grid
        assert len(parse_network(fenced("json")).edges) == 5
        assert len(network._load_json(COUNTED_DOCS["chain"])) == 2
        assert hooked_calls == []

    @staticmethod
    def _named(name):
        specs = [("e1", name, "x", lossy(0.5)), ("e2", "x", "b", lossy(0.9))]
        return build_network([name, "x", "b"], specs, alice=name)

    def test_a_colon_in_a_point_name_takes_no_hooked_decode(self, hooked_calls):
        # The key ends are counted instead of the colons, JSON whitespace
        # before a colon included.
        net = self._named("a:1")
        text = serialize_network(net)
        assert parse_network(text) == net
        assert parse_network(text.replace('": ', '" \r\n\t: ')) == net
        assert hooked_calls == []

    def test_a_repeated_key_among_colon_names_is_still_found(self, hooked_calls):
        text = serialize_network(self._named("a:1")).replace('"eta": 0.5', '"eta": 0.5, "eta": 0.5')
        with pytest.raises(ValidationError, match="^duplicate key 'eta'$"):
            parse_network(text)
        assert len(hooked_calls) >= 1

    @pytest.mark.parametrize("name", [":x", 'a":1', 'a\\":1'], ids=["colon-first", "quote-colon", "backslash"])
    def test_a_key_end_inside_a_name_takes_the_hooked_decode(self, hooked_calls, name):
        net = self._named(name)
        assert parse_network(serialize_network(net)) == net
        assert len(hooked_calls) >= 1


class TestParseGcPause:
    """``parse_network`` pauses the cyclic collector and hands the caller's
    setting back, however the parse ends."""

    @pytest.mark.parametrize(
        "document, error",
        [
            (DIAMOND_DOC, None),
            ('{"points": [', ParseError),
            (diamond_with(lambda doc: doc["edges"][2]["channel"].update(eta=1.5)), ValidationError),
            (diamond_with(lambda doc: doc["edges"][3].update(u="zz")), ValidationError),
        ],
        ids=["parsed", "parse-error", "bad-channel", "bad-endpoint"],
    )
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_caller_state_restored(self, document, error, enabled):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if error is None:
                parse_network(document)
            else:
                with pytest.raises(error):
                    parse_network(document)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_no_collection_during_a_parse(self):
        # With a threshold of one allocation, any running collector would
        # start many collections over a parse of a few hundred edges.
        edges = [
            {"id": f"e{i}", "u": "a", "v": "b", "channel": {"kind": "lossy", "eta": 0.5}}
            for i in range(300)
        ]
        document = json.dumps({"points": ["a", "b"], "alice": "a", "bob": "b", "edges": edges})
        # A collection counts from the pausing wrapper's first line, so one
        # started by what the wrapper does before it switches the collector
        # off fails the test; one started by the caller's argument packing,
        # before the wrapper's frame runs, is not the parse's.
        wrapper, starts = parse_network.__code__, []

        def count(phase, info):
            if phase == "start":
                frame = sys._getframe()
                while frame is not None and frame.f_code is not wrapper:
                    frame = frame.f_back
                starts.append(frame is not None)

        threshold, was_enabled = gc.get_threshold(), gc.isenabled()
        gc.enable()
        gc.set_threshold(1)
        gc.callbacks.append(count)
        try:
            net = parse_network(document)
            during = sum(starts)
            [[] for _ in range(100)]  # the collector runs again afterwards
        finally:
            gc.callbacks.remove(count)
            gc.set_threshold(*threshold)
            (gc.enable if was_enabled else gc.disable)()
        assert len(net.edges) == 300
        assert during == 0
        assert len(starts) > 0


class TestConstruction:
    @pytest.mark.parametrize(
        "channel", [None, "lossy", {"kind": "lossy", "eta": 0.5}, 0.5], ids=["none", "str", "dict", "eta"]
    )
    def test_channel_not_a_spec(self, channel):
        edges = (Edge("e0", "a", "b", lossy(0.5)), Edge("e1", "a", "b", channel))
        with pytest.raises(ValidationError) as err:
            QNetwork(("a", "b"), edges, "a", "b")
        assert str(err.value) == "edge 'e1': channel must be a ChannelSpec"

    def test_str_subclass_names(self):
        # They take the checks by name, which pass them, then the same index.
        class Name(str):
            pass

        edges = (Edge(Name("e0"), Name("a"), Name("b"), lossy(0.5)),)
        built = QNetwork((Name("b"), Name("a")), edges, Name("a"), Name("b"))
        plain = QNetwork(("b", "a"), (Edge("e0", "a", "b", lossy(0.5)),), "a", "b")
        assert built == plain
        for column in ("names", "ids", "to", "arcs", "caps", "edge_ids", "alice", "bob"):
            assert getattr(built._index, column) == getattr(plain._index, column)

    def test_channel_not_a_spec_after_the_edges_other_faults(self):
        for edge, message in [
            (Edge("e0", "a", "zz", None), "edge 'e0': endpoint 'zz' is not a declared point"),
            (Edge("e0", "a", "a", None), "edge 'e0': self-loops are not allowed"),
            (Edge("", "a", "b", None), "edge id '' must be a non-empty string"),
        ]:
            with pytest.raises(ValidationError) as err:
                QNetwork(("a", "b"), (edge,), "a", "b")
            assert str(err.value) == message

    @pytest.mark.parametrize("role", ["u", "v", "alice", "bob"])
    def test_unhashable_name(self, role):
        names = {"u": "a", "v": "b", "alice": "a", "bob": "b", role: ["a"]}
        with pytest.raises(ValidationError):
            QNetwork(
                points=("a", "b"),
                edges=(Edge("e0", names["u"], names["v"], lossy(0.5)),),
                alice=names["alice"],
                bob=names["bob"],
            )

    def test_points_a_string(self):
        # A string is iterable, but its characters are not the point names meant.
        with pytest.raises(ValidationError) as err:
            QNetwork("ab", (), "a", "b")
        assert str(err.value) == "points 'ab' is a string, not a collection of point names"

    @pytest.mark.parametrize(
        "entry", [("e1", "a", "b", lossy(0.5)), None, "e1"], ids=["tuple", "none", "str"]
    )
    def test_edge_not_an_edge(self, entry):
        edges = (Edge("e0", "a", "b", lossy(0.5)), entry)
        with pytest.raises(ValidationError) as err:
            QNetwork(("a", "b"), edges, "a", "b")
        assert str(err.value) == "edge #1: must be an Edge"

    @pytest.mark.parametrize(
        "clone", [lambda n: pickle.loads(pickle.dumps(n)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    @pytest.mark.parametrize("edges_read", [False, True], ids=["index-only", "edges-read"])
    def test_a_copy_is_the_same_network(self, clone, edges_read):
        net = parse_network(serialize_network(diamond()))
        if edges_read:
            net.edges
        copied = clone(net)
        assert copied == net == diamond()
        assert hash(copied) == hash(net)
        assert copied.capacities == net.capacities
        assert widest_path(copied) == widest_path(net)


class TestEdgeIdentity:
    #: MIXED_DOC's five edges, one per kind, built by hand.
    BUILT = (
        Edge("e1", "a", "p1", lossy(0.5)),
        Edge("e2", "a", "p2", erasure(0.1, 2)),
        Edge("e3", "p1", "p2", dephasing([0.9, 0.1])),
        Edge("e4", "p1", "b", amplifier(1.5)),
        Edge("e5", "p2", "b", multiband_lossy(0.5, 3)),
    )

    @pytest.mark.parametrize("index", range(5), ids=[e.channel.kind for e in BUILT])
    def test_parsed_edge_equals_built_edge(self, index):
        parsed, built = parse_network(MIXED_DOC).edges[index], self.BUILT[index]
        for a, b in ((parsed, built), (parsed.channel, built.channel)):
            assert a == b
            assert hash(a) == hash(b)
            assert repr(a) == repr(b)

    def test_edge_is_a_frozen_dataclass_of_four_fields(self):
        edge = Edge(edge_id="e1", u="a", v="p1", channel=lossy(0.5))
        assert edge == self.BUILT[0]
        assert repr(edge) == (
            "Edge(edge_id='e1', u='a', v='p1', channel=ChannelSpec(kind='lossy', eta=0.5,"
            " gain=None, probs=None, p=None, dim=None, bands=None))"
        )
        assert dataclasses.astuple(edge)[:3] == ("e1", "a", "p1")
        assert dataclasses.replace(edge, v="p2").v == "p2"
        with pytest.raises(dataclasses.FrozenInstanceError):
            edge.u = "b"


class TestSerialize:
    def test_round_trip_value_identity(self):
        for doc in (DIAMOND_DOC, MIXED_DOC):
            net = parse_network(doc)
            assert parse_network(serialize_network(net)) == net

    def test_normalize_then_round_trip_is_byte_identical(self):
        for doc in (DIAMOND_DOC, MIXED_DOC):
            normalized = serialize_network(parse_network(doc))
            again = serialize_network(parse_network(normalized))
            assert again == normalized

    def test_diamond_golden_file(self, tmp_path):
        import pathlib

        golden = pathlib.Path(__file__).parent / "data" / "diamond.json"
        assert serialize_network(parse_network(DIAMOND_DOC)) == golden.read_text()

    def test_empty_edge_network_is_valid_but_disconnected(self):
        net = build_network(("a", "b"), [])
        text = serialize_network(net)
        reparsed = parse_network(text)
        assert reparsed == net
        assert not is_connected(reparsed)


class TestQueries:
    def test_diamond_connected(self):
        assert is_connected(diamond())

    def test_two_points_no_edges_disconnected(self):
        assert not is_connected(build_network(("a", "b"), []))

    def test_edge_capacity_3db(self):
        assert edge_capacity(diamond(), "e1") == 1.0

    def test_edge_capacity_unknown_edge(self):
        with pytest.raises(UnknownEdge):
            edge_capacity(diamond(), "e99")

    @pytest.mark.parametrize("edge_id", [None, 3, ["e1"], {"e1"}])
    def test_edge_capacity_unknown_or_unhashable_id(self, edge_id):
        with pytest.raises(UnknownEdge):
            edge_capacity(diamond(), edge_id)

    def test_edge_lookup_by_id(self):
        net = diamond()
        for edge in net.edges:
            assert net.edge(edge.edge_id) is edge

    @pytest.mark.parametrize("edge_id", ["e99", "", None, 3])
    def test_edge_unknown_id(self, edge_id):
        with pytest.raises(UnknownEdge):
            diamond().edge(edge_id)

    @pytest.mark.parametrize("edge_id", [["e1"], {"e1": 1}, {"e1"}])
    def test_edge_unhashable_id(self, edge_id):
        with pytest.raises(UnknownEdge):
            diamond().edge(edge_id)

    def test_capacities_in_edge_order(self):
        specs = [lossy(0.5), erasure(0.25, dim=4), lossy(0.9)]
        net = build_network(
            ("a", "p1", "b"),
            [("x", "a", "p1", specs[0]), ("y", "p1", "b", specs[1]), ("w", "a", "b", specs[2])],
        )
        assert list(net.capacities) == ["x", "y", "w"]
        assert list(net.capacities.values()) == [capacity(spec) for spec in specs]
        assert net.capacities is net.capacities  # evaluated once per network

    def test_make_cut_crossing_set(self):
        net = diamond()
        cut = make_cut(net, {"a", "p1"})
        assert cut.side_a == ("a", "p1")
        assert set(cut.cut_set) == {"e2", "e3", "e4"}
        assert cut_single_edge_value(net, cut) == 1.0
        assert cut_multi_edge_value(net, cut) == 3.0

    def test_make_cut_requires_alice_not_bob(self):
        net = diamond()
        with pytest.raises(ValidationError):
            make_cut(net, {"p1"})
        with pytest.raises(ValidationError):
            make_cut(net, {"a", "b"})

    def test_make_cut_rejects_undeclared_point(self):
        with pytest.raises(ValidationError, match="'ghost' is not a declared point"):
            make_cut(diamond(), {"a", "ghost"})

    def test_make_cut_rejects_a_bare_string(self):
        # Iterated, the string "a" would read as the side {"a"}.
        with pytest.raises(ValidationError, match="side_a 'a' is a string"):
            make_cut(diamond(), "a")

    def test_make_cut_rejects_an_unhashable_member(self):
        with pytest.raises(ValidationError, match=r"side_a point \['x'\] is not a declared point"):
            make_cut(diamond(), ["a", ["x"]])

    def test_make_cut_checks_alice_then_bob_then_undeclared_points(self):
        net = diamond()
        with pytest.raises(ValidationError, match="must contain alice"):
            make_cut(net, ["b", ["x"], "ghost"])
        with pytest.raises(ValidationError, match="must not contain bob"):
            make_cut(net, ["a", "b", ["x"], "ghost"])
        # repr "'ghost'" sorts before "['x']"
        with pytest.raises(ValidationError, match="'ghost' is not a declared point"):
            make_cut(net, ["a", ["x"], "ghost"])

    @pytest.mark.parametrize("seed", ["1", "2", "3", "4", "5", "6"])
    def test_make_cut_names_one_undeclared_point_under_every_hash_seed(self, seed):
        # Several undeclared points: the one named is the smallest by repr,
        # not the first that the set happens to yield.
        code = (
            "from qnetcap import Edge, QNetwork, lossy, make_cut\n"
            "net = QNetwork(('a', 'x', 'b'), (Edge('e', 'a', 'b', lossy(0.5)),), 'a', 'b')\n"
            "try:\n"
            "    make_cut(net, ['a', 'q1', 'q2', 'q3', 'q4'])\n"
            "except Exception as exc:\n"
            "    print(exc)\n"
        )
        assert stdout_under_hash_seed(code, seed) == "side_a point 'q1' is not a declared point\n"

    def test_empty_cut_set_single_value_is_no_route(self):
        net = build_network(("a", "b"), [])
        cut = make_cut(net, {"a"})
        with pytest.raises(NoRoute):
            cut_single_edge_value(net, cut)
        assert cut_multi_edge_value(net, cut) == 0.0


def _removing_cut_set_disconnects(net, cut):
    kept = [
        (e.edge_id, e.u, e.v, e.channel)
        for e in net.edges
        if e.edge_id not in cut.cut_set
    ]
    reduced = build_network(net.points, kept, alice=net.alice, bob=net.bob)
    return not is_connected(reduced)


class TestCutSoundness:
    def test_every_enumerated_cut_disconnects(self):
        net = parse_network(MIXED_DOC)
        for record in enumerate_cuts(net):
            assert _removing_cut_set_disconnects(net, record.cut)

    def test_algorithm_cuts_disconnect(self, network_suite):
        from qnetcap import max_flow, max_spanning_tree, min_single_edge_cut, tree_route_capacity

        for net in network_suite[:40]:
            assert _removing_cut_set_disconnects(net, min_single_edge_cut(net))
            assert _removing_cut_set_disconnects(net, max_flow(net).min_cut)
            assert _removing_cut_set_disconnects(net, widest_path(net).dual_cut)
            tree_report = tree_route_capacity(net, max_spanning_tree(net))
            assert _removing_cut_set_disconnects(net, tree_report.dual_cut)


class TestMultigraphSemantics:
    def test_duplicate_edge_single_path_unchanged_and_cuts_grow(self, network_suite):
        for net in network_suite[:25]:
            edge = net.edges[0]
            cap = edge_capacity(net, edge.edge_id)
            augmented = build_network(
                net.points,
                [(e.edge_id, e.u, e.v, e.channel) for e in net.edges]
                + [("dup0", edge.u, edge.v, edge.channel)],
                alice=net.alice,
                bob=net.bob,
            )
            assert widest_path(augmented).capacity == widest_path(net).capacity

            before = {rec.cut.side_a: rec.multi_edge_value for rec in enumerate_cuts(net)}
            after = {rec.cut.side_a: rec.multi_edge_value for rec in enumerate_cuts(augmented)}
            for rec in enumerate_cuts(net):
                crosses = edge.edge_id in rec.cut.cut_set
                expected = before[rec.cut.side_a] + (cap if crosses else 0.0)
                assert after[rec.cut.side_a] == pytest.approx(expected, abs=1e-12)

    def test_parallel_erasure_edges_add_in_multipath(self):
        net = build_network(
            ("a", "b"),
            [
                ("e1", "a", "b", erasure(0.25)),
                ("e2", "a", "b", erasure(0.5)),
                ("e3", "a", "b", lossy(0.5)),
            ],
        )
        assert widest_path(net).capacity == 1.0
        assert brute_multi_path_capacity(net) == pytest.approx(0.75 + 0.5 + 1.0, abs=1e-12)


def _edge_text(eid="e0", u="a", v="b", channel=None, **extra):
    return {"id": eid, "u": u, "v": v, "channel": channel or {"kind": "lossy", "eta": 0.5}, **extra}


def _doc_text(edges, points=("a", "p", "b"), alice="a", bob="b"):
    return json.dumps({"points": list(points), "alice": alice, "bob": bob, "edges": edges})


#: A valid channel with more than 1/2 on a phase rotation, in the
#: ``warning`` documents below: it shows no warning.
_WARN = {"kind": "dephasing", "probs": [0.2, 0.8]}
_BAD = {"kind": "lossy", "eta": 1.5}
_BAD_E1 = "edge 'e1': eta=1.5: must lie strictly inside (0, 1)"

_AMP_BAD = {"kind": "amplifier", "gain": 0.5}


def _etas_text(eta):
    """Three lossy edges, the middle one's eta ``eta``: a NaN there is
    neither the smallest nor the largest of the column."""
    return _doc_text([_edge_text(f"e{i}", channel={"kind": "lossy", "eta": x}) for i, x in enumerate((0.5, eta, 0.7))])


def _chain_edge(i, channel=None):
    return _edge_text(f"e{i}", f"p{i}", f"p{i + 1}", channel)


def _chain_text(faults):
    """A 3,000-hop lossy chain, each entry of ``faults`` (edge number ->
    edge) in place of that edge: faults 1,024 edges apart fall in separate
    blocks of the parse's columns."""
    edges = [_chain_edge(i) for i in range(3000)]
    for i, edge in faults.items():
        edges[i] = edge
    return _doc_text(edges, points=[f"p{i}" for i in range(3001)], alice="p0", bob="p3000")


#: Documents the usual-object checks by size turn away, each with the
#: outcome of the field checks by name: ``None`` for a network accepted,
#: else the ValidationError message, and the warnings shown before it
#: (none, as the package raises none).
FALLBACK_DOCS = {
    "dephasing-without-dim": (
        _doc_text([_edge_text(channel={"kind": "dephasing", "probs": [0.9, 0.1]})]), None, []
    ),
    "erasure-without-dim": (_doc_text([_edge_text(channel={"kind": "erasure", "p": 0.25})]), None, []),
    "null-parameter": (
        _doc_text([_edge_text(channel={"kind": "lossy", "eta": None})]),
        "edge 'e0': fields of kind 'lossy' must not be null", [],
    ),
    "null-optional-parameter": (
        _doc_text([_edge_text(channel={"kind": "erasure", "p": 0.25, "dim": None})]),
        "edge 'e0': fields of kind 'erasure' must not be null", [],
    ),
    "channel-extra-and-missing-field": (
        _doc_text([_edge_text(channel={"kind": "lossy", "gain": 2.0})]),
        "edge 'e0': unknown field 'gain' for kind 'lossy'", [],
    ),
    "channel-kind-missing": (
        _doc_text([_edge_text(channel={"eta": 0.5, "gain": 2.0})]), "edge 'e0': unknown channel kind None", []
    ),
    "channel-kind-unhashable": (
        _doc_text([_edge_text(channel={"kind": ["lossy"], "eta": 0.5})]),
        "edge 'e0': unknown channel kind ['lossy']", [],
    ),
    "channel-a-list": (
        _doc_text([_edge_text(channel=["lossy", 0.5])]), "edge 'e0': channel must be an object", []
    ),
    "edge-extra-and-missing-field": (
        _doc_text([{"id": "e0", "u": "a", "w": "b", "channel": {"kind": "lossy", "eta": 0.5}}]),
        "edge #0: unknown field 'w'", [],
    ),
    "edge-missing-field": (
        _doc_text([{"id": "e0", "u": "a", "channel": {"kind": "lossy", "eta": 0.5}}]),
        "edge #0: missing field 'v'", [],
    ),
    "edge-u-null": (
        _doc_text([_edge_text(u=None)]), "edge 'e0': endpoint None is not a declared point", []
    ),
    "edge-id-null": (_doc_text([_edge_text(eid=None)]), "edge id None must be a non-empty string", []),
    "edge-a-list-of-four": (
        _doc_text([["e0", "a", "b", {"kind": "lossy", "eta": 0.5}]]), "edge #0: must be an object", []
    ),
    "edge-a-string-of-four": (_doc_text(["abcd"]), "edge #0: must be an object", []),
    "edge-null": (_doc_text([None]), "edge #0: must be an object", []),
    "edge-empty": (_doc_text([{}]), "edge #0: missing field 'id'", []),
    "bad-point-then-bad-channel": (
        _doc_text([_edge_text(), _edge_text("e1", "a", "p", _BAD)], points=("a", "", "p", "b")), _BAD_E1, []
    ),
    "bad-point-then-warning": (
        _doc_text([_edge_text(), _edge_text("e1", "a", "p", _WARN)], points=("a", "", "p", "b")),
        "point name '' must be a non-empty string", [],
    ),
    "alice-is-bob-then-bad-channel": (
        _doc_text([_edge_text(), _edge_text("e1", "a", "p", _BAD)], bob="a"), _BAD_E1, []
    ),
    "bad-end-then-bad-channel": (
        _doc_text([_edge_text(v="zz"), _edge_text("e1", "a", "p", _BAD)]), _BAD_E1, []
    ),
    "bad-end-then-warning": (
        _doc_text([_edge_text(v="zz"), _edge_text("e1", "a", "p", _WARN)]),
        "edge 'e0': endpoint 'zz' is not a declared point", [],
    ),
    "duplicate-id-then-bad-channel": (
        _doc_text([_edge_text(), _edge_text(), _edge_text("e1", "a", "p", _BAD)]), _BAD_E1, []
    ),
    "self-loop-then-edge-not-object": (
        _doc_text([_edge_text(v="a"), _edge_text("e1", "a", "p"), 7]), "edge #2: must be an object", []
    ),
    "warning-then-bad-channel": (
        _doc_text([_edge_text(channel=_WARN), _edge_text("e1", "a", "p", _BAD)]), _BAD_E1, []
    ),
    "duplicate-key-and-warning": (
        _doc_text([_edge_text(channel=_WARN)]).replace(
            '"probs": [0.2, 0.8]', '"probs": [0.5, 0.5], "probs": [0.2, 0.8]'
        ),
        "duplicate key 'probs'", [],
    ),
    # Where the column of lossy etas declines: today's message, of the edge named.
    "eta-nan": (_etas_text(math.nan), "edge 'e1': eta=nan: must be finite", []),
    "eta-infinity": (_etas_text(math.inf), "edge 'e1': eta=inf: must be finite", []),
    "eta-minus-infinity": (_etas_text(-math.inf), "edge 'e1': eta=-inf: must be finite", []),
    "eta-int-1": (_etas_text(1), "edge 'e1': eta=1.0: must lie strictly inside (0, 1)", []),
    "eta-true": (_etas_text(True), "edge 'e1': eta=True: must be a real number", []),
    "eta-a-string": (_etas_text("0.5"), "edge 'e1': eta='0.5': must be a real number", []),
    "eta-zero": (_etas_text(0.0), "edge 'e1': eta=0.0: must lie strictly inside (0, 1)", []),
    "eta-one": (_etas_text(1.0), "edge 'e1': eta=1.0: must lie strictly inside (0, 1)", []),
    "eta-smallest-float": (_etas_text(5e-324), None, []),
    "eta-largest-below-one": (_etas_text(0.9999999999999999), None, []),
    "bad-eta-then-edge-not-object-in-one-block": (
        _doc_text([_edge_text(), _edge_text("e1", "a", "p", _BAD), 7]), _BAD_E1, []
    ),
    # Faults in separate blocks of a 3,000-edge chain: the first in edge order raises.
    "chain-bad-eta-then-bad-amplifier": (
        _chain_text({2500: _chain_edge(2500, _BAD), 2900: _chain_edge(2900, _AMP_BAD)}),
        "edge 'e2500': eta=1.5: must lie strictly inside (0, 1)", [],
    ),
    "chain-bad-amplifier-then-bad-eta": (
        _chain_text({100: _chain_edge(100, _AMP_BAD), 2500: _chain_edge(2500, _BAD)}),
        "edge 'e100': gain=0.5: must be strictly greater than 1", [],
    ),
    "chain-bad-eta-then-edge-not-object": (
        _chain_text({10: _chain_edge(10, _BAD), 2999: 7}),
        "edge 'e10': eta=1.5: must lie strictly inside (0, 1)", [],
    ),
    "chain-missing-field-then-bad-eta": (
        _chain_text({1500: {"id": "e1500", "v": "p1501", "channel": _BAD}, 2000: _chain_edge(2000, _BAD)}),
        "edge #1500: missing field 'u'", [],
    ),
}


class _AnySubscript:
    """Answers every subscript with a kind's name, and has no ``get``."""

    def __getitem__(self, key):
        return "lossy"


@pytest.mark.parametrize(
    "obj",
    [re.match("x", "x"), _AnySubscript(), ["kind", "eta"], "kind", 7, None],
    ids=["match", "any-subscript", "list", "str", "int", "null"],
)
def test_channel_from_json_names_any_non_object(obj):
    # Only an exact dict is read by the check by size: no other type's
    # subscript runs, so the error is the one for a non-object.
    with pytest.raises(ValidationError) as err:
        network.channel_from_json(obj)
    assert str(err.value) == "channel: channel must be an object"


class TestFallbackChecks:
    """Where a check by size turns an object away, the checks by name give
    what they gave before the checks by size: the same error, after the
    same warnings, or the same network."""

    @pytest.mark.parametrize("document, message, shown", FALLBACK_DOCS.values(), ids=FALLBACK_DOCS)
    def test_parse_outcome(self, document, message, shown):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            if message is None:
                net = parse_network(document)
                data = json.loads(document)
                assert list(net.capacities) == [edge["id"] for edge in data["edges"]]
            else:
                with pytest.raises(ValidationError) as err:
                    parse_network(document)
                assert str(err.value) == message
        assert [str(w.message) for w in record] == shown
        assert {w.filename for w in record} <= {__file__}

    @pytest.mark.parametrize("document, message, shown", FALLBACK_DOCS.values(), ids=FALLBACK_DOCS)
    def test_command_outcome(self, document, message, shown, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text(document, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            code = cli_main(["network", str(path)])
        err = capsys.readouterr().err
        lines = [f"warning: {text}\n" for text in shown]
        if message is None:
            assert (code, err) == (0, "".join(lines))
        else:
            assert (code, err) == (2, "".join(lines) + f"error: {message}\n")


@pytest.mark.parametrize("eta", [5e-324, 0.9999999999999999], ids=["smallest-float", "largest-below-one"])
def test_an_eta_at_the_range_ends_takes_its_kinds_capacity(eta):
    # The column check passes them by their extremes; the capacity is the
    # one the lossy constructor's spec gives, bit for bit.
    net = parse_network(_etas_text(eta))
    assert net.capacities["e1"] == capacity(lossy(eta))
    assert net.edges[1].channel == lossy(eta)


def _grid_network(side):
    """A side x side grid of lossy links, alice and bob at opposite corners."""
    name = lambda i, j: f"g{i}_{j}"  # noqa: E731
    links = [
        (name(i, j), name(i + di, j + dj))
        for i in range(side)
        for j in range(side)
        for di, dj in ((0, 1), (1, 0))
        if i + di < side and j + dj < side
    ]
    specs = [(f"e{k}", u, v, lossy(0.25 + (k % 7) / 10)) for k, (u, v) in enumerate(links)]
    points = [name(i, j) for i in range(side) for j in range(side)]
    return build_network(points, specs, alice=name(0, 0), bob=name(side - 1, side - 1))


_INDEX_COLUMNS = ("names", "ids", "to", "arcs", "caps", "edge_ids", "alice", "bob")


def assert_parsed_equals_built(built):
    """The network parsed from ``built``'s document is ``built``: equal,
    with the same hash and repr, capacities and index columns."""
    parsed = parse_network(serialize_network(built))
    assert "edges" not in vars(parsed)  # no Edge made so far
    for column in _INDEX_COLUMNS:
        assert getattr(parsed._index, column) == getattr(built._index, column), column
    assert list(parsed.capacities.items()) == list(built.capacities.items())
    assert parsed == built
    assert hash(parsed) == hash(built)
    assert repr(parsed) == repr(built)


class TestOnePass:
    """A parsed network and the same network built by hand go through one
    pass, and come out alike."""

    def test_a_grid(self):
        assert_parsed_equals_built(_grid_network(100))

    def test_a_grid_with_an_amplifier_every_50th_edge(self):
        # Lossy capacities come from the eta column, the amplifiers' from
        # their specs: over twenty 1,024-edge blocks each lands on its edge.
        assert_parsed_equals_built(_amplified(_grid_network(100), 50))

    def test_the_suite_networks(self, network_suite):
        for net in network_suite:
            assert_parsed_equals_built(net)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(networks)
    def test_hypothesis_networks(self, net):
        assert_parsed_equals_built(net)

    def test_a_hand_built_network_keeps_its_edges(self):
        built = _grid_network(3)
        rebuilt = QNetwork(list(built.points), list(built.edges), built.alice, built.bob)
        assert rebuilt.points == built.points
        assert all(a is b for a, b in zip(rebuilt.edges, built.edges, strict=True))


def _peak_bytes(call, *args):
    """The most memory traced while ``call(*args)`` runs, its result included."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _amplified(net, every):
    """``net`` with every ``every``-th edge's channel an amplifier."""
    edges = [e if k % every else Edge(e.edge_id, e.u, e.v, amplifier(1.5)) for k, e in enumerate(net.edges)]
    return QNetwork(net.points, edges, net.alice, net.bob)


@pytest.mark.parametrize("every", [None, 50], ids=["lossy", "amplifier-every-50th"])
def test_a_parse_peaks_at_about_its_decode(every):
    # Each block of decoded edges is dropped once its columns are taken:
    # keeping the decoded edges to the end peaked at 1.6x, taking the four
    # columns whole at 1.054x.  The amplifiers take the per-edge branch.
    grid = _grid_network(100)
    text = serialize_network(grid if every is None else _amplified(grid, every))
    assert _peak_bytes(parse_network, text) <= 1.05 * _peak_bytes(json.loads, text)


def test_a_lossy_parse_makes_no_spec_per_edge(monkeypatch):
    # The column of etas is checked by its extremes; each spec is built when
    # the edges are first read, as each Edge is.
    grid = _grid_network(100)
    text, build, made = serialize_network(grid), ChannelKind.build, []

    def spy(kind, values):
        made.append(kind.name)
        return build(kind, values)

    monkeypatch.setattr(ChannelKind, "build", spy)
    parsed = parse_network(text)
    at_parse = len(made)
    assert at_parse <= 2  # the smallest and the largest eta, not one per edge
    assert len(parsed.edges) == len(made) - at_parse == 19_800
    assert_parsed_equals_built(grid)


class TestNoEdgeObjects:
    """A parsed network makes no :class:`Edge` until its edges are read."""

    @pytest.fixture
    def made(self, monkeypatch):
        made = []

        def spy(*fields):
            made.append(fields[0])
            return Edge(*fields)

        monkeypatch.setattr(network, "Edge", spy)
        return made

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_network_command(self, made, mode, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text(MIXED_DOC, encoding="utf-8")
        assert cli_main(["network", str(path), "--mode", mode]) == 0
        assert made == []

    def test_tree_route_then_edges_built_once(self, made):
        net = parse_network(MIXED_DOC)
        report = tree_route_capacity(net, max_spanning_tree(net))
        assert report == widest_path(net)
        assert made == []
        edges = net.edges
        assert made == ["e1", "e2", "e3", "e4", "e5"]
        assert net.edges is edges
        assert net.edge("e3") is edges[2]
        assert made == ["e1", "e2", "e3", "e4", "e5"]
