import json

import pytest

from conftest import DUPLICATE_KEY_DOCS, build_network, diamond
from qnetcap import (
    NoRoute,
    ParseError,
    UnknownEdge,
    ValidationError,
    brute_multi_path_capacity,
    cut_multi_edge_value,
    cut_single_edge_value,
    edge_capacity,
    enumerate_cuts,
    erasure,
    is_connected,
    lossy,
    make_cut,
    parse_network,
    serialize_network,
    widest_path,
)

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

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_network("{ nope }")

    @pytest.mark.parametrize("document", DUPLICATE_KEY_DOCS.values(), ids=DUPLICATE_KEY_DOCS)
    def test_duplicate_key(self, document):
        with pytest.raises(ValidationError, match="duplicate key"):
            parse_network(document)


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
        for record in enumerate_cuts(net).cuts:
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

            before = {rec.cut.side_a: rec.multi_edge_value for rec in enumerate_cuts(net).cuts}
            after = {rec.cut.side_a: rec.multi_edge_value for rec in enumerate_cuts(augmented).cuts}
            for rec in enumerate_cuts(net).cuts:
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
