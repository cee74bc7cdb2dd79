import dataclasses
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import pathlib
import random
import signal
import sys
import threading
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DUPLICATE_KEY_DOCS, diamond
from qnetcap import (
    CHANNEL_KINDS,
    ParseError,
    amplifier,
    capacity,
    db_to_transmissivity,
    dephasing,
    equidistant_lossy_capacity,
    erasure,
    lossy,
    max_flow,
    multiband_lossy,
    parse_network,
    serialize_network,
)
from qnetcap import channels, cli
from qnetcap.cli import db_grid, format_bits, main
from qnetcap.channels import FIBER_DB_PER_KM
from qnetcap.errors import InvalidParameter
from qnetcap.network import channel_from_json, channel_to_json

DATA = pathlib.Path(__file__).parent / "data"

#: File contents that no JSON decoder call should turn into a traceback.
HOSTILE_FILES = {
    "not-utf8": b"\xff\xfe{}",
    "nested-too-deep": b"[" * 100_000,
    "integer-too-long": b"1" * 5000,
}

SAMPLE_SPECS = {
    "lossy": lossy(0.3),
    "amplifier": amplifier(2.5),
    "dephasing": dephasing((0.7, 0.2, 0.1)),
    "erasure": erasure(0.25, dim=4),
    "multiband_lossy": multiband_lossy(0.3, 3),
}


def channel_argv(spec):
    """``qnetcap channel`` arguments naming ``spec``, one flag per JSON field."""
    argv = ["channel", "--kind", spec.kind]
    for name, value in channel_to_json(spec).items():
        if name != "kind":
            text = ",".join(map(repr, value)) if isinstance(value, list) else repr(value)
            argv += [f"--{name}", text]
    return argv


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.json"
    path.write_text(serialize_network(diamond()), encoding="utf-8")
    return str(path)


@pytest.fixture
def no_route_file(tmp_path):
    doc = {
        "points": ["a", "b"],
        "alice": "a",
        "bob": "b",
        "edges": [],
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestChannelCommand:
    def test_lossy_3db(self, capsys):
        assert main(["channel", "--kind", "lossy", "--eta", "0.5"]) == 0
        assert capsys.readouterr().out == "1.000000000 bits/use\n"

    def test_dephasing(self, capsys):
        assert main(["channel", "--kind", "dephasing", "--probs", "0.5,0.5"]) == 0
        assert capsys.readouterr().out == "0.000000000 bits/use\n"

    def test_erasure_qudit(self, capsys):
        assert main(
            ["channel", "--kind", "erasure", "--p", "0.25", "--dim", "4"]
        ) == 0
        assert capsys.readouterr().out == "1.500000000 bits/use\n"

    def test_invalid_parameter_exits_2(self, capsys):
        assert main(["channel", "--kind", "lossy", "--eta", "1.0"]) == 2
        assert "eta" in capsys.readouterr().err

    def test_missing_required_field_exits_2(self, capsys):
        assert main(["channel", "--kind", "lossy"]) == 2

    @pytest.mark.parametrize("bands", [10**308, 10**309], ids=["1e308", "1e309"])
    def test_capacity_beyond_float_range_exits_2(self, bands, capsys):
        argv = ["channel", "--kind", "multiband_lossy", "--eta", "0.9", "--bands", str(bands)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: channel: bands=")

    @pytest.mark.parametrize("kind", CHANNEL_KINDS)
    def test_constructor_json_and_flags_agree(self, kind, capsys):
        spec = SAMPLE_SPECS[kind]
        assert channel_from_json(channel_to_json(spec)) == spec
        assert main(channel_argv(spec)) == 0
        assert capsys.readouterr().out == f"{format_bits(capacity(spec))} bits/use\n"

    @pytest.mark.parametrize("kind", CHANNEL_KINDS)
    def test_flag_of_another_kind_exits_2(self, kind, capsys):
        foreign = ["--eta", "0.5"] if kind == "amplifier" else ["--gain", "7"]
        assert main(channel_argv(SAMPLE_SPECS[kind]) + foreign) == 2
        assert "unknown field" in capsys.readouterr().err


class TestChainCommand:
    def test_inline_lossy_chain(self, capsys):
        assert main(["chain", "--lossy", "0.9,0.5,0.8"]) == 0
        out = capsys.readouterr().out
        assert "capacity: 1.000000000 bits/use" in out
        assert "bottleneck_link: 1" in out

    def test_chain_file(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text(
            json.dumps(
                [
                    {"kind": "erasure", "p": 0.2, "dim": 2},
                    {"kind": "dephasing", "probs": [0.89, 0.11]},
                ]
            ),
            encoding="utf-8",
        )
        assert main(["chain", str(path)]) == 0
        out = capsys.readouterr().out
        assert "capacity: 0.500084042 bits/use" in out
        assert "bottleneck_link: 1" in out

    def test_needs_exactly_one_source(self):
        with pytest.raises(SystemExit):
            main(["chain"])

    def test_bad_chain_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text("[]", encoding="utf-8")
        assert main(["chain", str(path)]) == 2

    def test_duplicate_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text('[{"kind": "lossy", "eta": 0.5, "eta": 0.9}]', encoding="utf-8")
        assert main(["chain", str(path)]) == 2
        assert "duplicate key 'eta'" in capsys.readouterr().err


class TestHostileFiles:
    @pytest.mark.parametrize("content", HOSTILE_FILES.values(), ids=HOSTILE_FILES)
    @pytest.mark.parametrize("command", ["network", "chain"])
    def test_exits_2_with_one_line(self, tmp_path, capsys, command, content):
        path = tmp_path / "hostile.json"
        path.write_bytes(content)
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("content", HOSTILE_FILES.values(), ids=HOSTILE_FILES)
    def test_parse_network_raises_parse_error(self, content):
        with pytest.raises(ParseError):
            parse_network(content)


class TestNetworkCommand:
    def test_single_mode(self, diamond_file, capsys):
        assert main(["network", diamond_file, "--mode", "single"]) == 0
        out = capsys.readouterr().out
        assert "capacity: 1.000000000 bits/use" in out
        assert "route: a -> p1 -> b" in out
        assert "bottleneck_edge: e1" in out
        assert "dual_cut_side_a: a" in out
        assert "dual_cut_edges: e1,e2" in out

    def test_multi_mode(self, diamond_file, capsys):
        assert main(["network", diamond_file, "--mode", "multi"]) == 0
        out = capsys.readouterr().out
        assert "capacity: 2.000000000 bits/use" in out
        assert "rate e3 p1->p2: 0.000000000" in out
        assert "orientation e1: a->p1" in out
        assert "orientation e3" not in out
        assert "min_cut_side_a: a" in out
        assert "min_cut_edges: e1,e2" in out

    # ties36.json, drawn once from a seeded generator, is a 6x6 grid of 36
    # points with diagonals and 12 parallel duplicates, in all five kinds;
    # 68 of its 80 edges, of four kinds, hold exactly 1 or 2 bits, so most
    # points have several equally wide routes.  ends_reversed.json declares
    # alice as the second end (v) of each of her edges and bob as the first
    # (u) of each of his, with a direct bob-alice edge.
    @pytest.mark.parametrize("mode", ["single", "multi"])
    @pytest.mark.parametrize("name", ["diamond", "ties36", "ends_reversed"])
    def test_golden_text(self, capsys, name, mode):
        assert main(["network", str(DATA / f"{name}.json"), "--mode", mode]) == 0
        golden = (DATA / f"{name}.{mode}.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden

    def test_no_route_exits_3(self, no_route_file, capsys):
        assert main(["network", no_route_file, "--mode", "single"]) == 3
        assert "no route" in capsys.readouterr().err

    def test_multi_mode_tolerates_disconnection(self, no_route_file, capsys):
        assert main(["network", no_route_file, "--mode", "multi"]) == 0
        assert "capacity: 0.000000000 bits/use" in capsys.readouterr().out

    def test_invalid_network_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"points": ["a"], "alice": "a", "bob": "a", "edges": []}')
        assert main(["network", str(path), "--mode", "single"]) == 2

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["network", str(path)]) == 2

    @pytest.mark.parametrize("document", DUPLICATE_KEY_DOCS.values(), ids=DUPLICATE_KEY_DOCS)
    def test_duplicate_key_exits_2(self, tmp_path, capsys, document):
        path = tmp_path / "dup.json"
        path.write_text(document, encoding="utf-8")
        assert main(["network", str(path)]) == 2
        assert "duplicate key" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["single", "multi"])
    @pytest.mark.parametrize("bands", [10**308, 10**309], ids=["1e308", "1e309"])
    def test_capacity_beyond_float_range_exits_2(self, tmp_path, capsys, mode, bands):
        channel = {"kind": "multiband_lossy", "eta": 0.9, "bands": bands}
        doc = {
            "points": ["a", "b"],
            "alice": "a",
            "bob": "b",
            "edges": [{"id": "e0", "u": "a", "v": "b", "channel": channel}],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["network", str(path), "--mode", mode]) == 2
        assert capsys.readouterr().err.startswith("error: edge 'e0': bands=")

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_cuts_summing_past_float_range_exit_2_in_multi_mode(self, tmp_path, capsys, mode):
        # a-x and x-b each twice in parallel at 1e308 bits: every cut sums to 2e308.
        channel = {"kind": "multiband_lossy", "eta": 0.5, "bands": 10**308}
        doc = {
            "points": ["a", "x", "b"],
            "alice": "a",
            "bob": "b",
            "edges": [
                {"id": f"e{i}", "u": u, "v": v, "channel": channel}
                for i, (u, v) in enumerate([("a", "x"), ("a", "x"), ("x", "b"), ("x", "b")])
            ],
        }
        path = tmp_path / "huge_cuts.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["network", str(path), "--mode", mode])
        out, err = capsys.readouterr()
        if mode == "single":  # a maximum, not a sum
            assert (code, err) == (0, "")
            assert out.startswith(f"capacity: {format_bits(1e308)} bits/use\n")
        else:
            assert (code, out) == (2, "")
            assert err == (
                "error: multi-path capacity is beyond float range: every alice/bob cut sums past it\n"
            )

    def test_multi_mode_text_is_the_line_by_line_text(self, tmp_path, capsys):
        # 480 random edges among 100 points, each declared in a random
        # direction, plus 20 leaves on one edge each, which carry no flow.
        rng = random.Random(20261018)
        names = [f"p{i}" for i in range(120)]
        pairs = [rng.sample(names[:100], 2) for _ in range(480)]
        pairs += [[leaf, rng.choice(names[:100])][:: rng.choice((1, -1))] for leaf in names[100:]]
        doc = {
            "points": names,
            "alice": "p0",
            "bob": "p1",
            "edges": [
                {"id": f"e{i}", "u": u, "v": v,
                 "channel": {"kind": "lossy", "eta": rng.uniform(0.05, 0.95)}}
                for i, (u, v) in enumerate(pairs)
            ],
        }
        path = tmp_path / "net500.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        net = parse_network(path.read_bytes())
        report = max_flow(net)
        expected = io.StringIO()
        print(f"capacity: {format_bits(report.value)} bits/use", file=expected)
        for edge in net.edges:
            rate = report.effective_rates[edge.edge_id]
            print(f"rate {edge.edge_id} {edge.u}->{edge.v}: {format_bits(rate)}", file=expected)
        for edge in net.edges:
            oriented = report.orientation.get(edge.edge_id)
            if oriented is not None:
                print(f"orientation {edge.edge_id}: {oriented[0]}->{oriented[1]}", file=expected)
        print(f"min_cut_side_a: {','.join(report.min_cut.side_a)}", file=expected)
        print(f"min_cut_edges: {','.join(report.min_cut.cut_set)}", file=expected)

        assert main(["network", str(path), "--mode", "multi"]) == 0
        assert capsys.readouterr().out == expected.getvalue()
        oriented = report.orientation
        assert len(net.edges) == 500
        assert any(oriented[e.edge_id] == (e.u, e.v) for e in net.edges if e.edge_id in oriented)
        assert any(oriented[e.edge_id] == (e.v, e.u) for e in net.edges if e.edge_id in oriented)
        assert sum(rate == 0.0 for rate in report.effective_rates.values()) >= 20

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_5000_hop_chain(self, tmp_path, capsys, mode):
        hops = 5000
        names = ["a"] + [f"r{i}" for i in range(1, hops)] + ["b"]
        edges = [
            {
                "id": f"e{i}",
                "u": names[i],
                "v": names[i + 1],
                "channel": {"kind": "lossy", "eta": 0.5 + 0.4 * (i % 7) / 7},
            }
            for i in range(hops)
        ]
        doc = {"points": names, "alice": "a", "bob": "b", "edges": edges}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["network", str(path), "--mode", mode]) == 0
        assert "capacity: 1.000000000 bits/use" in capsys.readouterr().out


def _perfbench_workloads():
    """``perfbench/workloads.py``, loaded read-only under a private name."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_pinned_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: A network whose flow runs against the declared direction of most edges
#: (negative rates) and leaves a dangling edge idle (a zero rate).
AGAINST_THE_GRAIN = {
    "points": ["a", "b", "x", "y", "z"],
    "alice": "a",
    "bob": "b",
    "edges": [
        {"id": f"e{i}", "u": u, "v": v, "channel": {"kind": "lossy", "eta": eta}}
        for i, (u, v, eta) in enumerate([
            ("x", "a", 0.5), ("b", "x", 0.75), ("y", "a", 0.875), ("y", "x", 0.5),
            ("b", "y", 0.5), ("z", "y", 0.5), ("a", "b", 0.5),
        ])
    ],
}

#: SHA-256 of ``network --mode MODE`` stdout: the benchmark's three seed-1
#: fiber-mesh networks (input set 0) and AGAINST_THE_GRAIN.
PINNED_NETWORK_TEXT = {
    ("grid", "single"): "dda5a5f1f055c7c530218c609a027ad9b30de08087940053e48cecae3d59bf1c",
    ("grid", "multi"): "3b626b757e002b773ba28853480ecd5ddcf6fc73a695d5ccacb1cedcb2e2c427",
    ("fiber", "single"): "e10a75dd5b0740667911f7768049fc46d8a34d9dcfdf39761322755b86b739ac",
    ("fiber", "multi"): "6a624ad8cece7d28ae62889a9466cefe1b3ba93f127bfed6b3afea1b81056512",
    ("chain", "single"): "59559161bd43d39f88018fd56946aa0923633c08ad057fcbbeea2c40e653275e",
    ("chain", "multi"): "632a49b920020ba9cd632df129025033314c2ba475318988334e75e2fadbc5e0",
    ("against_the_grain", "single"): "7aee63f1be09d851fafdb742b7e66a0975a8bbd4aac7e8c175e74a111ab5ea3b",
    ("against_the_grain", "multi"): "8f95bd10096dd5535f6df85568b29997bc2a1b78cd8d103a3b6ca8d3857206f6",
}


@pytest.fixture(scope="module")
def pinned_network_files(tmp_path_factory):
    docs = dict(_perfbench_workloads().mesh_networks(1))
    docs["against_the_grain"] = AGAINST_THE_GRAIN
    folder = tmp_path_factory.mktemp("pinned")
    for name, doc in docs.items():
        (folder / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    return folder


class TestPinnedNetworkText:
    @pytest.mark.parametrize("name, mode", PINNED_NETWORK_TEXT, ids=[f"{n}-{m}" for n, m in PINNED_NETWORK_TEXT])
    def test_stdout_bytes_unchanged(self, pinned_network_files, capsys, name, mode):
        assert main(["network", str(pinned_network_files / f"{name}.json"), "--mode", mode]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_NETWORK_TEXT[name, mode]

    def test_against_the_grain_has_negative_and_zero_rates(self, pinned_network_files, capsys):
        main(["network", str(pinned_network_files / "against_the_grain.json"), "--mode", "multi"])
        rates = [line.rsplit(" ", 1)[1] for line in capsys.readouterr().out.splitlines()
                 if line.startswith("rate ")]
        assert "0.000000000" in rates and any(rate.startswith("-") for rate in rates)

    def test_a_negative_zero_rate_prints_as_zero(self, monkeypatch, capsys):
        report = cli.max_flow(diamond())
        zeroed = dict.fromkeys(report.effective_rates, -0.0)
        monkeypatch.setattr(cli, "max_flow", lambda net: dataclasses.replace(report, effective_rates=zeroed))
        monkeypatch.setattr(cli, "parse_network", lambda document: diamond())
        assert main(["network", str(DATA / "diamond.json"), "--mode", "multi"]) == 0
        rates = [line for line in capsys.readouterr().out.splitlines() if line.startswith("rate ")]
        assert len(rates) == len(zeroed)
        assert all(line.endswith(": 0.000000000") for line in rates)


def grid_rows(start, stop, step, bands, counts, rate_db_per_km):
    """Header and rows, as lists, of the loss grid the CSV commands print."""
    header, losses, rows = cli._grid(start, stop, step, bands, counts, rate_db_per_km)
    return header, list(map(list, rows(losses)))


class TestSweep:
    def test_grid(self):
        assert db_grid(0.0, 50.0, 1.0) == pytest.approx(list(range(51)))
        assert db_grid(3.0, 3.0, 1.0) == [3.0]

    def test_rows_shape_and_plob_column(self):
        header, rows = grid_rows(0.0, 50.0, 1.0, [], [0, 1, 2, 10, 100], None)
        assert header == ["loss_db", "N0", "N1", "N2", "N10", "N100"]
        assert len(rows) == 51
        assert rows[0][1:] == [math.inf] * 5  # zero loss: diverges
        row30 = rows[30]
        assert row30[0] == 30.0
        assert row30[3] == pytest.approx(0.152003093, abs=1e-9)

    def test_degenerate_range_single_row(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        assert main(
            [
                "sweep", "--start", "3.0103", "--stop", "3.0103", "--step", "1",
                "--repeaters", "0", "--out", str(out),
            ]
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        value = float(lines[1].split(",")[1])
        assert value == pytest.approx(1.0, abs=1e-4)

    def test_csv_cells_rederivable_bit_for_bit(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(
            [
                "sweep", "--start", "0", "--stop", "50", "--step", "1",
                "--repeaters", "0,1,2,10,100", "--out", str(out),
            ]
        ) == 0
        text = out.read_text()
        assert "\r" not in text
        header, rows = grid_rows(0.0, 50.0, 1.0, [], [0, 1, 2, 10, 100], None)
        lines = text.splitlines()
        assert lines[0] == ",".join(header)
        for line, row in zip(lines[1:], rows):
            cells = line.split(",")
            assert cells[1:] == [format_bits(x) for x in row[1:]]

    def test_out_dash_writes_the_file_text_to_stdout(self, tmp_path, capsys):
        argv = ["sweep", "--start", "0", "--stop", "3", "--step", "1", "--repeaters", "0,1"]
        out = tmp_path / "sweep.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert main([*argv, "--out", "-"]) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    def test_bad_range_exits_2(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(
            ["sweep", "--start", "5", "--stop", "1", "--step", "1",
             "--repeaters", "0", "--out", str(out)]
        ) == 2

    @pytest.mark.parametrize(
        "argv, noun",
        [
            (["chain", "--lossy", "0.5,x"], "numbers"),
            (["sweep", "--start", "0", "--stop", "1", "--step", "1",
              "--repeaters", "0,1.5", "--out", "-"], "integers"),
        ],
    )
    def test_bad_list_exits_2(self, capsys, argv, noun):
        assert main(argv) == 2
        assert f"must be a comma-separated list of {noun}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "compare-multiband"])
    def test_negative_start_exits_2(self, capsys, command):
        bands = ["--bands", "1"] if command == "compare-multiband" else []
        assert main(
            [command, "--start", "-1", "--stop", "1", "--step", "1", *bands,
             "--repeaters", "0", "--out", "-"]
        ) == 2
        assert capsys.readouterr().err == "error: start=-1.0: must be non-negative\n"

    def test_grid_row_limit_is_checked_before_any_row_is_built(self, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_GRID_ROWS", 5)
        assert db_grid(0.0, 4.0, 1.0) == [0.0, 1.0, 2.0, 3.0, 4.0]
        with pytest.raises(InvalidParameter) as err:
            db_grid(0.0, 5.0, 1.0)
        assert err.value.field == "step"
        assert str(err.value) == "step=1.0: leaves more than 5 grid rows"

    def test_grid_row_beyond_float_range_is_checked_before_any_row_is_built(self):
        top = sys.float_info.max
        assert db_grid(0.0, top, top / 2) == [0.0, top / 2, top]
        with pytest.raises(InvalidParameter) as err:
            db_grid(0.0, top, top / 3)  # 3 * (top / 3) rounds to inf
        assert err.value.field == "step"
        assert str(err.value) == f"step={top / 3!r}: puts a grid row beyond float range"

    def test_grid_repeating_a_row_is_rejected(self):
        # Float spacing at 1e16 is 2: a step of 1 or 0.5 rounds rows together.
        for step in (0.5, 1.0):
            with pytest.raises(InvalidParameter) as err:
                db_grid(1e16, 1e16 + 2, step)
            assert err.value.field == "step"
            assert str(err.value) == f"step={step!r}: puts two grid rows at one float value"
        # A step of one spacing is checked and kept: its rows are distinct.
        assert db_grid(1e16, 1e16 + 8, 2.0) == [1e16 + 2 * i for i in range(5)]

    @pytest.mark.parametrize(
        "command, cells",
        [("sweep", ["--repeaters="]), ("compare-multiband", ["--bands", "1", "--repeaters", "0"])],
        ids=["sweep", "compare-multiband"],
    )
    def test_grid_repeating_a_row_exits_2(self, capsys, command, cells):
        argv = [command, "--start", "1e16", "--stop", "10000000000000002", "--step", "0.5",
                *cells, "--out", "-"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: step=0.5: puts two grid rows at one float value\n")

    def test_grid_of_2e14_rows_exits_2(self, capsys):
        # 200 dB at 1e-12 dB would build ~2e14 rows before the first write.
        assert main(
            ["sweep", "--start", "0", "--stop", "200", "--step", "1e-12",
             "--repeaters", "0", "--out", "-"]
        ) == 2
        assert capsys.readouterr() == (
            "", "error: step=1e-12: leaves more than 10000000 grid rows\n"
        )

    def test_uncountable_grid_exits_2(self, capsys):
        assert main(
            ["sweep", "--start", "0", "--stop", "1e300", "--step", "1e-300",
             "--repeaters", "0", "--out", "-"]
        ) == 2
        assert "step" in capsys.readouterr().err


class TestCompareMultiband:
    def test_m1_and_n0_columns_identical(self):
        header, rows = grid_rows(1.0, 30.0, 1.0, [1], [0], FIBER_DB_PER_KM)
        i_m, i_n = header.index("M1"), header.index("N0")
        for row in rows:
            assert row[i_m] == pytest.approx(row[i_n], abs=1e-12)

    def test_multiband_additive_at_fixed_loss(self):
        header, rows = grid_rows(3.0, 3.0, 1.0, [1, 10], [], FIBER_DB_PER_KM)
        row = rows[0]
        assert row[header.index("M10")] == pytest.approx(
            10 * row[header.index("M1")], abs=1e-9
        )

    def test_crossover_exists_for_repeaters_vs_bands(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(
            [
                "compare-multiband", "--start", "0", "--stop", "200", "--step", "1",
                "--bands", "100", "--repeaters", "2", "--out", str(out),
            ]
        ) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        i_m, i_n = header.index("M100"), header.index("N2")
        saw_band_ahead = saw_repeater_ahead = False
        for line in lines[1:]:
            cells = line.split(",")
            m_val, n_val = float(cells[i_m]), float(cells[i_n])
            if math.isinf(m_val):
                continue
            if m_val > n_val:
                saw_band_ahead = True
            if n_val > m_val and saw_band_ahead:
                saw_repeater_ahead = True
        assert saw_band_ahead and saw_repeater_ahead

    def test_infinite_fiber_rate_exits_2(self, capsys):
        assert main(
            ["compare-multiband", "--start", "0", "--stop", "3", "--step", "1",
             "--bands", "1", "--repeaters", "0", "--rate-db-per-km", "inf", "--out", "-"]
        ) == 2
        assert "rate_db_per_km" in capsys.readouterr().err

    def test_distance_column_uses_fiber_rate(self):
        header, rows = grid_rows(3.0, 3.0, 1.0, [1], [], FIBER_DB_PER_KM)
        assert rows[0][header.index("distance_km")] == pytest.approx(15.0, abs=1e-12)


#: Grid rows whose transmissivity underflows to 0.0 (beyond ~3,237 dB).
UNDERFLOW_GRID = ["--start", "3000", "--stop", "4000", "--step", "100"]


class TestCsvErrorPaths:
    """Exact stderr and exit code of the CSV commands' per-row failures."""

    def test_underflow_names_eta_total_with_only_repeaters(self, capsys):
        argv = ["sweep", *UNDERFLOW_GRID, "--repeaters", "0,1", "--out", "-"]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: eta_total=0.0: must lie strictly inside (0, 1)\n"
        )

    def test_underflow_names_eta_with_bands(self, capsys):
        argv = ["compare-multiband", *UNDERFLOW_GRID, "--bands", "1", "--repeaters", "1",
                "--out", "-"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: eta=0.0: must lie strictly inside (0, 1)\n")

    def test_underflow_without_capacity_columns_exits_0(self, capsys):
        argv = ["compare-multiband", *UNDERFLOW_GRID, "--bands=", "--repeaters=", "--out", "-"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "loss_db,distance_km"
        assert len(lines[1:]) == 11

    @pytest.mark.parametrize("zeros", [308, 309])
    def test_band_count_beyond_float_range_exits_2(self, capsys, zeros):
        bands = "1" + "0" * zeros
        argv = ["compare-multiband", "--start", "0", "--stop", "1", "--step", "0.5",
                "--bands", bands, "--repeaters=", "--out", "-"]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: bands={bands}: too many bands for a float capacity\n"
        )

    def test_band_count_beyond_float_range_at_zero_loss_reads_inf(self, capsys):
        argv = ["compare-multiband", "--start", "0", "--stop", "0", "--step", "1",
                "--bands", "1" + "0" * 309, "--repeaters=", "--out", "-"]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1] == "0,0,inf"

    @pytest.mark.parametrize("rate", ["1e-320", "1e-308"])
    def test_distance_beyond_float_range_exits_2(self, capsys, rate):
        argv = ["compare-multiband", "--start", "0", "--stop", "2", "--step", "1",
                "--bands", "1", "--repeaters", "1", "--rate-db-per-km", rate, "--out", "-"]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: rate_db_per_km={float(rate)!r}: puts a distance beyond float range\n"
        )

    def test_first_failing_row_fails_first(self, capsys):
        # Every row from 1e-5 dB fails the band check (10**307 bands of
        # more than 1.8 bits each pass float range); the rows past ~3,237 dB
        # would fail the eta check too.
        bands = "1" + "0" * 307
        argv = ["compare-multiband", "--start", "1e-5", "--stop", "4000", "--step", "1",
                "--bands", bands, "--repeaters", "1", "--out", "-"]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: bands={bands}: too many bands for a float capacity\n"
        )

    def test_underflow_fails_after_rows_that_pass_the_band_check(self, capsys):
        # From 10 dB one band carries < 0.16 bits, so 10**307 bands fit.
        argv = ["compare-multiband", "--start", "10", "--stop", "4000", "--step", "1",
                "--bands", "1" + "0" * 307, "--repeaters", "1", "--out", "-"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: eta=0.0: must lie strictly inside (0, 1)\n")

    @pytest.mark.parametrize(
        "argv, checked, err",
        [
            # 3,000-3,200 dB pass, 3,300 dB underflows: the fourth row fails.
            (["sweep", *UNDERFLOW_GRID, "--repeaters", "0,1"], 4,
             "error: eta_total=0.0: must lie strictly inside (0, 1)\n"),
            # 10**307 bands fit from 10 dB: all 11 rows pass.
            (["compare-multiband", "--start", "10", "--stop", "20", "--step", "1",
              "--bands", "1" + "0" * 307, "--repeaters", "1"], 11, ""),
            # ... but not at 1e-5 dB, the first row.
            (["compare-multiband", "--start", "1e-5", "--stop", "4000", "--step", "1",
              "--bands", "1" + "0" * 307, "--repeaters", "1"], 1,
             f"error: bands={10**307}: too many bands for a float capacity\n"),
        ],
        ids=["underflow", "huge-bands-pass", "huge-bands-fail"],
    )
    def test_rows_are_checked_one_by_one_where_one_may_fail(self, capsys, monkeypatch, argv, checked, err):
        # A chunk holding an eta of 0.0, or a band count above _SAFE_BANDS,
        # is checked row by row, so its first failing row raises its error.
        open_unit, calls = channels._open_unit, []

        def counted(*args):
            calls.append(args)
            return open_unit(*args)

        monkeypatch.setattr(channels, "_open_unit", counted)
        force_cpus(monkeypatch, 1)
        assert main([*argv, "--out", "-"]) == (2 if err else 0)
        assert (len(calls), capsys.readouterr().err) == (checked, err)

    @pytest.mark.parametrize(
        "command, cells",
        [("sweep", ["--repeaters", "0"]), ("compare-multiband", ["--bands", "1", "--repeaters="])],
        ids=["sweep", "compare-multiband"],
    )
    def test_grid_row_beyond_float_range_exits_2(self, capsys, command, cells):
        # Rows 0, 5.99e307 (eta underflows to 0.0) and 1.2e308 are finite,
        # but 3 * step rounds to inf: the grid is rejected, naming step,
        # before any row is converted.
        argv = [command, "--start", "0", "--stop", "1.7976931348623157e308",
                "--step", "5.992310449541053e+307", *cells, "--out", "-"]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: step=5.992310449541053e+307: puts a grid row beyond float range\n"
        )

    @pytest.mark.parametrize("zeros", [300, 308, 309, 400])
    def test_repeater_count_beyond_float_range_exits_0(self, capsys, zeros):
        n = 10**zeros
        argv = ["sweep", "--start", "1", "--stop", "1", "--step", "1",
                "--repeaters", f"1,{n}", "--out", "-"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        eta = db_to_transmissivity(1.0)
        cells = [equidistant_lossy_capacity(eta, 1), equidistant_lossy_capacity(eta, n)]
        assert out == f"loss_db,N1,N{n}\n1,{','.join(map(format_bits, cells))}\n"


#: The benchmark's two 0-200 dB @0.01 CSVs: argv without --out, and the
#: SHA-256 of the file each command must write.
BENCHMARK_GRID = ["--start", "0", "--stop", "200", "--step", "0.01"]
BENCHMARK_CSVS = {
    "sweep": (
        ["sweep", *BENCHMARK_GRID, "--repeaters", "0,1,2,5,10,20,50,100,1000"],
        "dd1439eb7f35ed45a6c9a4159b6ae4fb92049ba72d882c31f132cf480859bcc7",
    ),
    "compare": (
        ["compare-multiband", *BENCHMARK_GRID, "--bands", "1,10,100", "--repeaters", "1,2,10"],
        "153479ce4652edd18ddde2455886df82186fe6e656f67fbc2e29005f72f52033",
    ),
}


class TestBenchmarkGrid:
    @pytest.mark.parametrize("name", BENCHMARK_CSVS)
    def test_csv_bytes_unchanged(self, tmp_path, name):
        argv, digest = BENCHMARK_CSVS[name]
        out = tmp_path / f"{name}.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("name", BENCHMARK_CSVS)
    def test_rows_are_checked_at_once(self, tmp_path, monkeypatch, name):
        # db_grid has checked every loss, and each eta < 1 is a float: every
        # row passes the eta check unless its eta is 0.0, so none is checked alone.
        calls = []
        monkeypatch.setattr(channels, "_open_unit", lambda *args: calls.append(args))
        force_cpus(monkeypatch, 1)
        argv, digest = BENCHMARK_CSVS[name]
        out = tmp_path / f"{name}.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert calls == []
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_every_cell_is_the_library_value(self):
        bands, counts = [1, 10, 100], [0, 1, 2, 5, 10, 20, 50, 100, 1000]
        _, sweep = grid_rows(0.0, 200.0, 0.01, [], counts, None)
        _, compare = grid_rows(0.0, 200.0, 0.01, bands, counts, FIBER_DB_PER_KM)
        assert len(sweep) == len(compare) == 20_001
        for sweep_row, compare_row in zip(sweep, compare):
            loss_db = sweep_row[0]
            eta = db_to_transmissivity(loss_db)
            if eta >= 1.0:
                expected = [math.inf] * (len(bands) + len(counts))
            else:
                expected = [capacity(multiband_lossy(eta, m)) for m in bands]
                expected += [equidistant_lossy_capacity(eta, n) for n in counts]
            assert sweep_row == [loss_db, *expected[len(bands):]]
            assert compare_row == [loss_db, loss_db / FIBER_DB_PER_KM, *expected]



def library_rows(losses, bands, counts):
    """The cells of each grid row by the scalar library calls, inf where
    eta >= 1, or the message of the first error they raise, row by row."""
    rows = []
    for loss_db in losses:
        eta = db_to_transmissivity(loss_db)
        if eta >= 1.0:
            rows.append([math.inf] * (len(bands) + len(counts)))
            continue
        try:
            rows.append([capacity(multiband_lossy(eta, m)) for m in bands]
                        + [equidistant_lossy_capacity(eta, n) for n in counts])
        except InvalidParameter as exc:
            return str(exc)
    return rows


def rows_or_error(*args):
    try:
        return grid_rows(*args)[1]
    except InvalidParameter as exc:
        return str(exc)


#: Band and repeater counts: mostly small, with some past _SAFE_BANDS
#: (10**306) and past float range.
GRID_BANDS = st.lists(
    st.one_of(st.integers(1, 1000), st.sampled_from([10**306 + 1, 10**307, 10**308, 10**309])),
    max_size=3,
)
GRID_COUNTS = st.lists(
    st.one_of(st.integers(0, 1000), st.sampled_from([0, 10**300, 10**308, 10**309, 10**400])),
    max_size=4,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    start=st.one_of(st.just(0.0), st.floats(0.0, 3300.0)),
    # 1e-17 to 1e3 dB: from 0 dB the smallest steps give many rows at eta = 1.0
    step=st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-17, 2)),
    n_steps=st.integers(0, 150),
    bands=GRID_BANDS,
    counts=GRID_COUNTS,
)
@example(start=0.0, step=1e-17, n_steps=100, bands=[1, 10**307], counts=[0, 1, 0, 10**400])
def test_every_grid_cell_is_the_library_call(start, step, n_steps, bands, counts):
    stop = start + n_steps * step
    try:
        losses = db_grid(start, stop, step)
    except InvalidParameter as exc:  # only a grid that repeats a row
        assert str(exc) == f"step={step!r}: puts two grid rows at one float value"
        n = int((stop - start) / step + 1e-9)
        assert len({start + i * step for i in range(n + 1)}) <= n
        assert rows_or_error(start, stop, step, [], counts, None) == str(exc)
        assert rows_or_error(start, stop, step, bands, counts, FIBER_DB_PER_KM) == str(exc)
        return
    assert len(set(losses)) == len(losses)
    expected = library_rows(losses, [], counts)
    if not isinstance(expected, str):
        expected = [[loss_db, *cells] for loss_db, cells in zip(losses, expected)]
    assert rows_or_error(start, stop, step, [], counts, None) == expected
    expected = library_rows(losses, bands, counts)
    if not isinstance(expected, str):
        expected = [[loss_db, loss_db / FIBER_DB_PER_KM, *cells] for loss_db, cells in zip(losses, expected)]
    assert rows_or_error(start, stop, step, bands, counts, FIBER_DB_PER_KM) == expected


def test_rows_at_eta_1_read_inf_wherever_they_are():
    losses = [5.0, 0.0, 30.0, 1e-18, 0.0, 3e-16]
    assert db_to_transmissivity(1e-18) == 1.0 > db_to_transmissivity(3e-16)
    counts = [0, 2, 0, 10**400]  # each N = 0 column gets its own inf cells
    columns = cli._capacities(losses, [1, 10], counts)
    assert all(len(column) == len(losses) for column in columns)
    assert [list(row) for row in zip(*columns)] == library_rows(losses, [1, 10], counts)


def force_cpus(monkeypatch, n):
    """Make the CSV commands see ``n`` CPUs; returns the pids of the children they fork."""
    real_fork, pids = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


#: 0-130 dB at 0.01 dB: 13,001 rows, three full chunks and an uneven fourth.
FORK_GRID = ["--start", "0", "--stop", "130", "--step", "0.01"]
FORK_COMMANDS = {
    "sweep": ["sweep", *FORK_GRID, "--repeaters", "0,1,2,1000"],
    "compare": ["compare-multiband", *FORK_GRID, "--bands", "1,100", "--repeaters", "1,10"],
}


class TestForkedGrid:
    """Grids of two chunks or more are made in forked children: same bytes,
    same errors, no file on failure and no child left behind."""

    def test_grid_fills_three_chunks_and_part_of_a_fourth(self):
        assert 3 * cli._CHUNK_ROWS < 13_001 < 4 * cli._CHUNK_ROWS

    @pytest.mark.parametrize("name", FORK_COMMANDS)
    def test_same_bytes_in_one_process_and_in_three(self, tmp_path, capsys, monkeypatch, name):
        texts = {}
        for n_cpus in (1, 3):
            pids = force_cpus(monkeypatch, n_cpus)
            out = tmp_path / f"{n_cpus}.csv"
            assert main([*FORK_COMMANDS[name], "--out", str(out)]) == 0
            assert main([*FORK_COMMANDS[name], "--out", "-"]) == 0
            assert len(pids) == 2 * (n_cpus - 1)
            texts[n_cpus] = out.read_bytes(), capsys.readouterr().out.encode()
            assert_no_child_left()
        file_bytes = texts[1][0]
        assert file_bytes.count(b"\n") == 1 + 13_001
        assert texts[1] == texts[3] == (file_bytes, file_bytes)

    def test_one_process_while_sigchld_is_ignored_or_another_thread_runs(self, capsys, monkeypatch):
        # An ignored SIGCHLD reaps a child before its exit status is read; a
        # fork copies only the calling thread.
        argv = [*FORK_COMMANDS["sweep"], "--out", "-"]
        pids = force_cpus(monkeypatch, 3)
        assert main(argv) == 0
        expected = capsys.readouterr().out
        assert len(pids) == 2
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert main(argv) == 0
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert capsys.readouterr().out == expected
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert main(argv) == 0
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert capsys.readouterr().out == expected
        assert len(pids) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize(
        "argv, err",
        [
            # eta underflows past ~3,237 dB: a row of the child's half fails.
            (["sweep", "--start", "0", "--stop", "4000", "--step", "0.1", "--repeaters", "0,1"],
             "error: eta_total=0.0: must lie strictly inside (0, 1)\n"),
            # The first row, the parent's, fails while the child still runs.
            (["compare-multiband", "--start", "0.01", "--stop", "400", "--step", "0.01",
              "--repeaters=", "--bands", "1" + "0" * 308],
             f"error: bands={10**308}: too many bands for a float capacity\n"),
        ],
        ids=["underflow-in-child", "bands-in-parent"],
    )
    def test_failing_row_gives_the_in_process_error(self, tmp_path, capsys, monkeypatch, n_cpus, argv, err):
        pids = force_cpus(monkeypatch, n_cpus)
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", err)
        assert not out.exists()
        assert len(pids) == n_cpus - 1
        assert_no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to list open descriptors")
    @pytest.mark.parametrize(
        "argv, code, sigchld, forks",
        [
            ([*FORK_COMMANDS["sweep"], "--out", "-"], 0, None, 2),
            (["sweep", "--start", "0", "--stop", "4000", "--step", "0.1", "--repeaters", "0,1", "--out", "-"],
             2, None, 2),
            ([*FORK_COMMANDS["sweep"], "--out", "-"], 0, signal.SIG_IGN, 0),
        ],
        ids=["forked", "underflow-in-child", "sigchld-ignored"],
    )
    def test_no_descriptor_left_open(self, capsys, monkeypatch, argv, code, sigchld, forks):
        pids = force_cpus(monkeypatch, 3)
        before = sorted(os.listdir("/proc/self/fd"))
        previous = signal.getsignal(signal.SIGCHLD)
        signal.signal(signal.SIGCHLD, previous if sigchld is None else sigchld)
        try:
            assert main(argv) == code
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert len(pids) == forks
        assert_no_child_left()


def _unexpected(*args, **kwargs):
    raise RuntimeError("unexpected")


class TestGcPause:
    """``main`` pauses the cyclic collector for the whole command and hands
    the caller's setting back, however the command ends."""

    @pytest.mark.parametrize(
        "argv, outcome",
        [
            (["channel", "--kind", "lossy", "--eta", "0.5"], 0),
            (["channel", "--kind", "lossy", "--eta", "1.5"], 2),
            (["network", str(DATA / "diamond.json"), "--mode", "multi"], 0),
            (["chain"], SystemExit),  # argparse: exactly one of FILE or --lossy
            (["channel", "--kind", "warp"], SystemExit),
            (["channel", "--kind", "lossy", "--eta", "0.5"], RuntimeError),
        ],
        ids=["exit-0", "exit-2", "network", "parser-error", "bad-choice", "unexpected"],
    )
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_caller_state_restored(self, monkeypatch, capsys, argv, outcome, enabled):
        if outcome is RuntimeError:
            monkeypatch.setattr(cli, "channel_from_json", _unexpected)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if isinstance(outcome, int):
                assert main(argv) == outcome
            else:
                with pytest.raises(outcome):
                    main(argv)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_caller_state_restored_on_exit_3(self, no_route_file, capsys, enabled):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["network", no_route_file, "--mode", "single"]) == 3
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_no_collection_during_a_command(self, capsys):
        # With a threshold of one allocation, any running collector would
        # start many collections over a multi-mode run on 80 edges.  A
        # collection counts from the pausing wrapper's first line, so one
        # started by what the wrapper does before it switches the collector
        # off fails the test; one started by the caller's argument packing,
        # before the wrapper's frame runs, is not the command's.
        wrapper, starts = main.__code__, []

        def count(phase, info):
            if phase == "start":
                frame = sys._getframe()
                while frame is not None and frame.f_code is not wrapper:
                    frame = frame.f_back
                starts.append(frame is not None)

        argv = ["network", str(DATA / "ties36.json"), "--mode", "multi"]
        threshold, was_enabled = gc.get_threshold(), gc.isenabled()
        gc.enable()
        gc.set_threshold(1)
        gc.callbacks.append(count)
        try:
            code = main(argv)
            during = sum(starts)
            [[] for _ in range(100)]  # the collector runs again afterwards
        finally:
            gc.callbacks.remove(count)
            gc.set_threshold(*threshold)
            (gc.enable if was_enabled else gc.disable)()
        assert code == 0
        assert capsys.readouterr().out == (DATA / "ties36.multi.txt").read_text(encoding="utf-8")
        assert during == 0
        assert len(starts) > 0


class TestGridColumns:
    def test_loss_keeps_twelve_significant_digits(self, capsys):
        argv = ["sweep", "--start", "100", "--stop", "100.0004", "--step", "0.0001",
                "--repeaters", "0", "--out", "-"]
        assert main(argv) == 0
        losses = [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert losses == ["100", "100.0001", "100.0002", "100.0003", "100.0004"]

    def test_distance_is_not_printed_in_exponent_form(self, capsys):
        argv = ["compare-multiband", "--start", "199", "--stop", "200", "--step", "1",
                "--bands", "1", "--repeaters=", "--rate-db-per-km", "0.00017", "--out", "-"]
        assert main(argv) == 0
        distances = [line.split(",")[1] for line in capsys.readouterr().out.splitlines()[1:]]
        assert distances == ["1170588.23529", "1176470.58824"]


class TestFormatting:
    def test_fixed_nine_decimals(self):
        assert format_bits(1.0) == "1.000000000"
        assert format_bits(0.15200309344504995) == "0.152003093"
        assert format_bits(math.inf) == "inf"
        assert format_bits(-0.0) == "0.000000000"


class TestWarnings:
    """A command leaves the caller's warning filters and display as they
    were, and shows nothing through them."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["channel", "--kind", "dephasing", "--probs", "0.2,0.8"],
            ["channel", "--kind", "lossy", "--eta", "2"],
            ["channel", "--kind", "nope"],
        ],
        ids=["warning", "invalid", "argparse-error"],
    )
    def test_the_callers_machinery_comes_back(self, argv, capsys):
        def show(*args, **kwargs):
            raise AssertionError("the caller's display ran during the command")

        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = show
            filters = list(warnings.filters)
            try:
                main(argv)
            except SystemExit:
                pass
            assert warnings.showwarning is show
            assert warnings.filters == filters
