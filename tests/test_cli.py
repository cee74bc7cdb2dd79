import json
import math

import pytest

from conftest import DUPLICATE_KEY_DOCS, diamond
from qnetcap import (
    CHANNEL_KINDS,
    amplifier,
    capacity,
    dephasing,
    erasure,
    lossy,
    multiband_lossy,
    serialize_network,
)
from qnetcap.cli import (
    compare_rows,
    db_grid,
    format_bits,
    main,
    sweep_rows,
)
from qnetcap.network import channel_from_json, channel_to_json

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


class TestSweep:
    def test_grid(self):
        assert db_grid(0.0, 50.0, 1.0) == pytest.approx(list(range(51)))
        assert db_grid(3.0, 3.0, 1.0) == [3.0]

    def test_rows_shape_and_plob_column(self):
        header, rows = sweep_rows(0.0, 50.0, 1.0, [0, 1, 2, 10, 100])
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
        header, rows = sweep_rows(0.0, 50.0, 1.0, [0, 1, 2, 10, 100])
        lines = text.splitlines()
        assert lines[0] == ",".join(header)
        for line, row in zip(lines[1:], rows):
            cells = line.split(",")
            assert cells[1:] == [format_bits(x) for x in row[1:]]

    def test_bad_range_exits_2(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(
            ["sweep", "--start", "5", "--stop", "1", "--step", "1",
             "--repeaters", "0", "--out", str(out)]
        ) == 2


class TestCompareMultiband:
    def test_m1_and_n0_columns_identical(self):
        header, rows = compare_rows(1.0, 30.0, 1.0, bands=[1], repeater_counts=[0])
        i_m, i_n = header.index("M1"), header.index("N0")
        for row in rows:
            assert row[i_m] == pytest.approx(row[i_n], abs=1e-12)

    def test_multiband_additive_at_fixed_loss(self):
        header, rows = compare_rows(3.0, 3.0, 1.0, bands=[1, 10], repeater_counts=[])
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

    def test_distance_column_uses_fiber_rate(self):
        header, rows = compare_rows(3.0, 3.0, 1.0, bands=[1], repeater_counts=[])
        assert rows[0][header.index("distance_km")] == pytest.approx(15.0, abs=1e-12)


class TestFormatting:
    def test_fixed_nine_decimals(self):
        assert format_bits(1.0) == "1.000000000"
        assert format_bits(0.15200309344504995) == "0.152003093"
        assert format_bits(math.inf) == "inf"
        assert format_bits(-0.0) == "0.000000000"
