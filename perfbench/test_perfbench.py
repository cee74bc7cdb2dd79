"""Self-tests of the benchmark's generators and verifier.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest perfbench``.
The answers to corrupt are produced by qnetcap itself; every corrupted
variant must be rejected and every original accepted.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import spans
import verify
import workloads
from qnetcap import cli
from qnetcap.errors import ParameterRegimeWarning

HERE = Path(__file__).resolve().parent


def _network_text(tmp_path, doc, mode):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["network", str(path), "--mode", mode]) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def mesh():
    return dict(workloads.mesh_networks(7, "small"))


def test_generators_are_deterministic():
    assert workloads.mesh_networks(3, "small") == workloads.mesh_networks(3, "small")
    assert workloads.referee_networks(3, "small") == workloads.referee_networks(3, "small")
    assert workloads.mesh_networks(3, "small") != workloads.mesh_networks(4, "small")
    assert workloads.referee_networks(3, "small") != workloads.referee_networks(4, "small")


@pytest.mark.parametrize("scale", ["small", "full"])
@pytest.mark.parametrize("seed", [1, 2])
def test_mesh_endpoints_are_connected(scale, seed):
    for label, doc in workloads.mesh_networks(seed, scale):
        assert workloads.connected(doc), label


def test_full_mesh_has_about_2e4_edges():
    for label, doc in workloads.mesh_networks(1, "full"):
        if label != "chain":
            assert 18_000 <= len(doc["edges"]) <= 22_000, label
        else:
            assert len(doc["edges"]) == 3000


def test_referee_networks_follow_the_suite_distribution():
    docs = workloads.referee_networks(5, "small")
    assert all(8 <= len(d["points"]) <= 12 and workloads.connected(d) for d in docs)
    assert all(workloads.simple_routes(d, 10**6) <= workloads.REFEREE_MAX_ROUTES for d in docs)
    kinds = {e["channel"]["kind"] for d in docs for e in d["edges"]}
    assert len(kinds) == 5


def test_bob_access_span_is_every_mesh_bottleneck():
    for label, doc in workloads.mesh_networks(2, "small"):
        g = verify.Graph(doc)
        access = next(eid for eid, ends in g.edges.items() if doc["bob"] in ends)
        assert g.widest_value() == g.cap[access], label
        assert g.cap[access] < min(c for eid, c in g.cap.items() if eid != access), label


def test_single_answer_accepted_and_dropped_route_edge_rejected(tmp_path, mesh):
    doc = mesh["grid"]
    g = verify.Graph(doc)
    ans = verify.parse_single(_network_text(tmp_path, doc, "single"))
    assert verify.check_route(g, ans, g.widest_value()) == []
    broken = dict(ans, route_edges=ans["route_edges"][:-1])
    assert verify.check_route(g, broken, g.widest_value())
    moved = dict(ans, cut_edges=ans["cut_edges"][1:])
    assert verify.check_route(g, moved, g.widest_value())


def test_multi_answer_accepted_and_perturbed_rate_rejected(tmp_path, mesh):
    doc = mesh["fiber"]
    g = verify.Graph(doc)
    ans = verify.parse_multi(_network_text(tmp_path, doc, "multi"))
    assert verify.check_flow(g, ans, g.widest_value()) == []
    carrying = next(i for i, r in enumerate(ans["rates"]) if r[3] != 0.0)
    rates = [list(r) for r in ans["rates"]]
    rates[carrying][3] += 1e-6
    assert verify.check_flow(g, dict(ans, rates=rates), g.widest_value())
    assert verify.check_flow(g, dict(ans, value=ans["value"] + 1e-6), g.widest_value())


def test_referee_answers_accepted(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterRegimeWarning)
        for doc in workloads.referee_networks(2, "small")[:5]:
            g = verify.Graph(doc)
            single = verify.parse_single(_network_text(tmp_path, doc, "single"))
            multi = verify.parse_multi(_network_text(tmp_path, doc, "multi"))
            assert verify.check_route(g, single, g.widest_value()) == []
            assert verify.check_flow(g, multi, g.widest_value()) == []


def _csv(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("kind", ["sweep", "compare"])
def test_csv_accepted_and_cell_off_by_2e9_rejected(tmp_path, kind):
    argv = dict(workloads.sweep_commands("small"))[kind]
    text = _csv(tmp_path, argv)
    assert verify.check_csv(argv, text) == []
    lines = text.split("\n")
    cells = lines[500].split(",")
    cells[-1] = f"{float(cells[-1]) + 2e-9:.9f}"
    lines[500] = ",".join(cells)
    assert verify.check_csv(argv, "\n".join(lines))
    assert verify.check_csv(argv, "\n".join(lines[:-2] + [""]))


def test_csv_zero_loss_row_must_read_inf(tmp_path):
    argv = dict(workloads.sweep_commands("small"))["sweep"]
    text = _csv(tmp_path, argv)
    assert text.split("\n")[1].split(",")[1:] == ["inf"] * 9
    assert verify.check_csv(argv, text.replace("0,inf", "0,1.000000000", 1))


def test_self_times_add_up_to_the_root_span():
    names = ["bench.op", "a", "b"]
    rows = [(0, -1, 0.0, 10.0), (1, 0, 1.0, 6.0), (2, 1, 2.0, 3.0), (2, 0, 7.0, 9.0)]
    self_s, calls, roots = spans.layer_stats(names, rows)
    assert self_s == {"bench.op": 3.0, "a": 4.0, "b": 3.0}
    assert calls == {"bench.op": 1, "a": 1, "b": 2}
    assert roots == [("bench.op", 10.0, 10.0)]


def test_tracer_sees_calls_through_every_module_reference(tmp_path):
    # Installing the tracer rebinds module attributes, so it runs in a child.
    script = """
import sys
import qnetcap
from qnetcap import cli
from spans import Tracer
tracer = Tracer()
tracer.install(qnetcap)
code = cli.main(["network", sys.argv[1], "--mode", "single"])
tracer.dump(sys.argv[2])
sys.exit(code)
"""
    doc = dict(workloads.mesh_networks(1, "small"))["chain"]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), str(HERE)]))
    subprocess.run(
        [sys.executable, "-c", script, str(path), str(tmp_path / "spans.txt")],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    names, counters, rows = spans.load(str(tmp_path / "spans.txt"))
    parent_of = {names[n]: names[rows[p][0]] for n, p, _, _ in rows if p >= 0}
    assert parent_of["network.parse_network"] == "cli.main"  # via cmd_network
    assert parent_of["single_path.widest_path"] == "cli.main"
    assert parent_of["network.make_cut"] == "single_path.widest_path"
    assert parent_of["network.channel_from_json"] == "network.parse_network"
    assert parent_of["channels.spec"] == "network.channel_from_json"
    assert counters["network.make_cut.side_a_points"] == len(doc["points"]) - 1
