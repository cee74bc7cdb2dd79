"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here, not configurable.
"""

import math
import pathlib
import random

import pytest

from conftest import build_network, diamond, enumerate_cuts, random_channel
from highprec import hp_equidistant
from qnetcap import (
    amplifier,
    asymptotic_loss_dominant,
    asymptotic_repeater_dominant,
    binary_entropy,
    brute_multi_path_capacity,
    brute_single_path_capacity,
    capacity,
    cut_multi_edge_value,
    cut_single_edge_value,
    db_to_transmissivity,
    dephasing,
    edge_capacity,
    equidistant_lossy_capacity,
    erasure,
    is_connected,
    lossy,
    max_flow,
    max_link_loss_for_rate,
    max_spanning_tree,
    min_single_edge_cut,
    multi_path_capacity,
    multiband_lossy,
    tree_route_capacity,
    widest_path,
)
from qnetcap.cli import sweep_rows

DATA = pathlib.Path(__file__).parent / "data"


def _passed(number, label):
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_three_db_rule():
    assert abs(capacity(lossy(0.5)) - 1.0) <= 1e-12
    loss_db = max_link_loss_for_rate(1.0)
    assert abs(loss_db - 3.0103) <= 1e-3
    length_km = loss_db / 0.2  # standard fiber attenuation, dB per km
    assert abs(length_km - 15.05) <= 0.01
    _passed(1, "3dB rule")


def test_criterion_2_sweep_reproduction(tmp_path):
    repeaters = [0, 1, 2, 10, 100]
    header, rows = sweep_rows(0.0, 50.0, 1.0, repeaters)

    # Golden CSV: regenerate through the CLI and compare byte-for-byte.
    from qnetcap.cli import main

    out = tmp_path / "sweep.csv"
    assert main(
        ["sweep", "--start", "0", "--stop", "50", "--step", "1",
         "--repeaters", "0,1,2,10,100", "--out", str(out)]
    ) == 0
    assert out.read_text(encoding="utf-8") == (DATA / "sweep_golden.csv").read_text(
        encoding="utf-8"
    )

    out = tmp_path / "compare.csv"
    assert main(
        ["compare-multiband", "--start", "0", "--stop", "200", "--step", "1",
         "--bands", "1,10,100", "--repeaters", "1,2,10", "--out", str(out)]
    ) == 0
    assert out.read_text(encoding="utf-8") == (DATA / "compare_golden.csv").read_text(
        encoding="utf-8"
    )

    # Spot values against an independent high-precision evaluation.
    by_loss = {row[0]: row[1:] for row in rows}
    for loss_db in (10, 30, 50):
        for column, n in enumerate(repeaters):
            exact = float(hp_equidistant(loss_db, n))
            assert abs(by_loss[float(loss_db)][column] - exact) <= 1e-9

    # Monotonicity in N, row-wise (strict once the loss is positive).
    for row in rows:
        values = row[1:]
        if row[0] == 0.0:
            assert all(math.isinf(v) for v in values)
        else:
            assert all(b > a for a, b in zip(values, values[1:]))
    _passed(2, "capacity-vs-loss sweep")


def test_criterion_3_diamond_doubling():
    for eta in (0.1, 0.5, 0.9):
        net = diamond(eta)
        single = widest_path(net).capacity
        multi = multi_path_capacity(net)
        expected = -2.0 * math.log2(1.0 - eta)
        assert abs(multi - 2.0 * single) <= 1e-9
        assert abs(multi - expected) <= 1e-9
    _passed(3, "diamond doubling")


def test_criterion_4_widest_path_duality(network_suite):
    assert len(network_suite) >= 500
    for net in network_suite:
        wide = widest_path(net).capacity
        cut_value = cut_single_edge_value(net, min_single_edge_cut(net))
        brute = brute_single_path_capacity(net)
        assert wide == cut_value
        assert wide == brute.route_value
        assert wide == brute.cut_value
    _passed(4, "widest-path duality, exact on 500 networks")


def test_criterion_5_max_flow_min_cut(network_suite):
    for net in network_suite:
        report = max_flow(net)
        assert report.value == brute_multi_path_capacity(net)

        net_rate = {p: 0.0 for p in net.points}
        for edge in net.edges:
            rate = report.effective_rates[edge.edge_id]
            assert abs(rate) <= edge_capacity(net, edge.edge_id) + 1e-9
            net_rate[edge.u] += rate
            net_rate[edge.v] -= rate
        for point in net.points:
            if point == net.alice:
                bound = len(net.edges) * 2**-52 * report.value
                assert abs(net_rate[point] - report.value) <= bound
            elif point == net.bob:
                assert abs(net_rate[point] + report.value) <= 1e-9
            else:
                assert abs(net_rate[point]) <= 1e-9

        assert cut_multi_edge_value(net, report.min_cut) == report.value
        assert net.bob not in report.min_cut.side_a
    _passed(5, "max-flow min-cut on 500 networks")


def test_criterion_6_algorithm_cross_equivalence(network_suite):
    for net in network_suite:
        tree_value = tree_route_capacity(net, max_spanning_tree(net)).capacity
        assert tree_value == widest_path(net).capacity
    _passed(6, "Kruskal/Dijkstra cross-equivalence")


def test_criterion_7_asymptotic_regimes():
    approx = asymptotic_repeater_dominant(0.1, 1000)
    exact = equidistant_lossy_capacity(0.1, 1000)
    assert abs(approx - exact) / exact < 1e-3

    approx = asymptotic_loss_dominant(1e-12, 2)
    exact = equidistant_lossy_capacity(1e-12, 2)
    assert abs(approx - exact) / exact < 1e-3
    _passed(7, "asymptotic regimes")


def _five_point_networks(make_channel, seed):
    """Three connected 5-point networks with one channel family throughout."""
    rng = random.Random(seed)
    nets = []
    while len(nets) < 3:
        points = ("a", "b", "x", "y", "z")
        from itertools import combinations

        pairs = [p for p in combinations(points, 2) if rng.random() < 0.6]
        edges = [
            (f"e{i}", u, v, make_channel(rng)) for i, (u, v) in enumerate(pairs)
        ]
        try:
            net = build_network(points, edges)
        except Exception:
            continue
        if is_connected(net):
            nets.append(net)
    return nets


def test_criterion_8_homogeneous_formula_suite():
    tol = 1e-9

    def check(make_channel, parameter, single_formula, multi_formula, seed):
        for net in _five_point_networks(make_channel, seed):
            params = {e.edge_id: parameter(e.channel) for e in net.edges}
            records = enumerate_cuts(net)
            single = widest_path(net).capacity
            multi = multi_path_capacity(net)
            assert abs(single - single_formula(params, records)) <= tol
            assert abs(multi - multi_formula(params, records)) <= tol

    def crossing(record):
        return record.cut.cut_set

    # Lossy: eta_N = min over cuts of max crossing eta; L_N = max cut loss product.
    def lossy_single(params, records):
        eta_n = min(max(params[e] for e in crossing(r)) for r in records)
        return -math.log2(1.0 - eta_n)

    def lossy_multi(params, records):
        loss_n = max(
            math.prod(1.0 - params[e] for e in crossing(r)) for r in records
        )
        return -math.log2(loss_n)

    check(
        lambda rng: lossy(rng.uniform(0.1, 0.9)),
        lambda spec: spec.eta,
        lossy_single,
        lossy_multi,
        seed=801,
    )

    # Amplifiers: g_N = max over cuts of min crossing gain; G_N analogous.
    def amp_single(params, records):
        g_n = max(min(params[e] for e in crossing(r)) for r in records)
        return -math.log2(1.0 - 1.0 / g_n)

    def amp_multi(params, records):
        g_prod = max(
            math.prod(1.0 - 1.0 / params[e] for e in crossing(r)) for r in records
        )
        return -math.log2(g_prod)

    check(
        lambda rng: amplifier(rng.uniform(1.1, 3.0)),
        lambda spec: spec.gain,
        amp_single,
        amp_multi,
        seed=802,
    )

    # Dephasing qubits: p_N = max over cuts of min crossing flip probability.
    def deph_single(params, records):
        p_n = max(min(params[e] for e in crossing(r)) for r in records)
        return 1.0 - binary_entropy(p_n)

    def deph_multi(params, records):
        return min(
            sum(1.0 - binary_entropy(params[e]) for e in crossing(r))
            for r in records
        )

    def dephasing_channel(rng):
        p = rng.uniform(0.0, 0.5)
        return dephasing((1.0 - p, p))

    check(
        dephasing_channel,
        lambda spec: spec.probs[1],
        deph_single,
        deph_multi,
        seed=803,
    )

    # Erasure qudits: single path 1 - p_N times log2 d; multi path sums.
    def erasure_channel(rng):
        return erasure(rng.uniform(0.0, 0.95), dim=3)

    def erasure_single(params, records):
        p_n = max(min(params[e] for e in crossing(r)) for r in records)
        return (1.0 - p_n) * math.log2(3)

    def erasure_multi(params, records):
        return min(
            sum((1.0 - params[e]) * math.log2(3) for e in crossing(r))
            for r in records
        )

    check(
        erasure_channel,
        lambda spec: spec.p,
        erasure_single,
        erasure_multi,
        seed=804,
    )
    _passed(8, "homogeneous formula suite (Table of closed forms)")
