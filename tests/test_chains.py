import math

import pytest

from highprec import hp_equidistant, hp_plob
from qnetcap import (
    InvalidParameter,
    asymptotic_loss_dominant,
    asymptotic_repeater_dominant,
    binary_entropy,
    capacity,
    chain_capacity,
    db_to_transmissivity,
    dephasing,
    equidistant_lossy_capacity,
    erasure,
    lossy,
    max_link_loss_for_rate,
    min_repeaters_for_rate,
    multiband_chain_capacity,
)


class TestChainCapacity:
    def test_lossy_chain_bottleneck(self):
        report = chain_capacity([lossy(0.9), lossy(0.5), lossy(0.8)])
        assert report.value == 1.0
        assert report.bottleneck_index == 1

    def test_single_link_degenerates_to_point_to_point(self):
        for eta in (0.05, 0.5, 0.95):
            report = chain_capacity([lossy(eta)])
            assert report.value == capacity(lossy(eta))
            assert report.bottleneck_index == 0

    def test_mixed_kind_chain(self):
        report = chain_capacity([erasure(0.2), dephasing((0.89, 0.11))])
        expected = min(0.8, 1.0 - binary_entropy(0.11))
        assert report.value == pytest.approx(expected, abs=1e-12)
        assert report.value == pytest.approx(0.500084041835472, abs=1e-12)
        assert report.bottleneck_index == 1

    def test_tie_goes_to_lowest_index(self):
        report = chain_capacity([lossy(0.5), lossy(0.5)])
        assert report.bottleneck_index == 0

    def test_empty_chain_rejected(self):
        with pytest.raises(InvalidParameter):
            chain_capacity([])

    def test_appending_a_link_never_increases(self):
        links = [lossy(0.9)]
        previous = chain_capacity(links).value
        for spec in (erasure(0.3), lossy(0.99), dephasing((0.8, 0.2)), lossy(0.4)):
            links.append(spec)
            current = chain_capacity(links).value
            assert current <= previous
            assert current <= capacity(spec)
            previous = current


class TestEquidistant:
    def test_n0_is_point_to_point(self):
        assert equidistant_lossy_capacity(0.5, 0) == 1.0
        for eta in (0.01, 0.37, 0.93):
            assert equidistant_lossy_capacity(eta, 0) == capacity(lossy(eta))

    @pytest.mark.parametrize("loss_db", [100, 170, 200])
    def test_n0_and_multiband_chain_exact_at_high_loss(self, loss_db):
        eta = 10.0 ** (-loss_db / 10.0)
        expected = float(hp_plob(eta))
        assert math.isclose(equidistant_lossy_capacity(eta, 0), expected, rel_tol=1e-14)
        assert math.isclose(multiband_chain_capacity([(eta, 2)]), 2 * expected, rel_tol=1e-14)

    def test_20db_one_repeater(self):
        assert equidistant_lossy_capacity(0.01, 1) == pytest.approx(
            float(hp_equidistant(20, 1)), abs=1e-12
        )
        assert equidistant_lossy_capacity(0.01, 1) == pytest.approx(0.152003093, abs=1e-9)

    def test_30db_two_repeaters(self):
        assert equidistant_lossy_capacity(0.001, 2) == pytest.approx(
            float(hp_equidistant(30, 2)), abs=1e-12
        )

    def test_matches_generic_chain_of_equal_links(self):
        for eta in (0.01, 0.2, 0.8):
            for n in (0, 1, 2, 5, 10):
                per_link = eta ** (1.0 / (n + 1))
                generic = chain_capacity([lossy(per_link)] * (n + 1)).value
                assert equidistant_lossy_capacity(eta, n) == pytest.approx(
                    generic, abs=1e-12
                )

    def test_strictly_increasing_in_n(self):
        for eta in (0.001, 0.3):
            values = [equidistant_lossy_capacity(eta, n) for n in range(0, 40)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_equidistant_split_is_optimal_for_one_repeater(self):
        eta = 0.04
        best = equidistant_lossy_capacity(eta, 1)
        for frac in (0.05, 0.1, 0.25, 0.45, 0.5, 0.55, 0.75, 0.9):
            first = eta ** frac
            split = chain_capacity([lossy(first), lossy(eta / first)]).value
            assert split <= best + 1e-12
            if abs(frac - 0.5) > 1e-9:
                assert split < best
        even = chain_capacity([lossy(math.sqrt(eta)), lossy(eta / math.sqrt(eta))]).value
        assert even == pytest.approx(best, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            equidistant_lossy_capacity(0.0, 1)
        with pytest.raises(InvalidParameter):
            equidistant_lossy_capacity(1.0, 1)
        with pytest.raises(InvalidParameter):
            equidistant_lossy_capacity(0.5, -1)
        with pytest.raises(InvalidParameter):
            equidistant_lossy_capacity(0.5, 1.5)


class TestRateBudgeting:
    def test_3db_rule(self):
        assert max_link_loss_for_rate(1.0) == pytest.approx(3.0103, abs=1e-3)

    def test_single_link_meets_target_at_3db_total(self):
        assert min_repeaters_for_rate(db_to_transmissivity(3.0), 1.0) == 0

    def test_30db_needs_nine_repeaters(self):
        assert min_repeaters_for_rate(0.001, 1.0) == 9
        assert equidistant_lossy_capacity(0.001, 8) < 1.0
        assert equidistant_lossy_capacity(0.001, 9) >= 1.0

    def test_inversion_consistency(self):
        for target in (0.25, 1.0, 3.0):
            loss_db = max_link_loss_for_rate(target)
            eta = db_to_transmissivity(loss_db)
            assert capacity(lossy(eta)) == pytest.approx(target, abs=1e-9)

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            max_link_loss_for_rate(0.0)
        with pytest.raises(InvalidParameter):
            min_repeaters_for_rate(0.5, -1.0)


class TestAsymptotics:
    def test_repeater_dominant_regime(self):
        approx = asymptotic_repeater_dominant(0.1, 1000)
        exact = equidistant_lossy_capacity(0.1, 1000)
        assert abs(approx - exact) / exact < 1e-3

    def test_repeater_dominant_across_regime(self):
        for eta in (0.01, 0.1, 0.5):
            for n in (1000, 5000):
                approx = asymptotic_repeater_dominant(eta, n)
                exact = equidistant_lossy_capacity(eta, n)
                assert abs(approx - exact) / exact < 1e-3

    def test_loss_dominant_regime(self):
        approx = asymptotic_loss_dominant(1e-12, 2)
        exact = equidistant_lossy_capacity(1e-12, 2)
        assert abs(approx - exact) / exact < 1e-3

    def test_loss_dominant_across_regime(self):
        # per-link transmissivity <= 1e-3 in every case below
        for eta, n in ((1e-12, 2), (1e-16, 3), (1e-8, 1), (1e-4, 0)):
            assert eta ** (1.0 / (n + 1)) <= 1e-3 * (1 + 1e-9)
            approx = asymptotic_loss_dominant(eta, n)
            exact = equidistant_lossy_capacity(eta, n)
            assert abs(approx - exact) / exact < 1e-3

    def test_loss_dominant_out_of_regime_documented(self):
        # At 3 dB with no repeaters the high-loss approximation is off by
        # ~28%: the regime boundary matters, this is not an accuracy claim.
        approx = asymptotic_loss_dominant(0.5, 0)
        assert approx == pytest.approx(0.7213475204, abs=1e-9)
        assert abs(approx - 1.0) > 0.25

    def test_repeater_dominant_rejects_zero_repeaters(self):
        with pytest.raises(InvalidParameter):
            asymptotic_repeater_dominant(0.5, 0)


class TestMultibandChain:
    def test_bandwidth_loss_tradeoff(self):
        value = multiband_chain_capacity([(0.5, 10), (0.9, 2)])
        assert value == pytest.approx(-2 * math.log2(0.1), abs=1e-12)
        assert value == pytest.approx(6.643856190, abs=1e-9)

    def test_all_single_band_reduces_to_plain_chain(self):
        etas = (0.9, 0.5, 0.8)
        plain = chain_capacity([lossy(e) for e in etas]).value
        assert multiband_chain_capacity([(e, 1) for e in etas]) == plain

    def test_equal_eta_minimum_bandwidth_wins(self):
        eta = 0.3
        value = multiband_chain_capacity([(eta, 3), (eta, 5), (eta, 4)])
        assert value == pytest.approx(-3 * math.log2(1 - eta), abs=1e-12)

    def test_two_forms_agree(self):
        links = [(0.11, 3), (0.52, 1), (0.83, 2), (0.4, 4)]
        theta_max = max((1 - eta) ** m for eta, m in links)
        assert multiband_chain_capacity(links) == pytest.approx(
            -math.log2(theta_max), abs=1e-12
        )

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            multiband_chain_capacity([])
        with pytest.raises(InvalidParameter):
            multiband_chain_capacity([(1.0, 2)])
        with pytest.raises(InvalidParameter):
            multiband_chain_capacity([(0.5, 0)])
