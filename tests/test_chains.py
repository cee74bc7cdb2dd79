import math
import random
import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from highprec import (
    agrees,
    hp_equidistant,
    hp_equidistant_eta,
    hp_loss_dominant,
    hp_max_link_loss,
    hp_plob,
    hp_repeater_dominant_terms,
)
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
from qnetcap import chains


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

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 100])
    def test_exact_at_high_loss(self, n):
        # 1 - root rounds away the digits of a small root; at 200 dB with
        # one repeater the naive form is off by 8e-8 relative.
        for loss_db in range(100, 201, 5):
            eta = db_to_transmissivity(loss_db)
            exact = float(hp_equidistant(loss_db, n))
            assert math.isclose(equidistant_lossy_capacity(eta, n), exact, rel_tol=1e-13)

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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        eta=st.one_of(
            # log-uniform over (0, 1), from the subnormals up ...
            st.floats(-320.0, math.log10(1.0 - 1e-15)).map(lambda x: 10.0**x),
            # ... and log-uniform in 1 - eta, to within 1e-15 of 1.
            st.floats(-15.0, -0.5).map(lambda x: 1.0 - 10.0**x),
        ),
        n=st.one_of(
            st.integers(0, 10**6),
            # log-uniform up to 10**400, far past float range, where
            # |ln eta| / (N + 1) is subnormal or not a float at all.
            st.floats(0.0, 400.0).map(lambda x: int(Decimal(10) ** Decimal(x))),
        ),
    )
    def test_exact_over_the_whole_domain(self, eta, n):
        assert math.isclose(
            equidistant_lossy_capacity(eta, n), float(hp_equidistant_eta(eta, n)), rel_tol=1e-13
        )

    @pytest.mark.parametrize(
        "n",
        [10**300, 10**305, 3 * 10**307, 10**308, 2 * 10**308, 10**400],
        ids=["1e300", "1e305", "3e307", "1e308", "2e308", "1e400"],
    )
    @pytest.mark.parametrize("eta", [1.0 - 2.0**-53, 0.5, 5e-324])
    def test_exact_past_float_range(self, eta, n):
        # |ln eta| / (N + 1) is subnormal from ~10**292 and N + 1 is not a
        # float from ~1.8e308; the answer grows like log2(N) throughout.
        expected = float(hp_equidistant_eta(eta, n))
        assert math.isclose(equidistant_lossy_capacity(eta, n), expected, rel_tol=1e-15)

    @pytest.mark.parametrize("links", [2, 3, 101, 1001, 10**400], ids=["2", "3", "101", "1001", "1e400"])
    def test_column_kernel_is_the_library_call_cell_by_cell(self, links):
        rng = random.Random(links)
        etas = [5e-324, 0.5, 1.0 - 2.0**-53]
        # log-uniform over (0, 1), from the subnormals up, and in 1 - eta
        etas += [10.0 ** rng.uniform(-323.9, -1e-3) for _ in range(300)]
        etas += [1.0 - 10.0 ** rng.uniform(-15.9, -1.0) for _ in range(100)]
        rng.shuffle(etas)
        column = chains._link_capacities([math.log(eta) for eta in etas], links)
        assert column == [equidistant_lossy_capacity(eta, links - 1) for eta in etas]
        if links < 2**1023:  # the column mixes the kernel's three branches
            log_roots = [math.log(eta) / links for eta in etas]
            branches = {(r < -math.log(2.0), r > -(2.0**-50)) for r in log_roots}
            assert branches == {(True, False), (False, False), (False, True)}

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

    @pytest.mark.parametrize("target", [1e-17, 1e-10, 1e-6, 0.5, 1.0, 54, 60, 200, 1000])
    def test_exact_for_small_targets(self, target):
        # 1 - 2**-t rounds to 0 below t ~ 1e-16 and loses digits above it;
        # it rounds to 1 above 53 bits, where the loss is still > 0.
        exact = float(hp_max_link_loss(target))
        assert math.isclose(max_link_loss_for_rate(target), exact, rel_tol=1e-14)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        target=st.one_of(
            st.floats(5e-324, sys.float_info.max),
            # log-uniform from the smallest subnormal to near the largest float ...
            st.floats(-323.3, 308.25).map(lambda x: 10.0**x),
            # ... and where the loss turns subnormal, then 0.0.
            st.floats(1000.0, 1100.0),
        )
    )
    def test_exact_over_the_whole_domain(self, target):
        assert agrees(max_link_loss_for_rate(target), hp_max_link_loss(target))

    @pytest.mark.parametrize("target", [1100.0, 1e300])
    def test_loss_below_the_smallest_float_reads_zero(self, target):
        loss = max_link_loss_for_rate(target)
        assert loss == 0.0 and math.copysign(1.0, loss) == 1.0  # not -0.0

    def test_smallest_target_resolves(self):
        # The loss is -10 log10(5e-324 ln 2); 5e-324 * ln 2 is subnormal and
        # rounds back up to 5e-324, whose loss is 3233.06 dB.
        assert max_link_loss_for_rate(5e-324) == pytest.approx(3234.654, abs=1e-3)

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

    @pytest.mark.parametrize(
        "eta, target",
        [(0.5, 1.0), (0.5, 18.0), (0.999, 18.0), (1e-3, 1.0), (1e-30, 1.0), (1e-30, 2.5)]
        + [(eta, 1e-20) for eta in (0.5, 1e-30)]
        + [(eta, 0.3) for eta in (0.5, 0.999, 1e-30)],
    )
    def test_min_repeaters_matches_integer_ascent(self, eta, target):
        n = 0
        while equidistant_lossy_capacity(eta, n) < target:
            n += 1
        assert min_repeaters_for_rate(eta, target) == n

    @pytest.mark.parametrize(
        "eta, n",
        [(1.6472150304429557e-182, 9), (2.905110469673457e-268, 573), (1.0483965971325262e-110, 43)],
    )
    def test_min_repeaters_climbs_past_an_estimate_that_misses(self, eta, n):
        # A target one ulp above n repeaters' capacity: the closed-form
        # estimate still reads n, which misses it, so the doubling climb
        # runs before the bisection.
        target = math.nextafter(equidistant_lossy_capacity(eta, n), math.inf)
        assert math.ceil(math.log(eta) / chains._log_keep(target)) - 1 == n
        assert equidistant_lossy_capacity(eta, n) < target
        assert min_repeaters_for_rate(eta, target) == n + 1

    @pytest.mark.parametrize("eta", [0.5, 1e-30])
    @pytest.mark.parametrize("target", [1.0, 18.0, 40.0, 100.0, 1000.0])
    def test_min_repeaters_meets_the_target_and_one_fewer_does_not(self, eta, target):
        # At 40 bits the ascent would take ~7.6e11 steps; the answer grows
        # like 2**t, so large targets are checked by their defining pair.
        n = min_repeaters_for_rate(eta, target)
        assert equidistant_lossy_capacity(eta, n) >= target
        assert n == 0 or equidistant_lossy_capacity(eta, n - 1) < target

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        eta=st.one_of(
            st.floats(-320.0, math.log10(1.0 - 1e-15)).map(lambda x: 10.0**x),
            st.floats(-15.0, -0.5).map(lambda x: 1.0 - 10.0**x),
        ),
        # log-uniform from the smallest subnormal up to where the count
        # leaves float range
        target=st.floats(-323.3, 3.0).map(lambda x: 10.0**x),
    )
    def test_min_repeaters_defining_pair_over_the_whole_domain(self, eta, target):
        try:
            n = min_repeaters_for_rate(eta, target)
        except InvalidParameter as err:  # the count is beyond float range
            assert err.field == "target_bits" and target > 1000.0
            return
        assert equidistant_lossy_capacity(eta, n) >= target
        assert n == 0 or equidistant_lossy_capacity(eta, n - 1) < target

    @pytest.mark.parametrize("target", [1030.0, 1074.5, 1075.0, 1e300])
    def test_min_repeaters_beyond_float_range(self, target):
        # 2**-t underflows to 0 above 1074 bits; the count overflows sooner.
        with pytest.raises(InvalidParameter) as err:
            min_repeaters_for_rate(0.5, target)
        assert err.value.field == "target_bits"


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

    @pytest.mark.parametrize("n", [10**308, 10**400], ids=["1e308", "1e400"])
    def test_asymptotics_past_float_range(self, n):
        # eta**(1/(N+1)) rounds to 1 long before N + 1 leaves float range.
        assert asymptotic_loss_dominant(0.5, n) == 1.0 / math.log(2.0)
        expected = math.log2(n) - math.log2(math.log(2.0))
        assert asymptotic_repeater_dominant(0.5, n) == expected

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        eta=st.one_of(
            # log-uniform from 1e-300 ...
            st.floats(-300.0, -1e-16).map(lambda x: 10.0**x),
            # ... and log-uniform in 1 - eta, to the float below 1.
            st.floats(-15.9, -0.3).map(lambda x: 1.0 - 10.0**x),
            st.just(1.0 - 2.0**-53),
        ),
        n=st.one_of(
            st.integers(1, 10**6),
            st.floats(0.0, 30.0).map(lambda x: int(Decimal(10) ** Decimal(x))),
        ),
    )
    def test_repeater_dominant_exact_over_the_whole_domain(self, eta, n):
        # The two terms cancel where N ~ ln(1/eta), so the error is measured
        # against the larger of them, or 1 bit: log2 of an argument that is
        # off by an ulp is off by ~1e-16 bits, however small the log is.
        many, lossy_term = hp_repeater_dominant_terms(eta, n)
        scale = max(abs(many), abs(lossy_term), 1)
        error = Decimal(asymptotic_repeater_dominant(eta, n)) - (many - lossy_term)
        assert abs(error) <= Decimal("1e-13") * scale

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        eta=st.one_of(
            st.floats(5e-324, 1.0 - 2.0**-53),
            # log-uniform over (0, 1), from the subnormals up ...
            st.floats(-323.3, -1e-16).map(lambda x: 10.0**x),
            # ... and log-uniform in 1 - eta, to the float below 1.
            st.floats(-15.9, -0.3).map(lambda x: 1.0 - 10.0**x),
        ),
        n=st.one_of(
            st.integers(0, 10**6),
            # log-uniform up to 10**400, where N + 1 is not a float
            st.floats(0.0, 400.0).map(lambda x: int(Decimal(10) ** Decimal(x))),
        ),
    )
    def test_loss_dominant_exact_over_the_whole_domain(self, eta, n):
        assert agrees(asymptotic_loss_dominant(eta, n), hp_loss_dominant(eta, n))

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
