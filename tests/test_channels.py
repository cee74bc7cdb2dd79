import math

import pytest

from highprec import hp_binary_entropy, hp_plob, hp_shannon_entropy
from qnetcap import (
    InvalidParameter,
    ParameterRegimeWarning,
    amplifier,
    binary_entropy,
    capacity,
    db_to_transmissivity,
    dephasing,
    erasure,
    fiber_transmissivity,
    lossy,
    multiband_lossy,
    shannon_entropy,
    transmissivity_to_db,
)


class TestCapacityValues:
    def test_lossy_3db_point(self):
        # 3 dB of loss (eta = 1/2) is exactly the 1 bit/use point
        assert capacity(lossy(0.5)) == 1.0

    def test_lossy_matches_high_precision(self):
        for eta in (0.1, 0.3, 0.9, 0.999):
            assert capacity(lossy(eta)) == pytest.approx(
                float(hp_plob(eta)), abs=1e-12
            )

    def test_dephasing_uniform_qubit_is_zero(self):
        assert capacity(dephasing((0.5, 0.5))) == 0.0

    def test_erasure_perfect_transmission(self):
        assert capacity(erasure(0.0)) == 1.0

    def test_erasure_qudit(self):
        # (1 - 0.25) * log2(4) = 1.5, exact arithmetic
        assert capacity(erasure(0.25, dim=4)) == 1.5

    def test_multiband(self):
        assert capacity(multiband_lossy(0.5, 10)) == 10.0

    def test_amplifier_gain_2_equals_lossy_half(self):
        # 1 - 1/2 = 0.5: same formula argument as the lossy 3 dB point
        assert capacity(amplifier(2.0)) == 1.0

    @pytest.mark.parametrize("loss_db", [100, 130, 160, 170, 200])
    def test_pure_loss_exact_at_high_loss(self, loss_db):
        # PLOB regime, C ~ eta / ln 2: far below the spacing of doubles
        # near 1, so 1 - eta must never be formed.
        eta = 10.0 ** (-loss_db / 10.0)
        expected = float(hp_plob(eta))
        assert math.isclose(capacity(lossy(eta)), expected, rel_tol=1e-14)
        assert math.isclose(capacity(multiband_lossy(eta, 3)), 3 * expected, rel_tol=1e-14)
        gain = 1.0 / eta
        expected = float(hp_plob(1.0 / gain))
        assert math.isclose(capacity(amplifier(gain)), expected, rel_tol=1e-14)


class TestEntropies:
    def test_binary_entropy_max(self):
        assert binary_entropy(0.5) == 1.0

    def test_binary_entropy_degenerate(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_binary_entropy_high_precision(self):
        assert binary_entropy(0.11) == pytest.approx(
            float(hp_binary_entropy("0.11")), abs=1e-14
        )

    def test_shannon_point_mass(self):
        assert shannon_entropy((1.0, 0.0, 0.0, 0.0)) == 0.0

    def test_shannon_uniform_d4(self):
        assert shannon_entropy((0.25,) * 4) == 2.0

    def test_shannon_direct_evaluation(self):
        assert shannon_entropy((0.5, 0.25, 0.25)) == pytest.approx(
            float(hp_shannon_entropy(["0.5", "0.25", "0.25"])), abs=1e-14
        )

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_binary_entropy_rejects(self, bad):
        with pytest.raises(InvalidParameter):
            binary_entropy(bad)

    def test_shannon_rejects_negative(self):
        with pytest.raises(InvalidParameter):
            shannon_entropy((0.5, 0.6, -0.1))

    def test_shannon_rejects_bad_normalization(self):
        with pytest.raises(InvalidParameter):
            shannon_entropy((0.5, 0.6))


class TestConversions:
    def test_3db_rule_transmissivity(self):
        assert db_to_transmissivity(3.0103) == pytest.approx(0.5, abs=1e-4)

    def test_zero_loss(self):
        assert db_to_transmissivity(0.0) == 1.0

    def test_round_trip(self):
        for db in (0.1, 3.0, 17.5, 120.0):
            assert db_to_transmissivity(transmissivity_to_db(db_to_transmissivity(db))) == pytest.approx(
                db_to_transmissivity(db), abs=1e-12
            )
            assert transmissivity_to_db(db_to_transmissivity(db)) == pytest.approx(db, abs=1e-12)

    def test_fiber_15km(self):
        eta = fiber_transmissivity(15.0, 0.2)
        assert eta == pytest.approx(0.5012, abs=1e-4)
        assert transmissivity_to_db(eta) == pytest.approx(3.0, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameter):
            db_to_transmissivity(-1.0)
        with pytest.raises(InvalidParameter):
            fiber_transmissivity(-1.0)
        with pytest.raises(InvalidParameter):
            fiber_transmissivity(10.0, 0.0)


class TestValidation:
    @pytest.mark.parametrize("eta", [0.0, 1.0, -0.2, 1.5, float("inf"), float("nan")])
    def test_lossy_eta_open_interval(self, eta):
        with pytest.raises(InvalidParameter) as err:
            lossy(eta)
        assert err.value.field == "eta"

    @pytest.mark.parametrize("gain", [1.0, 0.5, float("inf")])
    def test_amplifier_gain(self, gain):
        with pytest.raises(InvalidParameter) as err:
            amplifier(gain)
        assert err.value.field == "gain"

    def test_dephasing_bad_normalization(self):
        with pytest.raises(InvalidParameter):
            dephasing((0.5, 0.4))

    def test_dephasing_dim_mismatch(self):
        with pytest.raises(InvalidParameter):
            dephasing((0.5, 0.5), dim=3)

    def test_dephasing_needs_two_entries(self):
        with pytest.raises(InvalidParameter):
            dephasing((1.0,))

    def test_dephasing_beyond_half_warns_but_works(self):
        with pytest.warns(ParameterRegimeWarning):
            spec = dephasing((0.2, 0.8))
        assert capacity(spec) == pytest.approx(1.0 - binary_entropy(0.8), abs=1e-12)

    @pytest.mark.parametrize("p", [-0.01, 1.01])
    def test_erasure_probability_range(self, p):
        with pytest.raises(InvalidParameter) as err:
            erasure(p)
        assert err.value.field == "p_erase"

    def test_erasure_closed_interval_endpoints_ok(self):
        assert capacity(erasure(0.0)) == 1.0
        assert capacity(erasure(1.0)) == 0.0

    def test_multiband_bands(self):
        with pytest.raises(InvalidParameter):
            multiband_lossy(0.5, 0)
        with pytest.raises(InvalidParameter):
            multiband_lossy(0.5, 2.5)

    def test_dim_minimum(self):
        with pytest.raises(InvalidParameter):
            erasure(0.1, dim=1)


class TestInvariants:
    def test_lossy_monotone_in_eta(self):
        grid = [0.05 * k for k in range(1, 20)]
        caps = [capacity(lossy(eta)) for eta in grid]
        assert all(b > a for a, b in zip(caps, caps[1:]))

    def test_amplifier_monotone_in_gain(self):
        grid = [1.0 + 0.25 * k for k in range(1, 20)]
        caps = [capacity(amplifier(g)) for g in grid]
        assert all(b < a for a, b in zip(caps, caps[1:]))

    def test_erasure_monotone_in_p(self):
        grid = [0.05 * k for k in range(0, 21)]
        for d in (2, 3, 5):
            caps = [capacity(erasure(p, dim=d)) for p in grid]
            assert all(b < a for a, b in zip(caps, caps[1:]))

    def test_dephasing_decreasing_toward_uniform(self):
        # Walk from a point mass toward uniform over d = 4.
        d = 4
        caps = []
        for t in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            probs = tuple((1 - t) * (1.0 if k == 0 else 0.0) + t / d for k in range(d))
            caps.append(capacity(dephasing(probs)))
        assert all(b < a for a, b in zip(caps, caps[1:]))
        assert caps[0] == pytest.approx(2.0, abs=1e-12)
        assert caps[-1] == 0.0

    def test_multiband_additivity_exact(self):
        for eta in (0.1, 0.5, 0.77):
            for m in (1, 2, 7, 32):
                assert capacity(multiband_lossy(eta, m)) == m * capacity(lossy(eta))

    def test_limits(self):
        assert capacity(lossy(1e-15)) < 1e-12
        # C(g) ~ 1/(g ln 2), so a gain of a few times 1e6/ln 2 sits below 1e-6
        assert capacity(amplifier(2e6 / math.log(2))) < 1e-6

    def test_qudit_consistency_with_binary_formula(self):
        for p in (0.0, 0.1, 0.25, 0.5):
            qudit = capacity(dephasing((1.0 - p, p)))
            assert qudit == pytest.approx(1.0 - binary_entropy(p), abs=1e-12)

    def test_capacity_finite_nonnegative_across_kinds(self):
        specs = [
            lossy(0.999999),
            amplifier(1.000001),
            dephasing((1 / 3, 1 / 3, 1 / 3)),
            erasure(1.0, dim=7),
            multiband_lossy(0.01, 100),
        ]
        for spec in specs:
            value = capacity(spec)
            assert math.isfinite(value)
            assert value >= 0.0
