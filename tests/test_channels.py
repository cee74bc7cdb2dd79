import contextlib
import copy
import dataclasses
import io
import json
import math
import pickle
import sys
import warnings
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from highprec import (
    agrees,
    hp_amplifier,
    hp_binary_entropy,
    hp_db_to_transmissivity,
    hp_equidistant_eta,
    hp_erasure,
    hp_plob,
    hp_shannon_entropy,
    hp_transmissivity_to_db,
)
from qnetcap import (
    CHANNEL_KINDS,
    ChannelSpec,
    InvalidParameter,
    ValidationError,
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
from qnetcap import channels
from qnetcap.cli import format_bits, main
from qnetcap.network import channel_from_json, parse_network


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

    @pytest.mark.parametrize("gain", [1 + 1e-10, 1.5, 2.0, 10.0, 1e6])
    def test_amplifier_exact_near_unit_gain(self, gain):
        # 1/g rounds, and 1 - 1/g magnifies that rounding as g nears 1.
        expected = float(hp_amplifier(gain))
        assert math.isclose(capacity(amplifier(gain)), expected, rel_tol=1e-13)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        eta=st.one_of(
            st.floats(5e-324, 1.0 - 2.0**-53),
            # log-uniform over (0, 1), from the subnormals up ...
            st.floats(-323.3, -1e-16).map(lambda x: 10.0**x),
            # ... and log-uniform in 1 - eta, to the float below 1.
            st.floats(-15.9, -0.3).map(lambda x: 1.0 - 10.0**x),
        )
    )
    def test_lossy_exact_over_the_whole_domain(self, eta):
        assert agrees(capacity(lossy(eta)), hp_equidistant_eta(eta, 0))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        gain=st.one_of(
            st.floats(1.0 + 2.0**-52, sys.float_info.max),
            # log-uniform in g - 1, to the float above 1 ...
            st.floats(-15.6, 0.0).map(lambda x: 1.0 + 10.0**x),
            # ... and log-uniform in g, to near the largest float.
            st.floats(0.3, 308.25).map(lambda x: 10.0**x),
        )
    )
    def test_amplifier_exact_over_the_whole_domain(self, gain):
        assert agrees(capacity(amplifier(gain)), hp_amplifier(gain))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        eta=st.one_of(
            st.floats(1e-307, 1.0 - 2.0**-53),
            # log-uniform from where one band's -log2(1 - eta) is a normal
            # float (eta >= ~1.54e-308, see the test below) ...
            st.floats(-307.8, -1e-16).map(lambda x: 10.0**x),
            # ... and log-uniform in 1 - eta, to the float below 1.
            st.floats(-15.9, -0.3).map(lambda x: 1.0 - 10.0**x),
        ),
        # log-uniform from one band to 10**308, past _SAFE_BANDS (10**306),
        # where the capacity may leave float range
        bands=st.floats(0.0, 308.0).map(lambda x: int(Decimal(10) ** Decimal(x))),
    )
    def test_multiband_exact_or_rejected_over_the_whole_domain(self, eta, bands):
        exact = bands * hp_equidistant_eta(eta, 0)
        limit = Decimal(sys.float_info.max)
        if exact > limit * (1 + Decimal("1e-13")):
            with pytest.raises(InvalidParameter, match="^bands=.*: too many bands for a float capacity$"):
                multiband_lossy(eta, bands)
        elif exact < limit * (1 - Decimal("1e-13")):
            assert agrees(capacity(multiband_lossy(eta, bands)), exact)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        p=st.one_of(
            st.floats(0.0, 1.0),
            # log-uniform over (0, 1], from the subnormals up ...
            st.floats(-323.3, 0.0).map(lambda x: 10.0**x),
            # ... and log-uniform in 1 - p, up to 1.
            st.floats(-16.0, 0.0).map(lambda x: 1.0 - 10.0**x),
        ),
        # from a qubit, log-uniform up to 10**400, past float range
        dim=st.one_of(
            st.integers(2, 1000),
            st.floats(0.31, 400.0).map(lambda x: int(Decimal(10) ** Decimal(x))),
        ),
    )
    def test_erasure_exact_over_the_whole_domain(self, p, dim):
        assert agrees(capacity(erasure(p, dim)), hp_erasure(p, dim))

    # Dephasing has no whole-domain property yet: log2 d - H(p) cancels near
    # the uniform distribution (2.6e-3 relative error at p = 0.5 +- 1e-7, and
    # 0.0 for a true 2.9e-20 at 0.5 +- 1e-10), so it would fail one.

    def test_multiband_exact_where_one_band_is_subnormal(self):
        # One band of eta = 1e-320 carries ~1.4e-320 bits, a subnormal of 12
        # significant bits; 10**300 bands would keep its rounding (5e-6
        # here), so the capacity is formed as bands * eta / ln 2.
        eta, bands = 1e-320, 10**300
        assert agrees(capacity(multiband_lossy(eta, bands)), bands * hp_equidistant_eta(eta, 0))
        assert capacity(multiband_lossy(eta, bands)) == 1.442678979628629e-20


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

    @pytest.mark.parametrize("p", [1e-300, 1e-20, 1e-12, 1e-3, 0.5])
    def test_binary_entropy_exact_at_small_p(self, p):
        # 1 - p rounds to 1 below p ~ 1e-16, dropping the p/ln 2 term.
        expected = float(hp_binary_entropy(p))
        assert math.isclose(binary_entropy(p), expected, rel_tol=1e-13)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        p=st.one_of(
            st.floats(0.0, 1.0),
            # log-uniform over (0, 1], from the subnormals up ...
            st.floats(-323.3, 0.0).map(lambda x: 10.0**x),
            # ... and log-uniform in 1 - p, up to 1.
            st.floats(-16.0, 0.0).map(lambda x: 1.0 - 10.0**x),
        )
    )
    def test_binary_entropy_exact_over_the_whole_domain(self, p):
        assert agrees(binary_entropy(p), hp_binary_entropy(p))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        # weights log-uniform from the subnormals up, some exactly 0
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(-323.3, 0.0).map(lambda x: 10.0**x)),
            min_size=1,
            max_size=16,
        ).filter(any)
    )
    def test_shannon_entropy_exact_over_the_whole_domain(self, weights):
        total = math.fsum(weights)
        probs = [w / total for w in weights]
        assert agrees(shannon_entropy(probs), hp_shannon_entropy(probs))

    def test_shannon_point_mass(self):
        for probs in [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]:
            value = shannon_entropy(probs)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0  # not -0.0

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

    def test_dephasing_capacity_runs_no_probability_check(self, monkeypatch):
        spec = dephasing((0.7, 0.2, 0.1))
        expected = capacity(spec)

        def checked_again(*args):
            raise AssertionError("a checked distribution was checked again")

        monkeypatch.setattr(channels, "_distribution", checked_again)
        monkeypatch.setattr(channels, "_require_finite", checked_again)
        assert capacity(spec) == expected

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

    @pytest.mark.parametrize(
        "length_km, rate", [(1e300, 1e10), (1e308, 2.0), (10**308, 10)], ids=["1e300", "1e308", "int"]
    )
    def test_fiber_loss_beyond_float_range_names_the_length(self, length_km, rate):
        with pytest.raises(InvalidParameter) as err:
            fiber_transmissivity(length_km, rate)
        assert str(err.value) == f"length_km={float(length_km)!r}: puts the loss beyond float range"

    def test_loss_past_underflow_reads_zero_which_no_channel_accepts(self):
        assert db_to_transmissivity(1e5) == 0.0
        assert fiber_transmissivity(1e300, 1e8) == 0.0
        with pytest.raises(InvalidParameter, match=r"^eta=0\.0: "):
            lossy(fiber_transmissivity(1e300, 1e8))

    @pytest.mark.parametrize("eta", [0.0, 1.5])
    def test_transmissivity_to_db_rejects(self, eta):
        with pytest.raises(InvalidParameter) as err:
            transmissivity_to_db(eta)
        assert str(err.value) == f"eta={eta!r}: must lie in (0, 1]"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        loss_db=st.one_of(
            st.floats(0.0, sys.float_info.max),
            # log-uniform from the smallest subnormal to ~3,300 dB, where
            # eta is subnormal, then 0.0
            st.floats(-323.3, 3.52).map(lambda x: 10.0**x),
            st.floats(3000.0, 3300.0),
        )
    )
    def test_db_to_transmissivity_exact_over_the_whole_domain(self, loss_db):
        assert agrees(db_to_transmissivity(loss_db), hp_db_to_transmissivity(loss_db))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        eta=st.one_of(
            st.floats(5e-324, 1.0),
            # log-uniform over (0, 1], from the subnormals up ...
            st.floats(-323.3, 0.0).map(lambda x: 10.0**x),
            # ... and log-uniform in 1 - eta, to the float below 1.
            st.floats(-15.9, -0.3).map(lambda x: 1.0 - 10.0**x),
        )
    )
    def test_transmissivity_to_db_exact_over_the_whole_domain(self, eta):
        assert agrees(transmissivity_to_db(eta), hp_transmissivity_to_db(eta))

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameter):
            db_to_transmissivity(-1.0)
        with pytest.raises(InvalidParameter):
            fiber_transmissivity(-1.0)
        with pytest.raises(InvalidParameter):
            fiber_transmissivity(10.0, 0.0)


#: Fifty dephasing distributions with more than 1/2 on a phase rotation.
BEYOND_HALF = [(0.25 - i / 1000, 0.75 + i / 1000) for i in range(50)]


def _network_capacities():
    """The capacities of one parsed network with a BEYOND_HALF edge each."""
    edges = [
        {"id": f"e{i}", "u": "a", "v": "b", "channel": {"kind": "dephasing", "probs": list(probs)}}
        for i, probs in enumerate(BEYOND_HALF)
    ]
    document = json.dumps({"points": ["a", "b"], "alice": "a", "bob": "b", "edges": edges})
    return list(parse_network(document).capacities.values())


def _command_lines():
    """The ``qnetcap channel`` stdout for each BEYOND_HALF distribution,
    each command exiting 0 with nothing on stderr."""
    lines = []
    for probs in BEYOND_HALF:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["channel", "--kind", "dephasing", "--probs", ",".join(map(repr, probs))]) == 0
        assert err.getvalue() == ""
        lines.append(out.getvalue())
    return lines


#: Each route to a dephasing capacity: what it gives for BEYOND_HALF, and
#: how it shows a capacity.
BEYOND_HALF_ROUTES = {
    "constructor": (lambda: [capacity(dephasing(p)) for p in BEYOND_HALF], float),
    "channel_from_json": (
        lambda: [capacity(channel_from_json({"kind": "dephasing", "probs": list(p)})) for p in BEYOND_HALF],
        float,
    ),
    "parse_network": (_network_capacities, float),
    "cli.main": (_command_lines, lambda value: f"{format_bits(value)} bits/use\n"),
}


#: The message of every call of :class:`ChannelSpec` itself.
CLOSED_ROUTE = (
    "a ChannelSpec is made by its kind's constructor: lossy, amplifier, dephasing, erasure, multiband_lossy"
)


class TestValidation:
    def test_unknown_kind(self):
        # No kind can be named to the class: a spec is made by its kind's constructor.
        with pytest.raises(TypeError) as err:
            ChannelSpec("bogus")
        assert str(err.value) == CLOSED_ROUTE

    def test_erasure_object_without_dim_is_a_qubit(self):
        spec = channel_from_json({"kind": "erasure", "p": 0.25})
        assert spec.dim == 2
        assert spec == erasure(0.25) == erasure(0.25, dim=2)
        assert capacity(spec) == 0.75

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

    @pytest.mark.parametrize("route", BEYOND_HALF_ROUTES)
    def test_dephasing_beyond_half_raises_no_warning(self, route):
        # log2 d - H(p) holds on the whole simplex, so more than 1/2 on a
        # phase rotation is an ordinary input on every route to a capacity.
        run, shown = BEYOND_HALF_ROUTES[route]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run()
        assert got == [shown(math.log2(len(p)) - shannon_entropy(p)) for p in BEYOND_HALF]

    @pytest.mark.parametrize("p", [-0.01, 1.01])
    def test_erasure_probability_range(self, p):
        with pytest.raises(InvalidParameter) as err:
            erasure(p)
        assert err.value.field == "p"

    def test_erasure_closed_interval_endpoints_ok(self):
        assert capacity(erasure(0.0)) == 1.0
        assert capacity(erasure(1.0)) == 0.0

    def test_multiband_bands(self):
        with pytest.raises(InvalidParameter):
            multiband_lossy(0.5, 0)
        with pytest.raises(InvalidParameter):
            multiband_lossy(0.5, 2.5)

    @pytest.mark.parametrize("bands", [10**308, 10**309], ids=["1e308", "1e309"])
    def test_multiband_capacity_beyond_float_range(self, bands):
        # 10**308 bands of 0.9 give inf; 10**309 is beyond float range itself.
        with pytest.raises(InvalidParameter) as err:
            multiband_lossy(0.9, bands)
        assert err.value.field == "bands"

    def test_multiband_huge_but_finite(self):
        assert capacity(multiband_lossy(0.5, 10**307)) == 1e307

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


#: Per kind: valid arguments by parameter name, and bad values per parameter
#: (numbers the ``qnetcap channel`` flags can carry, then other JSON types).
BUILDER_CASES = {
    "lossy": ({"eta": 0.3}, {"eta": [0.0, 1.0, 1.5, "0.3", True, [0.3]]}),
    "amplifier": ({"gain": 2.5}, {"gain": [1.0, 0.5, -2.0, "2", False]}),
    "dephasing": (
        {"probs": [0.7, 0.2, 0.1], "dim": 3},
        {
            "probs": [[0.5, 0.4], [1.0], [0.5, 0.6, -0.1], [1.5, -0.5], 0.5, [0.5, "x"]],
            "dim": [2, 4, 1, 2.5, "3"],
        },
    ),
    "erasure": ({"p": 0.25, "dim": 4}, {"p": [-0.01, 1.01, "p"], "dim": [1, 0, 2.5, True]}),
    "multiband_lossy": (
        {"eta": 0.3, "bands": 3},
        {"eta": [0.0, 1.0, "x"], "bands": [0, -1, 2.5, "3", False]},
    ),
}
#: Parameter type of every JSON field name, for the ``qnetcap channel`` flags.
TYPE_OF = {p.name: p.type for kind in channels.KINDS.values() for p in kind.params}


def message(call):
    with pytest.raises((InvalidParameter, ValidationError)) as err:
        call()
    return str(err.value)


def one_edge_network(channel):
    """Network document whose one edge, e0, carries the channel object."""
    edge = {"id": "e0", "u": "a", "v": "b", "channel": channel}
    return json.dumps({"points": ["a", "b"], "alice": "a", "bob": "b", "edges": [edge]})


def network_message(channel):
    return message(lambda: parse_network(one_edge_network(channel)))


def cli_message(obj, capsys):
    """stderr of ``qnetcap channel`` given ``obj``'s fields as flags, or None
    when a value has no flag spelling."""
    argv = ["channel", "--kind", obj["kind"]]
    for name, value in obj.items():
        if name == "kind":
            continue
        values = value if TYPE_OF[name] is tuple else [value]
        number = int if TYPE_OF[name] is int else (int, float)
        if not isinstance(values, list) or not all(
            isinstance(v, number) and not isinstance(v, bool) for v in values
        ):
            return None
        argv += [f"--{name}", ",".join(map(repr, values))]
    assert main(argv) == 2
    return capsys.readouterr().err


class TestOneBuilderPerKind:
    """The public constructor, the JSON format and the CLI flags all reach
    one builder per kind: same spec, same messages."""

    @pytest.mark.parametrize("kind", CHANNEL_KINDS)
    def test_every_route_builds_the_same_spec(self, kind):
        args, _ = BUILDER_CASES[kind]
        obj = {"kind": kind, **args}
        specs = [
            getattr(channels, kind)(**args),
            channel_from_json(obj),
            parse_network(one_edge_network(obj)).edges[0].channel,
        ]
        for spec in specs[1:]:
            assert spec == specs[0]
            assert hash(spec) == hash(specs[0])
            assert repr(spec) == repr(specs[0])

    @pytest.mark.parametrize("kind", CHANNEL_KINDS)
    def test_bad_parameter_same_message_on_every_route(self, kind, capsys):
        args, bad = BUILDER_CASES[kind]
        for name, values in bad.items():
            for value in values:
                wrong = {**args, name: value}
                expected = message(lambda: getattr(channels, kind)(**wrong))
                obj = {"kind": kind, **wrong}
                assert message(lambda: channel_from_json(obj)) == f"channel: {expected}"
                assert network_message(obj) == f"edge 'e0': {expected}"
                cli = cli_message(obj, capsys)
                assert cli is None or cli == f"error: channel: {expected}\n"

    @pytest.mark.parametrize("kind", CHANNEL_KINDS)
    def test_missing_parameter_same_message_on_every_route(self, kind, capsys):
        args, _ = BUILDER_CASES[kind]
        for param in channels.KINDS[kind].params:
            if not param.required:
                continue
            rest = {k: v for k, v in args.items() if k != param.name}
            unset = {**rest, param.name: None}
            expected = f"{param.name}=None: is required for a {kind} channel"
            assert message(lambda: getattr(channels, kind)(**unset)) == expected
            obj = {"kind": kind, **rest}
            expected = f"missing field {param.name!r} for kind {kind!r}"
            assert message(lambda: channel_from_json(obj)) == f"channel: {expected}"
            assert network_message(obj) == f"edge 'e0': {expected}"
            assert cli_message(obj, capsys) == f"error: channel: {expected}\n"

    @pytest.mark.parametrize("kind", CHANNEL_KINDS)
    def test_foreign_field_same_message_on_every_route(self, kind, capsys):
        args, _ = BUILDER_CASES[kind]
        own = ("kind", *channels.KINDS[kind].names)
        foreign = [f.name for f in dataclasses.fields(ChannelSpec) if f.name not in own]
        assert foreign
        for name in foreign:
            value = [7] if TYPE_OF[name] is tuple else 7
            # The extra field is named wherever it stands among the others.
            for obj in (
                {"kind": kind, **args, name: value},
                {name: value, "kind": kind, **args},
            ):
                expected = f"unknown field {name!r} for kind {kind!r}"
                assert message(lambda: channel_from_json(obj)) == f"channel: {expected}"
                assert network_message(obj) == f"edge 'e0': {expected}"
                assert cli_message(obj, capsys) == f"error: channel: {expected}\n"


class TestClosedRoute:
    """A spec is made only by its kind's constructor: the class itself, and
    anything that would call it, raises ``TypeError``."""

    @pytest.mark.parametrize(
        "args, kwargs",
        [((), {}), (("lossy", 0.5), {}), ((), {"kind": "lossy", "eta": 0.5})],
        ids=["none", "positional", "keyword"],
    )
    def test_calling_the_class_raises(self, args, kwargs):
        with pytest.raises(TypeError) as err:
            ChannelSpec(*args, **kwargs)
        assert str(err.value) == CLOSED_ROUTE

    @pytest.mark.parametrize("kind", CHANNEL_KINDS)
    def test_replace_raises(self, kind):
        spec = getattr(channels, kind)(**BUILDER_CASES[kind][0])
        name = channels.KINDS[kind].names[0]
        with pytest.raises(TypeError) as err:
            dataclasses.replace(spec, **{name: getattr(spec, name)})
        assert str(err.value) == CLOSED_ROUTE

    @pytest.mark.parametrize("kind", CHANNEL_KINDS)
    @pytest.mark.parametrize(
        "clone", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_a_copy_is_the_same_spec(self, kind, clone):
        spec = getattr(channels, kind)(**BUILDER_CASES[kind][0])
        copied = clone(spec)
        assert type(copied) is ChannelSpec
        assert copied == spec
        assert hash(copied) == hash(spec)
        assert repr(copied) == repr(spec)
        assert capacity(copied) == capacity(spec)
