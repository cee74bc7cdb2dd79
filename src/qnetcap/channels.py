"""Closed-form two-way capacities of distillable point-to-point channels.

For the channel families handled here (pure-loss, quantum-limited amplifier,
qudit dephasing, qudit erasure, multiband pure-loss) the two-way quantum,
entanglement-distribution and secret-key capacities coincide, so a single
number in bits per channel use describes all three tasks.  All functions are
pure and operate on immutable values; they are safe to call concurrently.

Channel kinds: a kind is one :class:`ChannelKind` record in :data:`KINDS`.
The record lists the kind's parameters, each with its one name (the JSON
field, the constructor argument, the :class:`ChannelSpec` attribute and the
CLI flag), its Python type, its default and its range check, and it gives
the kind's capacity formula.  Spec validation, :func:`capacity`, the
network JSON format and the ``qnetcap channel`` flags all read these
records.  Each record has one builder, :meth:`ChannelKind.build`, the only
place a spec's parameters are checked, and the kind's public constructor
(:func:`lossy`, :func:`amplifier`, ...) is the only way to call it: a
:class:`ChannelSpec` is never made by calling the class.  A probability
vector has one check too, shared by :func:`dephasing` and
:func:`shannon_entropy`; :func:`capacity` reads a spec's checked values
without checking them again.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from .errors import InvalidParameter

LOSSY = "lossy"
AMPLIFIER = "amplifier"
DEPHASING = "dephasing"
ERASURE = "erasure"
MULTIBAND_LOSSY = "multiband_lossy"

#: Fiber attenuation in dB/km assumed wherever a rate is not given.
FIBER_DB_PER_KM = 0.2

_PROB_SUM_TOL = 1e-12
_LN2 = math.log(2.0)
#: The smallest positive float and the largest float.
_TINY = math.ulp(0.0)
_FLOAT_MAX = sys.float_info.max


def _require_finite(field, value):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidParameter(field, value, "must be a real number")
    # A comparison, not math.isfinite: an int beyond float range fails here
    # instead of raising OverflowError.
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise InvalidParameter(field, value, "must be finite")
    return float(value)


def _require_int(field, value, minimum):
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidParameter(field, value, "must be an integer")
    if value < minimum:
        raise InvalidParameter(field, value, f"must be >= {minimum}")
    return value


def _interval(low, high, requirement):
    """The check ``check(field, value)`` of a finite real number in [low, high].

    ``low`` and ``high`` are floats.  An open end is the adjacent float, so
    (0, 1) is [ulp(0), 1 - 2**-53]; an unbounded end is the largest float,
    so inf fails as "must be finite".  The value is returned as a float;
    out of range, :class:`InvalidParameter` carries ``requirement``.
    """

    def check(field, value):
        # An exact float in range, the usual value, skips the general checks.
        if type(value) is float and low <= value <= high:
            return value
        value = _require_finite(field, value)
        if not low <= value <= high:
            raise InvalidParameter(field, value, requirement)
        return value

    return check


_open_unit = _interval(_TINY, 1.0 - 2.0**-53, "must lie strictly inside (0, 1)")
_unit = _interval(0.0, 1.0, "must lie in [0, 1]")
_above_one = _interval(1.0 + 2.0**-52, _FLOAT_MAX, "must be strictly greater than 1")
_require_positive = _interval(_TINY, _FLOAT_MAX, "must be positive")
_non_negative = _interval(0.0, _FLOAT_MAX, "must be non-negative")
_transmissivity = _interval(_TINY, 1.0, "must lie in (0, 1]")


def _distribution(field, values):
    try:
        probs = tuple(_unit(field, p) for p in values)
    except TypeError:  # not iterable
        raise InvalidParameter(field, values, "must be a list of numbers") from None
    total = math.fsum(probs)
    if abs(total - 1.0) > _PROB_SUM_TOL:
        raise InvalidParameter(field, probs, f"must sum to 1 (got {total!r})")
    return probs


def _pure_loss(eta: float) -> float:
    """-log2(1 - eta) for eta in [0, 1), accurate to a few ulps at any loss.

    log1p keeps the small-eta digits that 1 - eta rounds away: the naive form
    returns -0.0 from eta ~ 1e-16 (160 dB) down, where the value is eta/ln 2.
    """
    return -math.log1p(-eta) / _LN2


#: The slot-level constructor and setter of a frozen dataclass, bound once.
_new, _set = object.__new__, object.__setattr__


@dataclass(frozen=True, init=False)
class ChannelSpec:
    """Tagged description of one distillable channel.

    Made only by its kind's public constructor (:func:`lossy`,
    :func:`amplifier`, ...), which checks each of the kind's fields (its
    :data:`KINDS` record); the other kinds' fields read ``None``.
    Instances are immutable.  Calling the class, or
    :func:`dataclasses.replace` on a spec, raises :class:`TypeError`.
    """

    kind: str
    eta: float | None = None
    gain: float | None = None
    probs: tuple[float, ...] | None = None
    p: float | None = None
    dim: int | None = None
    bands: int | None = None

    # Without this, ChannelSpec() would make a spec with no kind, which a
    # QNetwork would accept and capacity() would then fail on.
    def __init__(self, *args, **kwargs):
        raise TypeError(f"a ChannelSpec is made by its kind's constructor: {', '.join(CHANNEL_KINDS)}")


@dataclass(frozen=True)
class Param:
    """One parameter of a channel kind.

    ``name`` is the JSON field, the constructor argument, the
    :class:`ChannelSpec` attribute and the CLI flag.  ``type`` is the type
    of a valid value: ``float``, ``int`` or ``tuple`` (of floats).
    ``check(name, value)`` returns the value normalised or raises
    :class:`InvalidParameter`.  An optional parameter left unset takes
    ``default``; a ``None`` default leaves it to the kind's ``check``.
    """

    name: str
    type: type
    check: Callable[[str, Any], Any]
    required: bool = True
    default: Any = None


@dataclass(frozen=True)
class ChannelKind:
    """One channel kind: its parameters and its capacity formula.

    ``check``, when given, enforces the kind's own rules once each
    parameter is valid.  ``names`` lists the kind's parameter names in
    order.  ``_plan`` holds each parameter's ``(name, check, required,
    default)``, the part of it :meth:`build` reads.
    """

    name: str
    params: tuple[Param, ...]
    capacity: Callable[[ChannelSpec], float]
    check: Callable[[ChannelSpec], None] | None = None
    names: tuple[str, ...] = field(init=False)
    _plan: tuple[tuple, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _set(self, "names", tuple(p.name for p in self.params))
        _set(self, "_plan", tuple((p.name, p.check, p.required, p.default) for p in self.params))

    def build(self, values) -> ChannelSpec:
        """The spec of this kind holding ``values``, checked once each.

        ``values`` gives one value per parameter, in order, ``None`` where
        unset.  Each ``Param.check`` runs once, an unset optional parameter
        takes its default and the kind's ``check`` runs last.  The spec is
        made without calling :class:`ChannelSpec`: only ``kind`` and the
        values set are stored on it, and its other fields read the class
        defaults (``None``).
        """
        spec = _new(ChannelSpec)
        _set(spec, "kind", self.name)
        for (name, check, required, default), value in zip(self._plan, values):
            if value is not None:
                _set(spec, name, check(name, value))
            elif required:
                raise InvalidParameter(name, None, f"is required for a {self.name} channel")
            elif default is not None:
                _set(spec, name, default)
        if self.check is not None:
            self.check(spec)
        return spec


def _check_dephasing(spec: ChannelSpec):
    dim = len(spec.probs)
    if dim < 2:
        raise InvalidParameter("probs", spec.probs, "needs at least two entries")
    if spec.dim is None:
        _set(spec, "dim", dim)
    elif spec.dim != dim:
        raise InvalidParameter("dim", spec.dim, f"must equal the number of probabilities ({dim})")


#: Pure loss is at most 53 bits, so fewer bands than this keep a multiband
#: capacity far inside float range.
_SAFE_BANDS = 10**306


def _multiband(spec: ChannelSpec) -> float:
    return spec.bands * _pure_loss(spec.eta)


def _check_multiband(spec: ChannelSpec):
    if spec.bands > _SAFE_BANDS:
        try:
            finite = math.isfinite(_multiband(spec))
        except OverflowError:  # the band count itself is beyond float range
            finite = False
        if not finite:
            raise InvalidParameter("bands", spec.bands, "too many bands for a float capacity")


def _amplifier(spec: ChannelSpec) -> float:
    """-log2(1 - 1/g), accurate to a few ulps at any gain g > 1."""
    gain = spec.gain
    if gain <= 2.0:
        # g - 1 is exact here (Sterbenz), while 1/g rounds and 1 - 1/g
        # magnifies that rounding as g nears 1.
        return math.log2(gain / (gain - 1.0))
    # Above 2, log2(g) - log2(g - 1) would cancel; 1/g is small and exact
    # to an ulp, and log1p keeps its digits.
    return _pure_loss(1.0 / gain)


_ETA = Param("eta", float, _open_unit)
_DIM_CHECK = partial(_require_int, minimum=2)

#: The channel kinds by name, in canonical order.  Each kind's public
#: constructor has the kind's name and takes its parameters by ``Param.name``.
KINDS = {
    kind.name: kind
    for kind in (
        ChannelKind(LOSSY, (_ETA,), lambda s: _pure_loss(s.eta)),
        ChannelKind(
            AMPLIFIER,
            (Param("gain", float, _above_one),),
            _amplifier,
        ),
        ChannelKind(
            DEPHASING,
            (
                Param("probs", tuple, _distribution),
                Param("dim", int, _DIM_CHECK, required=False),
            ),
            # H({p_k}) <= log2 d mathematically; clamp the few-ulp rounding dip.
            lambda s: max(0.0, math.log2(s.dim) - _entropy(s.probs)),
            check=_check_dephasing,
        ),
        ChannelKind(
            ERASURE,
            (
                Param("p", float, _unit),
                Param("dim", int, _DIM_CHECK, required=False, default=2),
            ),
            lambda s: (1.0 - s.p) * math.log2(s.dim),
        ),
        ChannelKind(
            MULTIBAND_LOSSY,
            (_ETA, Param("bands", int, partial(_require_int, minimum=1))),
            _multiband,
            check=_check_multiband,
        ),
    )
}

CHANNEL_KINDS = tuple(KINDS)


def lossy(eta: float) -> ChannelSpec:
    """Pure-loss bosonic channel with transmissivity ``eta`` in (0, 1)."""
    return KINDS[LOSSY].build((eta,))


def amplifier(gain: float) -> ChannelSpec:
    """Quantum-limited amplifier with gain strictly above 1."""
    return KINDS[AMPLIFIER].build((gain,))


def dephasing(probs, dim: int | None = None) -> ChannelSpec:
    """Qudit dephasing channel with phase-flip distribution ``probs``.

    ``probs[k]`` is the probability of k phase rotations; the dimension is
    the length of the vector (``dim``, when given, must match it).  Every
    distribution is accepted without a warning, also one with more than 1/2
    on a phase rotation: log2 d - H(probs) holds on the whole simplex.
    """
    return KINDS[DEPHASING].build((probs, dim))


def erasure(p: float, dim: int | None = None) -> ChannelSpec:
    """Qudit erasure channel with erasure probability ``p`` in [0, 1].

    An unset ``dim`` means a qubit.  All of [0, 1] is accepted for ``p``
    although the closed form is often quoted for p <= 1/2: (1 - p) log2 d
    is stated without that restriction and stays non-negative throughout.
    """
    return KINDS[ERASURE].build((p, dim))


def multiband_lossy(eta: float, bands: int) -> ChannelSpec:
    """``bands`` independent pure-loss channels of equal transmissivity.

    Heterogeneous bands are modeled as parallel edges at the graph level,
    not here.  A band count whose capacity is not a finite float is
    rejected.
    """
    return KINDS[MULTIBAND_LOSSY].build((eta, bands))


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy in bits, with H2(0) = H2(1) = 0 exactly."""
    p = _unit("p", p)
    if p == 0.0 or p == 1.0:
        return 0.0
    # log1p keeps the -p/ln 2 that 1 - p rounds away at small p.
    return -p * math.log2(p) - (1.0 - p) * math.log1p(-p) / _LN2


def shannon_entropy(probs) -> float:
    """Shannon entropy in bits of a probability vector (0 log 0 := 0)."""
    return _entropy(_distribution("probs", probs))


def _entropy(probs) -> float:
    # 0.0 - x, not -x: a point mass sums to 0.0 and must not read -0.0.
    return 0.0 - math.fsum(p * math.log2(p) for p in probs if p > 0.0)


def capacity(spec: ChannelSpec) -> float:
    """Two-way capacity of ``spec`` in bits per channel use.

    Finite and non-negative for every valid spec; the open-interval
    constraints on eta and gain keep the lossy/amplifier formulas away from
    their divergence at zero effective loss.
    """
    return KINDS[spec.kind].capacity(spec)


def db_to_transmissivity(loss_db: float) -> float:
    """Convert a non-negative loss in dB to a transmissivity.

    Beyond ~3,236 dB the transmissivity underflows to ``0.0``, which no
    channel accepts: a channel built from it names its own parameter.
    """
    loss_db = _non_negative("loss_db", loss_db)
    return 10.0 ** (-loss_db / 10.0)


def transmissivity_to_db(eta: float) -> float:
    """Convert a transmissivity in (0, 1] to its loss in dB."""
    # 0.0 - x, not -x: no loss reads 0.0, not -0.0.
    return 0.0 - 10.0 * math.log10(_transmissivity("eta", eta))


def fiber_transmissivity(length_km: float, rate_db_per_km: float = FIBER_DB_PER_KM) -> float:
    """Transmissivity of a fiber span at the given attenuation rate.

    A span whose loss in dB is beyond float range is rejected naming
    ``length_km``.  As in :func:`db_to_transmissivity`, a loss beyond
    ~3,236 dB reads ``0.0``, which no channel accepts.
    """
    length_km = _non_negative("length_km", length_km)
    rate_db_per_km = _require_positive("rate_db_per_km", rate_db_per_km)
    loss_db = length_km * rate_db_per_km
    if loss_db == math.inf:
        raise InvalidParameter("length_km", length_km, "puts the loss beyond float range")
    return db_to_transmissivity(loss_db)
