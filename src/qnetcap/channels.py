"""Closed-form two-way capacities of distillable point-to-point channels.

For the channel families handled here (pure-loss, quantum-limited amplifier,
qudit dephasing, qudit erasure, multiband pure-loss) the two-way quantum,
entanglement-distribution and secret-key capacities coincide, so a single
number in bits per channel use describes all three tasks.  All functions are
pure and operate on immutable values; they are safe to call concurrently.

Channel kinds: a kind is one :class:`ChannelKind` record in :data:`KINDS`.
The record lists the kind's parameters, each with the name shared by the
JSON field, the constructor argument and the CLI flag, the
:class:`ChannelSpec` attribute holding it, its type, its default and its
range check, and it gives the kind's capacity formula.  Spec validation,
:func:`capacity`, the network JSON format and the ``qnetcap channel`` flags
all read these records.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any, Callable

from .errors import InvalidParameter, ParameterRegimeWarning

LOSSY = "lossy"
AMPLIFIER = "amplifier"
DEPHASING = "dephasing"
ERASURE = "erasure"
MULTIBAND_LOSSY = "multiband_lossy"

#: Parameter types: one real number, one integer, a list of real numbers.
NUMBER = "number"
INTEGER = "integer"
NUMBERS = "numbers"

#: Absolute tolerance for capacity comparisons everywhere in the package.
#: Far above accumulated rounding of the few transcendental calls involved,
#: far below any physically meaningful distinction.
CAPACITY_TOL = 1e-9

_PROB_SUM_TOL = 1e-12
_LN2 = math.log(2.0)


def _require_finite(field, value):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidParameter(field, value, "must be a real number")
    if not math.isfinite(value):
        raise InvalidParameter(field, value, "must be finite")
    return float(value)


def _require_int(field, value, minimum):
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidParameter(field, value, "must be an integer")
    if value < minimum:
        raise InvalidParameter(field, value, f"must be >= {minimum}")
    return value


def _open_unit(field, value):
    value = _require_finite(field, value)
    if not 0.0 < value < 1.0:
        raise InvalidParameter(field, value, "must lie strictly inside (0, 1)")
    return value


def _unit(field, value):
    value = _require_finite(field, value)
    if not 0.0 <= value <= 1.0:
        raise InvalidParameter(field, value, "must lie in [0, 1]")
    return value


def _above_one(field, value):
    value = _require_finite(field, value)
    if not value > 1.0:
        raise InvalidParameter(field, value, "must be strictly greater than 1")
    return value


def _require_positive(field, value):
    value = _require_finite(field, value)
    if not value > 0.0:
        raise InvalidParameter(field, value, "must be positive")
    return value


def _distribution(field, values):
    try:
        values = tuple(values)
    except TypeError:
        raise InvalidParameter(field, values, "must be a list of numbers") from None
    probs = tuple(_unit(field, p) for p in values)
    if len(probs) < 2:
        raise InvalidParameter(field, probs, "needs at least two entries")
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


@dataclass(frozen=True)
class ChannelSpec:
    """Tagged description of one distillable channel.

    Exactly the fields belonging to ``kind`` (its :data:`KINDS` record) may
    be set; use the module constructors (:func:`lossy`, :func:`amplifier`,
    ...) rather than filling fields by hand.  Instances are immutable and
    validated on construction.
    """

    kind: str
    eta: float | None = None
    gain: float | None = None
    probs: tuple[float, ...] | None = None
    p_erase: float | None = None
    dim: int | None = None
    bands: int | None = None

    def __post_init__(self):
        try:
            kind = KINDS[self.kind]
        except (KeyError, TypeError):
            raise InvalidParameter(
                "kind", self.kind, f"must be one of {', '.join(CHANNEL_KINDS)}"
            ) from None
        for attr in kind.forbidden:
            if getattr(self, attr) is not None:
                raise InvalidParameter(
                    attr, getattr(self, attr), f"does not apply to a {self.kind} channel"
                )
        for param in kind.params:
            value = getattr(self, param.attr)
            if value is not None:
                object.__setattr__(self, param.attr, param.check(param.attr, value))
            elif param.required:
                raise InvalidParameter(
                    param.attr, None, f"is required for a {self.kind} channel"
                )
            else:
                object.__setattr__(self, param.attr, param.default)
        if kind.check is not None:
            kind.check(self)


@dataclass(frozen=True)
class Param:
    """One parameter of a channel kind.

    ``name`` is the JSON field, the constructor argument and the CLI flag;
    ``attr`` is the :class:`ChannelSpec` attribute holding the value.
    ``check(attr, value)`` returns the value normalised or raises
    :class:`InvalidParameter`.  An optional parameter left unset takes
    ``default``; a ``None`` default leaves it to the kind's ``check``.
    """

    name: str
    attr: str
    type: str  # NUMBER, INTEGER or NUMBERS
    check: Callable[[str, Any], Any]
    required: bool = True
    default: Any = None


@dataclass(frozen=True)
class ChannelKind:
    """One channel kind: its parameters and its capacity formula.

    ``check``, when given, enforces rules across parameters once each is
    valid.  ``forbidden`` lists the :class:`ChannelSpec` attributes that
    belong to other kinds and must stay unset.
    """

    name: str
    params: tuple[Param, ...]
    capacity: Callable[[ChannelSpec], float]
    check: Callable[[ChannelSpec], None] | None = None
    forbidden: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        own = {p.attr for p in self.params}
        attrs = [f.name for f in fields(ChannelSpec) if f.name != "kind"]
        object.__setattr__(self, "forbidden", tuple(a for a in attrs if a not in own))


def _check_dephasing(spec: ChannelSpec):
    if spec.dim is None:
        object.__setattr__(spec, "dim", len(spec.probs))
    elif spec.dim != len(spec.probs):
        raise InvalidParameter(
            "dim", spec.dim, f"must equal the number of probabilities ({len(spec.probs)})"
        )
    if max(spec.probs[1:]) > 0.5:
        # The qubit formula is usually quoted for flip probability <= 1/2;
        # the general entropy form is valid anyway, so accept but flag.
        warnings.warn(
            f"dephasing distribution {spec.probs} puts more than 1/2 on a phase rotation",
            ParameterRegimeWarning,
            stacklevel=4,
        )


_ETA = Param("eta", "eta", NUMBER, _open_unit)
_DIM_CHECK = partial(_require_int, minimum=2)

#: The channel kinds by name, in canonical order.  Each kind's public
#: constructor has the kind's name and takes its parameters by ``Param.name``.
KINDS = {
    kind.name: kind
    for kind in (
        ChannelKind(LOSSY, (_ETA,), lambda s: _pure_loss(s.eta)),
        ChannelKind(
            AMPLIFIER,
            (Param("gain", "gain", NUMBER, _above_one),),
            lambda s: _pure_loss(1.0 / s.gain),
        ),
        ChannelKind(
            DEPHASING,
            (
                Param("probs", "probs", NUMBERS, _distribution),
                Param("dim", "dim", INTEGER, _DIM_CHECK, required=False),
            ),
            # H({p_k}) <= log2 d mathematically; clamp the few-ulp rounding dip.
            lambda s: max(0.0, math.log2(s.dim) - shannon_entropy(s.probs)),
            check=_check_dephasing,
        ),
        ChannelKind(
            ERASURE,
            (
                Param("p", "p_erase", NUMBER, _unit),
                Param("dim", "dim", INTEGER, _DIM_CHECK, required=False, default=2),
            ),
            lambda s: (1.0 - s.p_erase) * math.log2(s.dim),
        ),
        ChannelKind(
            MULTIBAND_LOSSY,
            (_ETA, Param("bands", "bands", INTEGER, partial(_require_int, minimum=1))),
            lambda s: s.bands * _pure_loss(s.eta),
        ),
    )
}

CHANNEL_KINDS = tuple(KINDS)


def lossy(eta: float) -> ChannelSpec:
    """Pure-loss bosonic channel with transmissivity ``eta`` in (0, 1)."""
    return ChannelSpec(LOSSY, eta=eta)


def amplifier(gain: float) -> ChannelSpec:
    """Quantum-limited amplifier with gain strictly above 1."""
    return ChannelSpec(AMPLIFIER, gain=gain)


def dephasing(probs, dim: int | None = None) -> ChannelSpec:
    """Qudit dephasing channel with phase-flip distribution ``probs``.

    ``probs[k]`` is the probability of k phase rotations; the dimension is
    the length of the vector (``dim``, when given, must match it).
    """
    return ChannelSpec(DEPHASING, probs=probs, dim=dim)


def erasure(p: float, dim: int = 2) -> ChannelSpec:
    """Qudit erasure channel with erasure probability ``p`` in [0, 1].

    The full range of ``p`` is accepted even though the closed form is often
    quoted for p <= 1/2; the formula (1 - p) log2 d is stated without that
    restriction and stays non-negative on all of [0, 1].
    """
    return ChannelSpec(ERASURE, p_erase=p, dim=dim)


def multiband_lossy(eta: float, bands: int) -> ChannelSpec:
    """``bands`` independent pure-loss channels of equal transmissivity.

    Heterogeneous bands are modeled as parallel edges at the graph level,
    not here.
    """
    return ChannelSpec(MULTIBAND_LOSSY, eta=eta, bands=bands)


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy in bits, with H2(0) = H2(1) = 0 exactly."""
    p = _unit("p", p)
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def shannon_entropy(probs) -> float:
    """Shannon entropy in bits of a probability vector (0 log 0 := 0)."""
    values = [_require_finite("probs", p) for p in probs]
    for p in values:
        if p < 0.0:
            raise InvalidParameter("probs", p, "entries must be non-negative")
    total = math.fsum(values)
    if abs(total - 1.0) > _PROB_SUM_TOL:
        raise InvalidParameter("probs", tuple(values), f"must sum to 1 (got {total!r})")
    return -math.fsum(p * math.log2(p) for p in values if p > 0.0)


def capacity(spec: ChannelSpec) -> float:
    """Two-way capacity of ``spec`` in bits per channel use.

    Finite and non-negative for every valid spec; the open-interval
    constraints on eta and gain keep the lossy/amplifier formulas away from
    their divergence at zero effective loss.
    """
    return KINDS[spec.kind].capacity(spec)


def db_to_transmissivity(loss_db: float) -> float:
    """Convert a non-negative loss in dB to a transmissivity."""
    loss_db = _require_finite("loss_db", loss_db)
    if loss_db < 0.0:
        raise InvalidParameter("loss_db", loss_db, "must be non-negative")
    return 10.0 ** (-loss_db / 10.0)


def transmissivity_to_db(eta: float) -> float:
    """Convert a transmissivity in (0, 1] to its loss in dB."""
    eta = _require_finite("eta", eta)
    if not 0.0 < eta <= 1.0:
        raise InvalidParameter("eta", eta, "must lie in (0, 1]")
    return -10.0 * math.log10(eta)


def fiber_transmissivity(length_km: float, rate_db_per_km: float = 0.2) -> float:
    """Transmissivity of a fiber span at the given attenuation rate."""
    length_km = _require_finite("length_km", length_km)
    if length_km < 0.0:
        raise InvalidParameter("length_km", length_km, "must be non-negative")
    rate_db_per_km = _require_positive("rate_db_per_km", rate_db_per_km)
    return db_to_transmissivity(length_km * rate_db_per_km)
