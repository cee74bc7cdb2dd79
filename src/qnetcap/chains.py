"""Capacities of linear repeater chains.

A chain of N repeaters is N+1 channels in series; its end-to-end capacity is
the minimum of the individual link capacities.  This module also covers the
equidistant-split optimum for a lossy line, the 3 dB budgeting rule, the two
asymptotic regimes, and chains of multiband lossy links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .channels import (
    ChannelSpec,
    _LN2,
    _open_unit,
    _pure_loss,
    _require_int,
    _require_positive,
    capacity,
    multiband_lossy,
)
from .errors import InvalidParameter

_LN10 = math.log(10.0)
_LN_LN2 = math.log(_LN2)


@dataclass(frozen=True)
class ChainCapacity:
    """Chain capacity together with the bottleneck link (lowest index on ties)."""

    value: float
    bottleneck_index: int


def chain_capacity(links: Sequence[ChannelSpec]) -> ChainCapacity:
    """Minimum link capacity of a chain of distillable channels."""
    caps = [capacity(link) for link in links]
    if not caps:
        raise InvalidParameter("links", (), "chain needs at least one link")
    index = min(range(len(caps)), key=caps.__getitem__)
    return ChainCapacity(value=caps[index], bottleneck_index=index)


def equidistant_lossy_capacity(eta_total: float, n_repeaters: int) -> float:
    """Capacity of a lossy line split by N equidistant repeaters.

    Equidistant placement is the optimal split of a line of total
    transmissivity ``eta_total`` into N+1 links, giving the per-link
    transmissivity ``eta_total**(1/(N+1))``.  At N = 0 this is the
    point-to-point bound -log2(1 - eta_total).
    """
    eta_total = _open_unit("eta_total", eta_total)
    n_repeaters = _require_int("n_repeaters", n_repeaters, 0)
    if n_repeaters == 0:
        return _pure_loss(eta_total)
    return _link_capacities([math.log(eta_total)], n_repeaters + 1)[0]


def _link_capacities(log_etas, links: int) -> list[float]:
    """-log2(1 - root) of one of ``links`` equal links, root = eta**(1/links) < 1, per line.

    ``log_etas`` holds ln(eta) of each line.  :func:`equidistant_lossy_capacity`
    passes one value, and the CSV commands a chunk's column for each N >= 1
    with ``links = N + 1``, so the library and the CSV cells share one
    formula.  ``links`` may be an int beyond float range.  The column is one
    comprehension, with no list of roots built on the way.
    """
    # log_eta / float(links) is log_eta / links, bit for bit.  From 2**1023
    # links on (also past float range), |ln(root)| <= 745 / 2**1023 takes
    # the last branch, which reads ``links`` itself.
    scale = float(min(links, 2**1023))
    return [
        # A root below 1/2: log1p keeps the digits 1 - root rounds away.
        _pure_loss(math.exp(log_root)) if log_root < -_LN2
        # 1 - eta**(1/(N+1)) via expm1 keeps precision when the root nears 1.
        else -math.log2(-math.expm1(log_root)) if log_root <= -(2.0**-50)
        # x = -ln(root) = |ln eta| / links < 2**-50, where 1 - root = x to
        # first order but x may be subnormal or not a float at all: -log2(x),
        # to an ulp, from the logs of its two factors.
        else math.log2(links) - math.log2(-log_eta)
        for log_eta in log_etas
        for log_root in (log_eta / scale,)
    ]


def max_link_loss_for_rate(target_bits: float) -> float:
    """Largest per-link loss (dB) at which one link still reaches the target.

    Inverts -log2(1 - eta) = target: the loss is -10 log10(1 - 2**-t), from
    ln(1 - 2**-t), so it keeps its digits above 53 bits too, where 1 - 2**-t
    rounds to 1.  At 1 bit/use this is the 3 dB rule (3.0103 dB per link,
    about 15 km of standard fiber at 0.2 dB/km).
    """
    target_bits = _require_positive("target_bits", target_bits)
    return -10.0 * _log_keep(target_bits) / _LN10


def _log_keep(target_bits: float) -> float:
    """ln(1 - 2**-t): expm1 keeps small targets' digits, log1p large ones'.

    Below 2**-60 it is ln(t ln 2), exact to first order: t ln 2 itself can
    be subnormal and lose digits, so ln t is taken instead.  -0.0 once
    2**-t underflows (t > 1074), so a loss from it reads 0.0.
    """
    if target_bits < 2.0**-60:
        return math.log(target_bits) + _LN_LN2
    if target_bits < 1.0:
        return math.log(-math.expm1(-target_bits * _LN2))
    return math.log1p(-(2.0**-target_bits))


def min_repeaters_for_rate(eta_total: float, target_bits: float) -> int:
    """Smallest repeater count whose equidistant chain meets the target rate.

    The returned N satisfies ``equidistant_lossy_capacity(eta_total, N) >=
    target_bits`` and, for N > 0, N - 1 does not.  Up to rounding N is
    ceil(ln eta / log(1 - 2**-t)) - 1, which grows like 2**t.  The search
    climbs from there in doubling steps until the target is met, then
    bisects against :func:`equidistant_lossy_capacity`, so it makes
    O(log N) calls.  Raises :class:`InvalidParameter` when the count is
    beyond float range, which includes every target at which 2**-t
    underflows to 0 (t > 1074).
    """
    eta_total = _open_unit("eta_total", eta_total)
    target_bits = _require_positive("target_bits", target_bits)

    def meets(n):
        return equidistant_lossy_capacity(eta_total, n) >= target_bits

    try:
        estimate = math.ceil(math.log(eta_total) / _log_keep(target_bits)) - 1
        # ``low`` misses the target (-1 stands for no count), ``high`` meets it.
        low, high, step = -1, max(0, estimate), 1
        while not meets(high):
            low, high, step = high, high + step, 2 * step
        while high - low > 1:
            middle = (low + high) // 2
            if meets(middle):
                high = middle
            else:
                low = middle
    except (OverflowError, ZeroDivisionError):
        raise InvalidParameter(
            "target_bits", target_bits, "needs more repeaters than a float can count"
        ) from None
    return high


def asymptotic_repeater_dominant(eta_total: float, n_repeaters: int) -> float:
    """Many-repeater approximation log2(N) - log2(ln(1/eta)).

    Valid for N >> 1 at fixed total transmissivity; the capacity then grows
    logarithmically in the repeater count, independently of the loss.
    Requires N >= 1 (the approximation has no meaning at N = 0).
    """
    eta_total = _open_unit("eta_total", eta_total)
    n_repeaters = _require_int("n_repeaters", n_repeaters, 1)
    # -ln(eta), not ln(1/eta): 1/eta rounds, and near eta = 1 that rounding
    # is all of ln(1/eta).
    return math.log2(n_repeaters) - math.log2(-math.log(eta_total))


def asymptotic_loss_dominant(eta_total: float, n_repeaters: int) -> float:
    """High-loss approximation eta**(1/(N+1)) / ln 2.

    Valid when each link is very lossy; this is the fundamental rate-loss
    scaling (one nat per per-link transmissivity).  The 1/ln 2 factor is kept
    in full precision rather than the display rounding 1.44.
    """
    eta_total = _open_unit("eta_total", eta_total)
    n_repeaters = _require_int("n_repeaters", n_repeaters, 0)
    # int / int rounds once, also when N + 1 is beyond float range.
    return eta_total ** (1 / (n_repeaters + 1)) / _LN2


def multiband_chain_capacity(links: Sequence[tuple[float, int]]) -> float:
    """Capacity of a chain whose links are multiband lossy channels.

    ``links`` holds (transmissivity, band count) pairs; the value is the
    minimum of the per-link capacities -M_i log2(1 - eta_i), equivalently
    -log2 of the largest (1 - eta_i)**M_i along the line.
    """
    return chain_capacity([multiband_lossy(eta, bands) for eta, bands in links]).value
