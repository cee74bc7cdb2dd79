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
    _open_unit,
    _pure_loss,
    _require_int,
    _require_positive,
    capacity,
    multiband_lossy,
    transmissivity_to_db,
)
from .errors import InvalidParameter


@dataclass(frozen=True)
class ChainCapacity:
    """Chain capacity together with the bottleneck link (lowest index on ties)."""

    value: float
    bottleneck_index: int


def chain_capacity(links: Sequence[ChannelSpec]) -> ChainCapacity:
    """Minimum link capacity of a chain of distillable channels."""
    links = tuple(links)
    if not links:
        raise InvalidParameter("links", links, "chain needs at least one link")
    caps = [capacity(link) for link in links]
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
    # 1 - eta**(1/(N+1)) via expm1 keeps precision when the root nears 1.
    one_minus_root = -math.expm1(math.log(eta_total) / (n_repeaters + 1))
    return -math.log2(one_minus_root)


def max_link_loss_for_rate(target_bits: float) -> float:
    """Largest per-link loss (dB) at which one link still reaches the target.

    Inverts -log2(1 - eta) = target; at 1 bit/use this is the 3 dB rule
    (3.0103 dB per link, about 15 km of standard fiber at 0.2 dB/km).
    """
    target_bits = _require_positive("target_bits", target_bits)
    eta_needed = 1.0 - 2.0 ** (-target_bits)
    if eta_needed <= 0.0:
        raise InvalidParameter(
            "target_bits", target_bits, "is too small to resolve in double precision"
        )
    return transmissivity_to_db(eta_needed)


def min_repeaters_for_rate(eta_total: float, target_bits: float) -> int:
    """Smallest repeater count whose equidistant chain meets the target rate.

    Direct integer ascent; the count stays small for any practical loss
    budget (under 64 even at 120 dB for a 1 bit/use target).
    """
    eta_total = _open_unit("eta_total", eta_total)
    target_bits = _require_positive("target_bits", target_bits)
    n = 0
    while equidistant_lossy_capacity(eta_total, n) < target_bits:
        n += 1
    return n


def asymptotic_repeater_dominant(eta_total: float, n_repeaters: int) -> float:
    """Many-repeater approximation log2(N) - log2(ln(1/eta)).

    Valid for N >> 1 at fixed total transmissivity; the capacity then grows
    logarithmically in the repeater count, independently of the loss.
    Requires N >= 1 (the approximation has no meaning at N = 0).
    """
    eta_total = _open_unit("eta_total", eta_total)
    n_repeaters = _require_int("n_repeaters", n_repeaters, 1)
    return math.log2(n_repeaters) - math.log2(math.log(1.0 / eta_total))


def asymptotic_loss_dominant(eta_total: float, n_repeaters: int) -> float:
    """High-loss approximation eta**(1/(N+1)) / ln 2.

    Valid when each link is very lossy; this is the fundamental rate-loss
    scaling (one nat per per-link transmissivity).  The 1/ln 2 factor is kept
    in full precision rather than the display rounding 1.44.
    """
    eta_total = _open_unit("eta_total", eta_total)
    n_repeaters = _require_int("n_repeaters", n_repeaters, 0)
    return eta_total ** (1.0 / (n_repeaters + 1)) / math.log(2.0)


def multiband_chain_capacity(links: Sequence[tuple[float, int]]) -> float:
    """Capacity of a chain whose links are multiband lossy channels.

    ``links`` holds (transmissivity, band count) pairs; the value is the
    minimum of the per-link capacities -M_i log2(1 - eta_i), equivalently
    -log2 of the largest (1 - eta_i)**M_i along the line.
    """
    links = tuple(links)
    if not links:
        raise InvalidParameter("links", links, "chain needs at least one link")
    return min(capacity(multiband_lossy(eta, bands)) for eta, bands in links)
