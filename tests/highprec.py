"""Independent high-precision oracles used by the test suite.

Everything here is evaluated with the decimal module at 50 significant
digits, from the defining formulas directly, so the values are independent
of the float paths in the package.
"""

import math
from decimal import Decimal, getcontext, localcontext

getcontext().prec = 50

_LN2 = Decimal(2).ln()


def hp_log2(x: Decimal) -> Decimal:
    return x.ln() / _LN2


def hp_plob(eta) -> Decimal:
    """Point-to-point lossy capacity -log2(1 - eta)."""
    return -hp_log2(1 - Decimal(str(eta)))


def hp_equidistant(loss_db, n_repeaters) -> Decimal:
    """-log2(1 - eta**(1/(N+1))) with eta = 10**(-dB/10), all in Decimal."""
    eta = Decimal(10) ** (-Decimal(str(loss_db)) / 10)
    root = eta ** (Decimal(1) / Decimal(n_repeaters + 1))
    return -hp_log2(1 - root)


def hp_equidistant_eta(eta, n_repeaters) -> Decimal:
    """-log2(1 - eta**(1/(N+1))), a float ``eta`` taken at its exact binary value."""
    eta = Decimal(eta)
    # Enough digits that 1 - root keeps all of the root, which is >= eta,
    # and that a root as near 1 as |ln eta| / (N + 1) keeps all of 1 - root.
    with localcontext() as ctx:
        ctx.prec += max(0, -eta.adjusted()) + len(str(n_repeaters))
        root = eta if n_repeaters == 0 else (eta.ln() / (n_repeaters + 1)).exp()
        return -hp_log2(1 - root)


def hp_db_to_transmissivity(loss_db) -> Decimal:
    """10**(-dB/10), a float loss taken at its exact binary value."""
    return Decimal(10) ** (-Decimal(loss_db) / 10)


def hp_transmissivity_to_db(eta) -> Decimal:
    """-10 log10(eta), a float ``eta`` taken at its exact binary value."""
    return -10 * Decimal(eta).log10()


def hp_max_link_loss(target_bits) -> Decimal:
    """Loss in dB at which -log2(1 - eta) = target: eta = 1 - 2**-target,
    a float target taken at its exact binary value."""
    target = Decimal(target_bits)
    # Enough digits that eta keeps all of 2**-t while the loss is a float
    # (t below ~1,080; beyond 1,100 the loss is below half the smallest
    # subnormal and reads 0), and all of eta ~ t ln 2 when t is small.
    with localcontext() as ctx:
        ctx.prec += int(min(target, 1100) * Decimal("0.302")) + 1 + max(0, -target.adjusted())
        eta = 1 - Decimal(2) ** -target
        return -10 * eta.log10()


def hp_binary_entropy(p) -> Decimal:
    """H2 of ``p`` (a float is taken at its exact binary value)."""
    p = Decimal(p)
    if p == 0 or p == 1:
        return Decimal(0)
    # Enough digits that 1 - p keeps all of p, however small.
    with localcontext() as ctx:
        ctx.prec += max(0, -p.adjusted())
        q = 1 - p
        q_term = q * hp_log2(q)
    return -(p * hp_log2(p) + q_term)


def hp_amplifier(gain) -> Decimal:
    """Amplifier capacity log2(g / (g - 1)) = -log2(1 - 1/g), g exact."""
    gain = Decimal(gain)
    # Enough digits that g / (g - 1) keeps all of its 1/(g - 1), however
    # large g is.
    with localcontext() as ctx:
        ctx.prec += max(0, gain.adjusted())
        return hp_log2(gain / (gain - 1))


def hp_erasure(p, dim) -> Decimal:
    """Erasure capacity (1 - p) log2(d), a float ``p`` taken at its exact binary value."""
    return (1 - Decimal(p)) * hp_log2(Decimal(dim))


def hp_shannon_entropy(probs) -> Decimal:
    """-sum p log2 p, a float entry taken at its exact binary value and a
    string entry at its decimal one."""
    total = Decimal(0)
    for p in probs:
        p = Decimal(p)
        if p > 0:
            total -= p * hp_log2(p)
    return total


def hp_loss_dominant(eta, n_repeaters) -> Decimal:
    """High-loss approximation eta**(1/(N+1)) / ln 2, a float ``eta`` taken
    at its exact binary value and N exact."""
    return (Decimal(eta).ln() / (n_repeaters + 1)).exp() / _LN2


def hp_repeater_dominant_terms(eta, n_repeaters) -> tuple[Decimal, Decimal]:
    """log2(N) and log2(ln(1/eta)), whose difference is the many-repeater
    approximation; a float ``eta`` taken at its exact binary value."""
    return hp_log2(Decimal(n_repeaters)), hp_log2(-Decimal(eta).ln())


def agrees(value: float, exact: Decimal, rel_tol: float = 1e-13) -> bool:
    """``value`` is within ``rel_tol`` of ``exact``, or within a few ulps of
    0.0 where the answer is subnormal: a subnormal holds fewer digits."""
    return math.isclose(value, float(exact), rel_tol=rel_tol, abs_tol=4 * math.ulp(0.0))
