"""Multiplier-ideal ground truth for differential testing.

This module detects jumping numbers the slow, definitional way: the
multiplier ideal at a parameter is the complete ideal cut out by the
rounded-down scaled divisor minus the canonical divisor, realized as the
antinef closure of its effective part.  A parameter jumps exactly when
that ideal differs from the one at the left limit.  Nothing here touches
the semigroup machinery or the closed formula, so agreement between the
two pipelines is meaningful evidence for both.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .ideals import IdealSpec, JumpingSet
from .lattice import Basis, Divisor, antinef_closure, canonical, is_antinef, to_basis

__all__ = [
    "MultiplierIdealResult",
    "multiplier_divisor",
    "is_jumping_number",
    "oracle_jumping_numbers",
    "jumping_number_of_divisor",
    "semigroup_bruteforce",
]


@dataclass(frozen=True)
class MultiplierIdealResult:
    """Factorization-basis divisor of a multiplier ideal at a parameter."""

    xi: Fraction
    divisor: Divisor  # antinef, in the dual basis


def _floors(valuations, p: int, q: int, left: bool = False) -> tuple[int, ...]:
    """Floors of (p/q)*d over the valuations d, or with ``left`` just below
    p/q, where exact integers step down: floor((a-1)/q) for a = p*d."""
    shift = 1 if left else 0
    return tuple((p * d - shift) // q for d in valuations)


def _closure(ideal: IdealSpec, k: tuple[int, ...], floors) -> tuple[int, ...]:
    """E-coordinates of the antinef closure of floors - k, negatives clamped."""
    raw = Divisor(tuple(map(operator.sub, floors, k)), Basis.E)
    return antinef_closure(raw, ideal.graph).int_coords()


def multiplier_divisor(ideal: IdealSpec, xi) -> MultiplierIdealResult:
    """Divisor of the multiplier ideal at a nonnegative parameter."""
    xi = Fraction(xi)
    if xi < 0:
        raise ValueError("parameter must be nonnegative")
    k = canonical(ideal.graph).k
    e_coords = _closure(ideal, k, _floors(ideal.valuations, xi.numerator, xi.denominator))
    hat = to_basis(Divisor(e_coords, Basis.E), Basis.E_HAT, ideal.graph)
    return MultiplierIdealResult(xi, hat)


def is_jumping_number(ideal: IdealSpec, xi) -> bool:
    """Does the multiplier ideal strictly shrink at xi?"""
    xi = Fraction(xi)
    if xi <= 0:
        raise ValueError("parameter must be positive")
    k = canonical(ideal.graph).k
    d, p, q = ideal.valuations, xi.numerator, xi.denominator
    at = _closure(ideal, k, _floors(d, p, q))
    before = _closure(ideal, k, _floors(d, p, q, left=True))
    return at != before


def jumping_number_of_divisor(ideal: IdealSpec, divisor: Divisor):
    """Jumping number realized by an antinef divisor, with its support.

    Returns the minimum over vertices of (coordinate + canonical + 1) over
    the valuation, together with the set of minimizing vertices.
    """
    if not is_antinef(divisor, ideal.graph):
        raise ValueError("divisor is not antinef")
    e = to_basis(divisor, Basis.E, ideal.graph).int_coords()
    k = canonical(ideal.graph).k
    # (numerator, valuation) per vertex; the least ratio by cross-multiplying
    pairs = [(f + kv + 1, d) for f, kv, d in zip(e, k, ideal.valuations)]
    a, b = pairs[0]
    for x, d in pairs:
        if x * b < a * d:
            a, b = x, d
    support = frozenset(nu for nu, (x, d) in enumerate(pairs, start=1) if x * b == a * d)
    return Fraction(a, b), support


def oracle_jumping_numbers(ideal: IdealSpec, bound) -> JumpingSet:
    """Scan every admissible candidate and test each for a jump.

    Candidates run over all vertices (not just the stars and factor
    vertices), so the scan is independent of the support argument used by
    the closed formula.  A candidate t/d is the integer key t*(L // d) over
    L, the lcm of the valuations.
    """
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("bound must be positive")
    lcm = math.lcm(*ideal.valuations)
    keys = sorted(
        {
            t * (lcm // d)
            for d in ideal.valuations
            for t in range(1, bound.numerator * d // bound.denominator + 1)
        }
    )
    k = canonical(ideal.graph).k
    cache: dict[tuple[int, ...], tuple[int, ...]] = {}

    def closure(floors):
        result = cache.get(floors)
        if result is None:
            result = cache[floors] = _closure(ideal, k, floors)
        return result

    entries = []
    for key in keys:
        before = closure(_floors(ideal.valuations, key, lcm, left=True))
        if closure(_floors(ideal.valuations, key, lcm)) != before:
            _, support = jumping_number_of_divisor(ideal, Divisor(before, Basis.E))
            entries.append((Fraction(key, lcm), support))
    return JumpingSet(tuple(entries))


def semigroup_bruteforce(generators, limit: int) -> list[bool]:
    """Membership table 0..limit of the monoid the generators span,
    by exhaustive closure under addition."""
    gens = sorted(set(int(g) for g in generators))
    if not gens or gens[0] < 1:
        raise ValueError("generators must be positive integers")
    if limit < 0:
        return []
    members = [False] * (limit + 1)
    members[0] = True
    for x in range(1, limit + 1):
        members[x] = any(g <= x and members[x - g] for g in gens)
    return members
