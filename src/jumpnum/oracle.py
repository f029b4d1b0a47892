"""Multiplier-ideal ground truth for differential testing.

This module detects jumping numbers the slow, definitional way: the
multiplier ideal at a parameter is the complete ideal cut out by the
rounded-down scaled divisor minus the canonical divisor, realized as the
antinef closure of its effective part.  A parameter jumps exactly when
that ideal differs from the one at the left limit.  The scan computes
each multiplier ideal once, warm-started from the one before it, by
unloading int E-coordinates (``Divisor`` appears only in the public
functions); the pointwise checks recompute both sides from scratch.
Nothing here touches the semigroup machinery or the closed formula, so
agreement between the two pipelines is meaningful evidence for both.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .graph import _integral
from .ideals import IdealSpec, JumpingSet
from .lattice import Basis, Divisor, _unload, canonical, is_antinef, to_basis

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


def _closure(ideal: IdealSpec, floors) -> tuple[int, ...]:
    """E-coordinates of the antinef closure of floors - K, negatives clamped."""
    return _unload(ideal.graph, tuple(map(operator.sub, floors, canonical(ideal.graph).k)))


def multiplier_divisor(ideal: IdealSpec, xi) -> MultiplierIdealResult:
    """Divisor of the multiplier ideal at a nonnegative parameter."""
    xi = Fraction(xi)
    if xi < 0:
        raise ValueError("parameter must be nonnegative")
    e_coords = _closure(ideal, _floors(ideal.valuations, xi.numerator, xi.denominator))
    hat = to_basis(Divisor(e_coords, Basis.E), Basis.E_HAT, ideal.graph)
    return MultiplierIdealResult(xi, hat)


def is_jumping_number(ideal: IdealSpec, xi) -> bool:
    """Does the multiplier ideal strictly shrink at xi?"""
    xi = Fraction(xi)
    if xi <= 0:
        raise ValueError("parameter must be positive")
    d, p, q = ideal.valuations, xi.numerator, xi.denominator
    return _closure(ideal, _floors(d, p, q)) != _closure(ideal, _floors(d, p, q, left=True))


def jumping_number_of_divisor(ideal: IdealSpec, divisor: Divisor):
    """Jumping number realized by an antinef divisor, with its support.

    Returns the minimum over vertices of (coordinate + canonical + 1) over
    the valuation, together with the set of minimizing vertices.
    """
    if not is_antinef(divisor, ideal.graph):
        raise ValueError("divisor is not antinef")
    e = to_basis(divisor, Basis.E, ideal.graph).int_coords()
    a, b, support = _least_ratio(e, canonical(ideal.graph).k, ideal.valuations)
    return Fraction(a, b), support


def _least_ratio(e, k, valuations):
    """Least (e_i + k_i + 1) / d_i as (numerator, denominator, argmin set)."""
    pairs = [(f + kv + 1, d) for f, kv, d in zip(e, k, valuations)]
    a, b = pairs[0]
    for x, d in pairs:
        if x * b < a * d:
            a, b = x, d
    support = frozenset(nu for nu, (x, d) in enumerate(pairs, start=1) if x * b == a * d)
    return a, b, support


def oracle_jumping_numbers(ideal: IdealSpec, bound) -> JumpingSet:
    """Sweep the admissible candidates in order, carrying one multiplier
    ideal forward, and record each candidate where it shrinks.

    Candidates run over all vertices (not just the stars and factor
    vertices), so the scan is independent of the support argument used by
    the closed formula.  A candidate t/d is the integer key t*(L // d) over
    L, the lcm of the valuations.  Floors are constant between consecutive
    keys, so the left limit at a key is the closure at the previous key
    (the zero divisor, i.e. the whole ring, before the first).  Closure is
    monotone, so that left limit also warm-starts the closure at the key.
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
    before = (0,) * len(k)
    entries = []
    for key in keys:
        raw = map(operator.sub, _floors(ideal.valuations, key, lcm), k)
        at = _unload(ideal.graph, tuple(map(max, raw, before)))
        if at != before:
            entries.append((Fraction(key, lcm), _least_ratio(before, k, ideal.valuations)[2]))
        before = at
    return JumpingSet(tuple(entries))


def semigroup_bruteforce(generators, limit: int) -> list[bool]:
    """Membership table 0..limit of the monoid the generators span,
    by exhaustive closure under addition."""
    gens = sorted(set(map(_integral, generators)))
    if not gens or gens[0] < 1:
        raise ValueError("generators must be positive integers")
    if limit < 0:
        return []
    members = [False] * (limit + 1)
    members[0] = True
    for x in range(1, limit + 1):
        members[x] = any(g <= x and members[x - g] for g in gens)
    return members
