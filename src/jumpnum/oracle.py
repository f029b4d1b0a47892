"""Multiplier-ideal ground truth for differential testing.

This module detects jumping numbers the slow, definitional way: the
multiplier ideal at a parameter is the complete ideal cut out by the
rounded-down scaled divisor minus the canonical divisor, realized as the
antinef closure of its effective part.  A parameter jumps exactly when
that ideal differs from the one at the left limit.  The scan sweeps the
candidates in order and carries one closure forward: at each candidate it
raises only the vertices whose floor steps and resumes unloading from the
entries that raise disturbs, and it reads each jump and its support off
the raise.  The pointwise checks recompute both sides from scratch.  All
of it unloads plain int E-coordinates (``Divisor`` appears only in the
public functions).  Nothing here touches the semigroup machinery or the
closed formula, so agreement between the two pipelines is meaningful
evidence for both.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .graph import _integral, adjacency
from .ideals import IdealSpec, JumpingSet
from .lattice import Basis, Divisor, _settle, _unload, canonical, is_antinef, to_basis

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
    the closed formula.  Floors are constant between consecutive
    candidates, so the left limit e at a candidate xi is the closure at the
    previous one (zero, i.e. the whole ring, before the first).  At xi the
    floor of vertex i steps by one exactly when xi*d_i is an integer; where
    the new floor minus k_i exceeds e_i, the sweep raises that coordinate
    by one and resumes unloading from the neighbours it disturbs.  That is
    exact because unloading is monotone: closure(D') equals
    closure(max(D', closure(D))) for D <= D'.

    xi is a jump exactly when some vertex was raised, and the raised
    vertices are its support, the argmin set of (e_i + k_i + 1) / d_i.
    Proof: e_i >= ceil(xi*d_i) - 1 - k_i, the floor just below xi minus
    k_i, so every ratio is at least xi.  Equality holds exactly where
    xi*d_i is an integer and e_i = xi*d_i - 1 - k_i, which are the raised
    vertices.  With none raised the closure is e again; with one raised it
    has grown.
    """
    return JumpingSet(
        [(key, frozenset(raised)) for key, raised, _ in _sweep(ideal, bound) if raised],
        math.lcm(*ideal.valuations),
    )


def _sweep(ideal: IdealSpec, bound):
    """Yield (key, raised, g) at each candidate t/d up to the bound.

    The key is t*(L // d) over L, the lcm of the valuations; vertices that
    share a valuation share their keys.  ``raised`` lists the vertices
    (1-based) whose coordinate the floors raised at the key, and ``g`` is
    the closure there in E-coordinates, a list the sweep keeps updating.
    """
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("bound must be positive")
    lcm = math.lcm(*ideal.valuations)
    by_value: dict[int, list[int]] = {}
    for i, d in enumerate(ideal.valuations):
        by_value.setdefault(d, []).append(i)
    events: dict[int, list[int]] = {}
    for d, vertices in by_value.items():
        for t in range(1, bound.numerator * d // bound.denominator + 1):
            events.setdefault(t * (lcm // d), []).extend(vertices)
    dual = adjacency(ideal.graph)
    weights, neighbors = dual.weights, dual.neighbors
    raw = [-kv for kv in canonical(ideal.graph).k]  # floors minus K
    g = [0] * len(raw)
    ghat = [0] * len(raw)
    for key in sorted(events):
        raised, pending = [], []
        for i in events[key]:
            raw[i] += 1
            if raw[i] > g[i]:
                g[i] += 1
                ghat[i] += weights[i]
                raised.append(i + 1)
                for nu in neighbors[i]:
                    ghat[nu - 1] -= 1
                    if ghat[nu - 1] < 0:
                        pending.append(nu - 1)
        _settle(g, ghat, pending, dual)
        yield key, raised, g


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
