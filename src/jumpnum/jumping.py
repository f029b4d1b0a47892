"""Closed-formula enumeration of jumping numbers.

A positive rational is a jumping number supported at a vertex exactly
when an integer score -- the scaled candidate plus a valence correction,
minus one rounded-up term per branch -- lands in the vertex semigroup.
Candidates at a vertex all have the vertex's valuation as denominator, so
each support vertex is a plain scan over numerators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .graph import adjacency, branch
from .ideals import IdealSpec, JumpingSet
from .lattice import canonical
from .semigroups import branch_gcd, membership, vertex_semigroup

__all__ = [
    "ceil_positive",
    "branch_value",
    "jump_test_value",
    "jumping_numbers_at",
    "support_vertices",
    "jumping_numbers",
    "log_canonical_threshold",
]


def ceil_positive(x) -> int:
    """Round up to the nearest positive integer."""
    return max(math.ceil(x), 1)


def branch_value(ideal: IdealSpec, mu: int, nu: int) -> int:
    """Factorization-weighted valuation mass of the branch from mu towards nu."""
    v = ideal.table
    fac = ideal.factorization
    return sum(fac[i - 1] * v.entry(mu, i) for i in branch(ideal.graph, mu, nu))


@lru_cache(maxsize=4096)
def _vertex_context(ideal: IdealSpec, mu: int):
    """d_mu, the valence offset, one (s, w, s*d_mu) triple per branch (s its
    gcd, w its value) and the vertex semigroup."""
    dual = adjacency(ideal.graph)
    d_mu = ideal.valuations[mu - 1]
    terms = []
    for nu in dual.neighbors_of(mu):
        s = branch_gcd(ideal.table, ideal.graph, mu, nu)
        terms.append((s, branch_value(ideal, mu, nu), s * d_mu))
    offset = (dual.valence(mu) - 2) * ideal.table.entry(mu, mu)
    return d_mu, offset, tuple(terms), vertex_semigroup(ideal.table, ideal.graph, mu)


def _scores(offset: int, terms, ts: range) -> list[int]:
    """Scores of the candidates t/d_mu for t in ts: t plus the offset, minus
    s*max(ceil(w*t / (s*d_mu)), 1) per branch, all in integers."""
    scores = [t + offset for t in ts]
    for s, w, sd in terms:
        ceilings = [-(-w * t // sd) for t in ts]
        scores = [x - s * c if c > 1 else x - s for x, c in zip(scores, ceilings)]
    return scores


def jump_test_value(ideal: IdealSpec, mu: int, xi: Fraction) -> int:
    """Integer score whose semigroup membership decides whether xi is a
    jumping number supported at mu.

    Only candidates whose product with the vertex valuation is an integer
    are admissible; anything else is rejected rather than evaluated.
    """
    d_mu, offset, terms, _ = _vertex_context(ideal, mu)
    scaled = xi * d_mu
    if scaled.denominator != 1:
        raise ValueError(
            f"{xi} is not a candidate at vertex {mu}: {xi}*{d_mu} is not an integer"
        )
    t = int(scaled)
    return _scores(offset, terms, range(t, t + 1))[0]


def _semigroup_scan(ideal: IdealSpec, mu: int, bound: Fraction) -> list[int]:
    """Numerators t of the jumping numbers t/d_mu <= bound supported at mu."""
    d_mu, offset, terms, semigroup = _vertex_context(ideal, mu)
    ts = range(1, math.floor(bound * d_mu) + 1)
    return [t for t, x in zip(ts, _scores(offset, terms, ts)) if membership(semigroup, x)]


def jumping_numbers_at(ideal: IdealSpec, mu: int, bound) -> JumpingSet:
    """Jumping numbers supported at one vertex, up to and including bound."""
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("bound must be positive")
    d_mu = ideal.valuations[mu - 1]
    support = frozenset({mu})
    return JumpingSet(
        tuple((Fraction(t, d_mu), support) for t in _semigroup_scan(ideal, mu, bound))
    )


def support_vertices(ideal: IdealSpec) -> frozenset:
    """Vertices that can support a jumping number: the stars of the dual
    graph and the vertices carrying a simple factor."""
    dual = adjacency(ideal.graph)
    return frozenset(
        mu
        for mu in range(1, ideal.graph.n + 1)
        if dual.valence(mu) >= 3 or ideal.factorization[mu - 1] > 0
    )


def jumping_numbers(ideal: IdealSpec, bound) -> JumpingSet:
    """All jumping numbers up to the bound, with supporting vertices."""
    bound = Fraction(bound)
    support = sorted(support_vertices(ideal))
    # t/d_mu == key/lcm with key = t*(lcm // d_mu): an exact integer sort key.
    lcm = math.lcm(*(ideal.valuations[mu - 1] for mu in support))
    merged: dict[int, list] = {}
    for mu in support:
        scale = lcm // ideal.valuations[mu - 1]
        for t in _semigroup_scan(ideal, mu, bound):
            merged.setdefault(t * scale, []).append(mu)
    return JumpingSet(
        tuple((Fraction(key, lcm), frozenset(merged[key])) for key in sorted(merged))
    )


def log_canonical_threshold(ideal: IdealSpec) -> Fraction:
    """Smallest jumping number: min over the vertices of (k_i + 1) / d_i,
    with k the canonical divisor in E-coordinates and d the valuations."""
    k = canonical(ideal.graph).k
    return min(Fraction(k_i + 1, d_i) for k_i, d_i in zip(k, ideal.valuations))
