"""Closed-formula enumeration of jumping numbers.

A positive rational is a jumping number supported at a vertex exactly
when an integer score -- the scaled candidate plus a valence correction,
minus one rounded-up term per branch -- lands in the vertex semigroup.
Candidates at a vertex share its valuation as denominator, so each support
vertex is a plain scan over numerators, its branches of value 0 folded into
one constant; its keys over one lcm share one support, unioned where vertices
meet.  A vertex without a factor whose scores all lie below zero is not
scanned.  Contexts come afresh per call from a row of V: no cache, no walk.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .graph import adjacency, branch
from .ideals import IdealSpec, JumpingSet
from .lattice import canonical, valuation_table
from .semigroups import NumericalSemigroup, membership

__all__ = [
    "branch_value",
    "jump_test_value",
    "jumping_numbers_at",
    "support_vertices",
    "jumping_numbers",
    "log_canonical_threshold",
]


def branch_value(ideal: IdealSpec, mu: int, nu: int) -> int:
    """Factorization-weighted valuation mass of the branch from mu towards nu."""
    row = valuation_table(ideal.graph).row(mu)
    return sum(ideal.factorization[i - 1] * row[i - 1] for i in branch(ideal.graph, mu, nu))


def _vertex_context(ideal: IdealSpec, mu: int):
    """d_mu, the valence offset, a (s, w, s*d_mu) triple per branch and the semigroup,
    off row mu alone: towards a neighbour nu, s = gcd(v(mu,mu), v(mu,nu)) and
    w = v(mu,mu) d_nu - d_mu v(mu,nu).  Proof, with B that branch and A = P^t P =
    V^-1 (-1 on the edges): nu-mu is the one edge out of B, so y_j = [j in B] v(mu,j)
    solves A y = v(mu,mu) e_nu - v(mu,nu) e_mu, and w = sum f_j y_j as d = V f.
    v(a,b) is the product of the determinants of the subtrees off the path a..b,
    pairwise coprime at a vertex as each term of det A = 1 expanded there has all
    but one (Eisenbud-Neumann, Ann. Math. Stud. 110).  So at k in B, c = row mu has
    gcd(c_k, c_parent) = gcd(c_k, sum of c at the children of k) = gcd over the
    children of gcd(c_k, c_child), or c_k at an end; induct from the ends up to nu.
    """
    row, d = valuation_table(ideal.graph).row(mu), ideal.valuations
    v, d_mu, adj = row[mu - 1], d[mu - 1], adjacency(ideal.graph).neighbors_of(mu)
    gcds = [math.gcd(v, row[nu - 1]) for nu in adj]
    terms = tuple((s, v * d[nu - 1] - d_mu * row[nu - 1], s * d_mu) for s, nu in zip(gcds, adj))
    return d_mu, (len(gcds) - 2) * v, terms, NumericalSemigroup((*gcds, v))


def _scores(offset: int, terms, ts: range) -> list[int]:
    """Scores of t/d_mu for t in ts (step 1): t plus the offset, minus
    s*max(ceil(w*t / (s*d_mu)), 1) per branch, all in integers.  As w is a sum
    of f_j v(mu,j) >= 0, a branch with w = 0 takes s, folded into the offset,
    and one with w > 0 has a ceiling >= 1 at every t >= 1, so needs no max; at
    t <= 0 (only ``jump_test_value`` asks) every ceiling is <= 0: each takes s."""
    folded = offset - sum(s for s, w, _ in terms if not w)
    scores = [t + folded for t in ts]
    for s, w, sd in terms:
        if w:  # s*ceil(w*t/sd) is -s*floor(-w*t/sd)
            w = -w
            scores = [x + s * (w * t // sd) for x, t in zip(scores, ts)]
    for i in range(min(1 - ts.start, len(ts))):
        scores[i] = ts[i] + offset - sum(s for s, _, _ in terms)
    return scores


def jump_test_value(ideal: IdealSpec, mu: int, xi: Fraction) -> int:
    """Integer score whose semigroup membership decides whether xi is a
    jumping number supported at mu.

    Only candidates whose product with the vertex valuation is an integer
    are admissible; anything else is rejected rather than evaluated.
    """
    xi = Fraction(xi)
    d_mu, offset, terms, _ = _vertex_context(ideal, mu)
    scaled = xi * d_mu
    if scaled.denominator != 1:
        raise ValueError(
            f"{xi} is not a candidate at vertex {mu}: {xi}*{d_mu} is not an integer"
        )
    t = int(scaled)
    return _scores(offset, terms, range(t, t + 1))[0]


def jumping_numbers_at(ideal: IdealSpec, mu: int, bound) -> JumpingSet:
    """Jumping numbers supported at one vertex, up to and including bound."""
    return _scan(ideal, [mu], bound)


def support_vertices(ideal: IdealSpec) -> frozenset:
    """Vertices the formula scans: the stars of the dual graph and the
    vertices carrying a simple factor.  Every jumping number has one in its
    oracle support, and ``jumping_numbers`` reports supports cut to them."""
    dual = adjacency(ideal.graph)
    return frozenset(
        mu
        for mu in range(1, ideal.graph.n + 1)
        if dual.valence(mu) >= 3 or ideal.factorization[mu - 1] > 0
    )


def jumping_numbers(ideal: IdealSpec, bound) -> JumpingSet:
    """All jumping numbers up to the bound, with supporting vertices."""
    return _scan(ideal, sorted(support_vertices(ideal)), bound)


def _scan(ideal: IdealSpec, vertices, bound) -> JumpingSet:
    """Jumping numbers up to the bound supported at the given vertices.

    A vertex with f_mu = 0 is skipped when its offset is below the sum of s
    over its branches with w = 0.  Proof: d_mu = sum of w there, so the
    branches with w > 0 take at least t, and every score is at most that gap.
    The keys found at mu share one frozenset {mu}; a key found twice takes the union.
    """
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("bound must be positive")
    contexts = []
    for mu in vertices:
        context = _vertex_context(ideal, mu)
        _, offset, terms, _ = context
        # At f_mu = 0 every score is at most offset - sum(s over w = 0); below 0 none is a member.
        if ideal.factorization[mu - 1] or offset >= sum(s for s, w, _ in terms if not w):
            contexts.append((mu, context))
    # t/d_mu == key/lcm with key = t*(lcm // d_mu): an exact integer sort key.
    lcm = math.lcm(*(context[0] for _, context in contexts))
    merged: dict[int, frozenset] = {}
    for mu, (d_mu, offset, terms, semigroup) in contexts:
        ts, step, alone = range(1, math.floor(bound * d_mu) + 1), lcm // d_mu, frozenset((mu,))
        scores = _scores(offset, terms, ts)
        for key in [t * step for t, x in zip(ts, scores) if membership(semigroup, x)]:
            merged[key] = merged[key] | alone if key in merged else alone
    return JumpingSet(sorted(merged.items()), lcm)


def log_canonical_threshold(ideal: IdealSpec) -> Fraction:
    """Smallest jumping number: min over the vertices of (k_i + 1) / d_i,
    with k the canonical divisor in E-coordinates and d the valuations."""
    k = canonical(ideal.graph).k
    return min(Fraction(k_i + 1, d_i) for k_i, d_i in zip(k, ideal.valuations))
