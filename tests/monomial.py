"""Monomial ideals as ground truth, by Howald's theorem.

For a monomial ideal I of finite colength with Newton polygon N, the
multiplier ideal J(I^c) is spanned by the monomials x^v with v + (1, 1) in
the interior of cN (Howald, *Multiplier ideals of monomial ideals*, Trans.
AMS 353, 2001).  So the jumping numbers are the values phi(w) over w in
Z^2 with w >= (1, 1), where phi(w) = min over the compact edges of N of
(a*w_1 + b*w_2)/h, for (a, b) an edge's primitive inner normal and h its
level.  Nothing here uses the library, so it checks the graph layer that
the closed formula and the oracle share.

The toric resolution of I inserts, for each edge normal, the Stern-Brocot
mediants between (1, 0) and (0, 1) down to it.  A mediant is the blowup of
the point where its two parents meet; it is proximate to each parent that is
exceptional (not an axis), and vertex (a, b) is the monomial valuation
x^i y^j -> a*i + b*j.
"""

from __future__ import annotations

import math
from fractions import Fraction

from jumpnum import IdealSpec, ResolutionGraph

AXES = ((1, 0), (0, 1))


def newton_edges(exponents) -> list[tuple[int, int, int, int]]:
    """Compact edges of the Newton polygon as (a, b, h, g): primitive inner
    normal, level and lattice length, from the y-axis to the x-axis.

    The exponents must include a pure power of x and a pure power of y.
    """
    points = set(exponents)
    current = (0, min(j for i, j in points if i == 0))
    edges = []
    while current[1] > 0:
        ci, cj = current
        below = [(i, j) for i, j in points if i > ci and j < cj]
        # steepest descent first; among equal slopes the farthest point
        nxt = min(below, key=lambda p: (Fraction(p[1] - cj, p[0] - ci), -p[0]))
        di, dj = nxt[0] - ci, cj - nxt[1]
        g = math.gcd(di, dj)
        a, b = dj // g, di // g
        edges.append((a, b, a * ci + b * cj, g))
        current = nxt
    return edges


def phi(edges, w1: int, w2: int) -> Fraction:
    """The least c with (w1, w2) on the boundary of cN."""
    return min(Fraction(a * w1 + b * w2, h) for a, b, h, _ in edges)


def howald_jumping_numbers(exponents, bound) -> list[Fraction]:
    """Sorted phi(w) over w >= (1, 1) with 0 < phi(w) <= bound."""
    edges = newton_edges(exponents)
    bound = Fraction(bound)
    # phi(w) <= bound needs a*w1 + b*w2 <= bound*h on some edge, and
    # h <= a*p, h <= b*q for the pure powers x^p, y^q.
    p = min(i for i, j in exponents if j == 0)
    q = min(j for i, j in exponents if i == 0)
    values = {
        phi(edges, w1, w2)
        for w1 in range(1, math.floor(bound * p) + 1)
        for w2 in range(1, math.floor(bound * q) + 1)
    }
    return sorted(v for v in values if v <= bound)


def _stern_brocot_path(a: int, b: int):
    """(mediant, left parent, right parent) from (1, 1) down to (a, b)."""
    left, right = AXES
    while True:
        m = (left[0] + right[0], left[1] + right[1])
        yield m, left, right
        if m == (a, b):
            return
        if a * m[1] > b * m[0]:
            right = m
        else:
            left = m


def toric_resolution(exponents) -> tuple[IdealSpec, tuple[tuple[int, int], ...]]:
    """The ideal on its toric resolution, and the normal (a, b) of each
    vertex in blowup order (by a + b)."""
    edges = newton_edges(exponents)
    parents = {}
    for a, b, _, _ in edges:
        for m, left, right in _stern_brocot_path(a, b):
            parents[m] = (left, right)
    normals = tuple(sorted(parents, key=lambda v: (v[0] + v[1], v)))
    index = {v: k for k, v in enumerate(normals, start=1)}
    prox = {
        index[m]: tuple(sorted(index[p] for p in parents[m] if p not in AXES))
        for m in normals[1:]
    }
    lengths = {(a, b): g for a, b, _, g in edges}
    factorization = tuple(lengths.get(v, 0) for v in normals)
    return IdealSpec(ResolutionGraph.build(len(normals), prox), factorization), normals


def support_function(exponents, a: int, b: int) -> int:
    """min of a*i + b*j over the exponents: the valuation of the ideal at
    the vertex (a, b)."""
    return min(a * i + b * j for i, j in exponents)
