"""Exact linear algebra on the lattice of exceptional divisors.

A divisor is carried in one of three integral bases: the strict
transforms (E), the total transforms (E*), or the dual basis (E^) whose
coordinates are the factorization multiplicities.  Coordinates are plain
ints where integral and exact Fractions otherwise, so floors and ceilings
downstream stay trustworthy.  Base changes walk the proximities and the
inverse proximity matrix; the antinef closure unloads on the dual graph's
weights and neighbours, without forming the intersection matrix.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .graph import (
    Matrix,
    ResolutionGraph,
    adjacency,
    ensure_valid,
    inverse_proximity,
)

__all__ = [
    "Basis",
    "Divisor",
    "ValuationTable",
    "CanonicalData",
    "valuation_table",
    "to_basis",
    "canonical",
    "is_antinef",
    "antinef_closure",
    "valuation_ratio",
]


class Basis(enum.Enum):
    """Coordinate system for divisors on the exceptional lattice."""

    E = "E"          # strict transforms; coordinates are valuation values
    E_STAR = "E*"    # total transforms
    E_HAT = "E^"     # dual basis; coordinates are factorization multiplicities


@dataclass(frozen=True)
class Divisor:
    """Exact coordinates of a lattice divisor in a declared basis.

    Coordinates are exact: an ``int`` where the value is integral, a
    ``Fraction`` otherwise (floats are converted exactly).  Divisors with
    the same values are equal and hash alike however they were built.
    """

    coords: tuple[int | Fraction, ...]
    basis: Basis

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        if not self.is_integral():
            exact = [Fraction(c) for c in self.coords]
            coords = tuple(c.numerator if c.denominator == 1 else c for c in exact)
            object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return len(self.coords)

    def is_integral(self) -> bool:
        return {int}.issuperset(map(type, self.coords))

    def int_coords(self) -> tuple[int, ...]:
        if not self.is_integral():
            raise ValueError("divisor has non-integral coordinates")
        return self.coords


@dataclass(frozen=True)
class ValuationTable:
    """Symmetric positive matrix of pairwise valuation values.

    Entry (mu, nu) is the value the mu-th divisorial valuation takes on
    the nu-th simple ideal; it equals the inverse of the intersection
    form, hence the product of the inverse proximity matrix with its own
    transpose.
    """

    matrix: Matrix

    @property
    def n(self) -> int:
        return len(self.matrix)

    def entry(self, mu: int, nu: int) -> int:
        return self.matrix[mu - 1][nu - 1]

    def row(self, mu: int) -> tuple[int, ...]:
        return self.matrix[mu - 1]


@dataclass(frozen=True)
class CanonicalData:
    """Canonical divisor in E-coordinates (k) and dual coordinates (k_hat)."""

    k: tuple[int, ...]
    k_hat: tuple[int, ...]


@lru_cache(maxsize=None)
def valuation_table(graph: ResolutionGraph) -> ValuationTable:
    """Exact inverse of the intersection form, computed as Q Q^t."""
    ensure_valid(graph)
    q = inverse_proximity(graph)
    n = graph.n
    rows = []
    for mu in range(n):
        row = []
        for nu in range(n):
            qmu, qnu = q[mu], q[nu]
            row.append(sum(qmu[k] * qnu[k] for k in range(min(mu, nu) + 1)))
        rows.append(tuple(row))
    return ValuationTable(tuple(rows))


def to_basis(divisor: Divisor, target: Basis, graph: ResolutionGraph) -> Divisor:
    """Rewrite a divisor exactly in another basis.

    E -> E* multiplies by the transposed proximity matrix, E* -> E^ by the
    proximity matrix itself; the inverse steps use the inverse proximity
    matrix.  Round trips are exact identities.
    """
    ensure_valid(graph)
    if divisor.n != graph.n:
        raise ValueError("divisor dimension does not match the graph")
    if divisor.basis == target:
        return divisor
    order = (Basis.E, Basis.E_STAR, Basis.E_HAT)
    i, j = order.index(divisor.basis), order.index(target)
    coords = divisor.coords
    for step in range(i, j):  # E -> E* -> E^
        coords = (_star_from_e if step == 0 else _hat_from_star)(coords, graph)
    for step in range(i, j, -1):  # E^ -> E* is coords * Q, E* -> E is coords * Q^t
        q = inverse_proximity(graph)
        rows = zip(*q) if step == 2 else q
        coords = tuple(sum(map(operator.mul, coords, row)) for row in rows)
    return Divisor(coords, target)


def _star_from_e(coords, graph):
    out = list(coords)  # P times coords
    for mu, targets in enumerate(graph.prox):
        for nu in targets:
            out[mu] -= coords[nu - 1]
    return tuple(out)


def _hat_from_star(coords, graph):
    out = list(coords)  # P^t times coords
    for nu, targets in enumerate(graph.prox):
        for mu in targets:
            out[mu - 1] -= coords[nu]
    return tuple(out)


def canonical(graph: ResolutionGraph) -> CanonicalData:
    """Canonical divisor: row sums of the inverse proximity matrix in
    E-coordinates, two minus the weight in dual coordinates."""
    ensure_valid(graph)
    k = tuple(map(sum, inverse_proximity(graph)))
    k_hat = tuple(2 - w for w in adjacency(graph).weights)
    return CanonicalData(k, k_hat)


def is_antinef(divisor: Divisor, graph: ResolutionGraph) -> bool:
    """True when every dual-basis coordinate is nonnegative."""
    hat = to_basis(divisor, Basis.E_HAT, graph)
    return all(c >= 0 for c in hat.coords)


def antinef_closure(divisor: Divisor, graph: ResolutionGraph) -> Divisor:
    """Minimal antinef divisor dominating the input, via unloading.

    The input must have integer E-coordinates.  Negative coordinates are
    first clamped to zero (global sections only see the effective part).
    The dual coordinates g^_j = w_j g_j - (sum of g over the neighbours of
    j) come from the dual graph alone, and every vertex with a negative one
    is raised by the least amount that could clear it.  Each step stays
    below every antinef divisor dominating the input, so the loop
    terminates at the minimum.
    """
    ensure_valid(graph)
    e = to_basis(divisor, Basis.E, graph)
    if not e.is_integral():
        raise ValueError("antinef closure needs integral E-coordinates")
    dual = adjacency(graph)
    weights, neighbors = dual.weights, dual.neighbors
    g = [max(c, 0) for c in e.coords]
    ghat = [w * x for w, x in zip(weights, g)]
    for x, adj in zip(g, neighbors):
        if x:
            for nu in adj:
                ghat[nu - 1] -= x
    pending = [j for j, x in enumerate(ghat) if x < 0]
    while pending:
        j = pending.pop()
        deficit = -ghat[j]
        if deficit <= 0:
            continue
        w = weights[j]
        step = -(-deficit // w)
        g[j] += step
        ghat[j] += w * step
        for nu in neighbors[j]:
            ghat[nu - 1] -= step
            if ghat[nu - 1] < 0:
                pending.append(nu - 1)
    return Divisor(tuple(g), Basis.E)


def valuation_ratio(table: ValuationTable, mu: int, gamma: int, nu: int) -> Fraction:
    """Ratio of the gamma-row to the mu-row of the valuation table at nu.

    As a function of nu this is strictly increasing along the path from mu
    to gamma and constant on every path leaving it.
    """
    return Fraction(table.entry(gamma, nu), table.entry(mu, nu))
