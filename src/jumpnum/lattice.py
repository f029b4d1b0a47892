"""Exact linear algebra on the lattice of exceptional divisors.

A divisor is carried in one of three integral bases: the strict
transforms (E), the total transforms (E*), or the dual basis (E^) whose
coordinates are the factorization multiplicities.  Coordinates are plain
ints where integral and exact Fractions otherwise, so floors and ceilings
downstream stay trustworthy.  This module owns the base changes: four O(n)
passes over the proximities multiply by P, P^t, Q = P^-1 and Q^t.  The
canonical divisor, an ideal's valuations, ``ValuationTable.row`` (the one
reader of a valuation-table row) and ``resfile``'s recovery of proximities
go through them.  The antinef closure unloads int coordinates on the dual
graph's weights and neighbours, without the intersection matrix.  The
unloading loop has one owner, ``_settle``: the cold ``_unload`` calls it
on a whole divisor, and the oracle's sweep calls it on the few entries
each candidate disturbs; ``Divisor`` is only in public functions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .graph import Matrix, ResolutionGraph, _check_vertex, adjacency, ensure_valid

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
    """Symmetric positive matrix of pairwise valuation values, by rows.

    Entry (mu, nu) is the value the mu-th divisorial valuation takes on
    the nu-th simple ideal; it equals the inverse of the intersection
    form, hence the product of the inverse proximity matrix with its own
    transpose.  A row or an entry costs two O(n) passes and is not kept;
    callers that need many entries read ``matrix``, which is built once.
    """

    graph: ResolutionGraph

    @property
    def n(self) -> int:
        return self.graph.n

    def entry(self, mu: int, nu: int) -> int:
        _check_vertex(self, nu)
        return self.row(mu)[nu - 1]

    def row(self, mu: int) -> tuple[int, ...]:
        _check_vertex(self, mu)
        unit = (0,) * (mu - 1) + (1,) + (0,) * (self.n - mu)
        return _e_from_star(_star_from_hat(unit, self.graph), self.graph)

    @cached_property
    def matrix(self) -> Matrix:
        return tuple(self.row(mu) for mu in range(1, self.n + 1))


@dataclass(frozen=True)
class CanonicalData:
    """Canonical divisor in E-coordinates (k) and dual coordinates (k_hat)."""

    k: tuple[int, ...]
    k_hat: tuple[int, ...]


@lru_cache(maxsize=None)
def valuation_table(graph: ResolutionGraph) -> ValuationTable:
    """Exact inverse of the intersection form, Q Q^t, as a view of rows.

    Returned in O(1); a row costs O(n), and the dense ``matrix`` is built once.
    """
    ensure_valid(graph)
    return ValuationTable(graph)


def to_basis(divisor: Divisor, target: Basis, graph: ResolutionGraph) -> Divisor:
    """Rewrite a divisor exactly in another basis.

    E -> E* multiplies by the proximity matrix P, E* -> E^ by its
    transpose; the inverse steps multiply by Q = P^-1 and Q^t.  Each step is
    one pass over the proximities, and round trips are exact identities.
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
    for step in range(i, j, -1):  # E^ -> E* -> E
        coords = (_e_from_star if step == 1 else _star_from_hat)(coords, graph)
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


def _e_from_star(coords, graph):
    out = list(coords)  # Q times coords: entry mu gains its targets' entries
    for mu, targets in enumerate(graph.prox):
        for nu in targets:
            out[mu] += out[nu - 1]
    return tuple(out)


def _star_from_hat(coords, graph):
    out = list(coords)  # Q^t times coords: targets gain entry mu, last first
    for mu in range(graph.n - 1, -1, -1):
        for nu in graph.prox[mu]:
            out[nu - 1] += out[mu]
    return tuple(out)


def canonical(graph: ResolutionGraph) -> CanonicalData:
    """Canonical divisor: K = sum of the E*_i, so Q times the all-ones vector
    in E-coordinates, and two minus the weight in dual coordinates."""
    k_hat = tuple(2 - w for w in adjacency(graph).weights)
    return CanonicalData(_e_from_star((1,) * graph.n, graph), k_hat)


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
    e = to_basis(divisor, Basis.E, graph)
    if not e.is_integral():
        raise ValueError("antinef closure needs integral E-coordinates")
    return Divisor(_unload(graph, e.coords), Basis.E)


def _unload(graph: ResolutionGraph, coords) -> tuple[int, ...]:
    """E-coordinates of the antinef closure of int E-coordinates, clamped."""
    dual = adjacency(graph)
    g = [max(c, 0) for c in coords]
    ghat = [w * x for w, x in zip(dual.weights, g)]
    for x, adj in zip(g, dual.neighbors):
        if x:
            for nu in adj:
                ghat[nu - 1] -= x
    _settle(g, ghat, [j for j, x in enumerate(ghat) if x < 0], dual)
    return tuple(g)


def _settle(g: list[int], ghat: list[int], pending: list[int], dual) -> None:
    """Unload in place until ghat is nonnegative.

    ``ghat`` must be the dual coordinates of ``g`` and ``pending`` must hold
    every index where ghat is negative.  Each step raises a vertex by the
    least amount that could clear its deficit, so g never passes an antinef
    divisor above its start, and it ends at the closure of that start.
    """
    weights, neighbors = dual.weights, dual.neighbors
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


def valuation_ratio(table: ValuationTable, mu: int, gamma: int, nu: int) -> Fraction:
    """Ratio of the gamma-row to the mu-row of the valuation table at nu.

    As a function of nu this is strictly increasing along the path from mu
    to gamma and constant on every path leaving it.
    """
    return Fraction(table.entry(gamma, nu), table.entry(mu, nu))
