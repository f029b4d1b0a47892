"""Numerical semigroups attached to the vertices of the dual graph.

Each branch emanating from a vertex mu contributes the gcd of the
valuation values at its ends, read off row mu as gcd(v(mu,mu), v(mu,nu))
for the branch towards nu; with v(mu,mu) they generate the semigroup that
decides which candidates are jumping numbers.  Membership tests are exact
and O(1): each semigroup keeps its Apery table modulo its smallest
generator m, the least member of every residue class, built once by the
round-robin pass of Boecker and Liptak (Algorithmica 2007) in O(k*m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .graph import ResolutionGraph, _integral, adjacency, branch
from .lattice import ValuationTable

__all__ = [
    "NumericalSemigroup",
    "membership",
    "branch_gcd",
    "frobenius_multiple",
    "vertex_semigroup",
    "value_semigroup",
]


@dataclass(frozen=True)
class NumericalSemigroup:
    """Additive submonoid of the nonnegative integers, by generators."""

    generators: tuple[int, ...]

    def __post_init__(self):
        gens = tuple(sorted(set(map(_integral, self.generators))))
        if not gens or gens[0] < 1:
            raise ValueError("generators must be positive integers")
        object.__setattr__(self, "generators", gens)

    def __contains__(self, x) -> bool:
        return membership(self, x)

    def gcd(self) -> int:
        return math.gcd(*self.generators)

    @cached_property
    def apery(self) -> tuple[int | None, ...]:
        """Apery table modulo the smallest generator m: entry r is the least
        member congruent to r mod m, or None when no member is (gcd > 1)."""
        m = self.generators[0]
        least = [None] * m
        least[0] = 0
        for a in self.generators[1:]:
            step = math.gcd(a, m)
            # The residues r, r+a, r+2a, ... mod m form a cycle of length
            # m/step.  Adding a cannot improve the least entry of the cycle,
            # so one lap starting there settles every entry.
            for r in range(step):
                known = [q for q in range(r, m, step) if least[q] is not None]
                if not known:
                    continue
                q = min(known, key=least.__getitem__)
                for _ in range(m // step - 1):
                    nxt = (q + a) % m
                    value = least[q] + a
                    if least[nxt] is None or value < least[nxt]:
                        least[nxt] = value
                    q = nxt
        return tuple(least)

    def frobenius_number(self) -> int:
        """Largest integer outside the semigroup; -1 when there is none.

        Only defined when the generators are globally coprime (otherwise
        the complement is infinite).  Selmer's formula: the largest Apery
        table entry minus the smallest generator.
        """
        if self.gcd() != 1:
            raise ValueError("complement is infinite unless the gcd is 1")
        return max(self.apery) - self.generators[0]


def membership(semigroup: NumericalSemigroup, x) -> bool:
    """Exact membership test; false for negative and non-integral numbers."""
    if x < 0 or x % 1:
        return False
    x = int(x)
    least = semigroup.apery[x % semigroup.generators[0]]
    return least is not None and least <= x


def branch_gcd(table: ValuationTable, graph: ResolutionGraph, mu: int, nu: int) -> int:
    """Gcd of the valuation values at the graph ends lying in the branch
    emanating from mu towards nu: gcd(v(mu,mu), v(mu,nu)) for a neighbour."""
    if mu == nu:
        raise ValueError("the branch from a vertex towards itself is empty")
    row, dual, inside = table.row(mu), adjacency(graph), branch(graph, mu, nu)
    return math.gcd(*(row[t - 1] for t in inside if len(dual.neighbors[t - 1]) <= 1))


def frobenius_multiple(table: ValuationTable, graph: ResolutionGraph, mu: int, nu: int) -> int:
    """Largest multiple of the branch gcd missing from the branch monoid.

    Computed by the signed valence sum over the branch; negative values
    mean no nonnegative multiple is missing.  By convention the vertex
    itself yields minus its diagonal value.  At a neighbour nu it is also
    v(mu,nu) (k_mu + 1) - v(mu,mu) (k_nu + 1), with k = canonical(graph).k.
    """
    row = table.row(mu)
    if mu == nu:
        return -row[mu - 1]
    dual = adjacency(graph)
    return sum((dual.valence(j) - 2) * row[j - 1] for j in branch(graph, mu, nu))


def vertex_semigroup(table: ValuationTable, graph: ResolutionGraph, mu: int) -> NumericalSemigroup:
    """Semigroup generated by the branch gcds at mu and its diagonal value.

    On a one-vertex graph this is the full set of nonnegative integers.
    """
    row, adj = table.row(mu), adjacency(graph).neighbors_of(mu)
    return NumericalSemigroup((*(math.gcd(row[mu - 1], row[nu - 1]) for nu in adj), row[mu - 1]))


def value_semigroup(table: ValuationTable, graph: ResolutionGraph, mu: int) -> NumericalSemigroup:
    """Semigroup of the mu-th valuation, generated by its values at the
    graph ends (including mu itself when mu is an end)."""
    row = table.row(mu)
    return NumericalSemigroup(tuple(row[tau - 1] for tau in adjacency(graph).ends))
