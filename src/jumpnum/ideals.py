"""Complete ideals presented by resolution data, and sets of jumping numbers.

An ideal of finite colength is pinned down by a resolution graph together
with the multiplicities of its simple factors.  The induced valuation
vector is the ideal's divisor in E-coordinates, Q Q^t times the
factorization, read by two passes over the proximities.  A set of jumping
numbers keeps its values as int keys over one denominator, the form both
pipelines find them in, and builds ``Fraction``s only when asked.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .graph import ResolutionGraph, _integral, ensure_valid
from .lattice import _e_from_star, _star_from_hat

__all__ = ["IdealSpec", "JumpingSet"]


@dataclass(frozen=True)
class IdealSpec:
    """A complete finite-colength ideal given by its resolution.

    ``factorization`` holds the exponents of the simple-ideal factors,
    one per vertex; they must be integral, nonnegative and not all zero.
    """

    graph: ResolutionGraph
    factorization: tuple[int, ...]

    def __post_init__(self):
        ensure_valid(self.graph)
        fac = tuple(map(_integral, self.factorization))
        if len(fac) != self.graph.n:
            raise ValueError("factorization length does not match the graph")
        if any(x < 0 for x in fac):
            raise ValueError("factorization multiplicities must be nonnegative")
        if not any(fac):
            raise ValueError("factorization must have a positive entry")
        object.__setattr__(self, "factorization", fac)

    @cached_property
    def valuations(self) -> tuple[int, ...]:
        """Valuation vector: Q Q^t times the factorization, the ideal's
        divisor in E-coordinates."""
        return _e_from_star(_star_from_hat(self.factorization, self.graph), self.graph)

    def power(self, exponent: int) -> "IdealSpec":
        exponent = _integral(exponent)
        if exponent < 1:
            raise ValueError("exponent must be positive")
        return IdealSpec(self.graph, tuple(x * exponent for x in self.factorization))


@dataclass(frozen=True, init=False)
class JumpingSet:
    """Finite sorted set of jumping numbers with their supporting vertices.

    Value i is ``keys[i] / lcm``, with ``lcm`` and the keys divided by their
    gcd, so equal sets are equal whatever denominator built them.
    ``JumpingSet(entries)`` takes (value, support) pairs, ``JumpingSet(pairs,
    lcm)`` (key, support) pairs; ``entries`` and ``values()`` build their
    ``Fraction``s on first use.
    """

    lcm: int
    keys: tuple[int, ...]
    supports: tuple[frozenset, ...]

    def __init__(self, entries=(), lcm: int | None = None):
        supports = tuple(support for _, support in entries)
        if lcm is None:
            values = [Fraction(xi) for xi, _ in entries]
            lcm = math.lcm(*(xi.denominator for xi in values))
            keys = [xi.numerator * (lcm // xi.denominator) for xi in values]
        else:
            keys = [key for key, _ in entries]
        if not all(map(operator.lt, keys, keys[1:])):
            raise ValueError("entries must be strictly increasing")
        if keys and keys[0] <= 0:
            raise ValueError("jumping numbers are positive")
        if not all(supports):
            raise ValueError("support sets must be nonempty")
        g = math.gcd(lcm, *keys)
        object.__setattr__(self, "lcm", lcm // g)
        object.__setattr__(self, "keys", tuple(key // g for key in keys))
        object.__setattr__(self, "supports", supports)

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, frozenset], ...]:
        return tuple(zip(self.values(), self.supports))

    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(key, self.lcm) for key in self.keys)

    def support_of(self, xi: Fraction) -> frozenset:
        for value, support in self.entries:
            if value == xi:
                return support
        raise KeyError(xi)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.keys)
