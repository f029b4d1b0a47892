"""Plane branches from their Puiseux characteristic (n; beta_1 < ... < beta_g).

Enriques' construction (Casas-Alvero, *Singularities of Plane Curves*, LMS
LNS 276, ch. 5).  The multiplicities of the branch at its infinitely near
points come from Euclid's algorithm on the characteristic, and the points
proximate to p_j are the next ones, until their multiplicities sum to m_j
(the proximity equality).  Factor 1 on the last point gives the simple
ideal whose general element is the branch.  This module shares no code
with the library beyond its types, so the closed forms below are a third
reference next to the formula and the oracle.
"""

import math
import random
from fractions import Fraction

from jumpnum import IdealSpec, ResolutionGraph


def characteristic_gcds(n: int, betas) -> list[int]:
    """e_0 = n and e_i = gcd(e_{i-1}, beta_i), falling strictly to 1."""
    gcds = [n]
    for beta in betas:
        gcds.append(math.gcd(gcds[-1], beta))
    return gcds


def multiplicities(n: int, betas) -> list[int]:
    """Euclid on (beta_i - beta_{i-1}, e_{i-1}), beta_0 = 0: each quotient h
    with divisor r adds r, h times, to the multiplicity sequence."""
    out, previous = [], 0
    for beta, e in zip(betas, characteristic_gcds(n, betas)):
        a, r = beta - previous, e
        while r:
            h, rest = divmod(a, r)
            out += [r] * h
            a, r = r, rest
        previous = beta
    return out


def branch_ideal(n: int, betas) -> IdealSpec:
    """The simple ideal of the branch, on its minimal log resolution."""
    m = multiplicities(n, betas)
    last = len(m)
    prox: dict[int, list[int]] = {}
    for j in range(1, last + 1):
        k, left = j + 1, m[j - 1]
        while left > 0 and k <= last:
            prox.setdefault(k, []).append(j)
            left -= m[k - 1]
            k += 1
        assert left == 0 or j == last, "proximity equality fails"
    return IdealSpec(ResolutionGraph.build(last, prox), (0,) * (last - 1) + (1,))


def semigroup_generators(n: int, betas) -> list[int]:
    """Zariski's beta-bar_0..g: n, beta_1, and for i >= 1
    beta-bar_{i+1} = n_i beta-bar_i - beta_i + beta_{i+1}, n_i = e_{i-1}/e_i."""
    e, bars = characteristic_gcds(n, betas), [n, betas[0]]
    for i in range(1, len(betas)):
        bars.append(e[i - 1] // e[i] * bars[i] - betas[i - 1] + betas[i])
    return bars


def jumping_numbers_below_one(n: int, betas) -> set[Fraction]:
    """The union over v = 1..g of {(a/n_v + b/q_v + c)/e_v : a, b >= 1, c >= 0,
    a/n_v + b/q_v < 1} within (0, 1), with q_v = beta-bar_v / e_v.

    The shape of Jarvilehto's and Naie's formulas (Mem. AMS 214, no. 1009,
    2011; Manuscripta Math. 128, 2009).
    """
    e, bars, out = characteristic_gcds(n, betas), semigroup_generators(n, betas), set()
    for v in range(1, len(betas) + 1):
        n_v, q_v = e[v - 1] // e[v], bars[v] // e[v]
        for a in range(1, n_v):
            for b in range(1, q_v):
                x = Fraction(a, n_v) + Fraction(b, q_v)
                if x < 1:
                    out.update((x + c) / e[v] for c in range(e[v]))
    return out


def random_characteristic(rng: random.Random, g: int) -> tuple[int, tuple[int, ...]]:
    """A characteristic with g terms: each n_i = e_{i-1}/e_i is 2, 3 or 4, and
    beta_i = beta_{i-1} + e_i k with k prime to n_i (and beta_1 > n)."""
    ratios = [rng.randint(2, 4) for _ in range(g)]
    n = e = math.prod(ratios)
    betas, beta = [], 0
    for i, ratio in enumerate(ratios):
        e //= ratio
        low = ratio + 1 if i == 0 else 1
        beta += e * rng.choice([k for k in range(low, low + 8) if math.gcd(k, ratio) == 1])
        betas.append(beta)
    return n, tuple(betas)
