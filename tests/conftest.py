import itertools
import random
from pathlib import Path

import pytest

from jumpnum import IdealSpec, ResolutionGraph, parse_resolution

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name):
    graph, factorization = parse_resolution((FIXTURES / name).read_text())
    return IdealSpec(graph, factorization)


@pytest.fixture(scope="session")
def maximal_ideal():
    return load_fixture("maximal.res")


@pytest.fixture(scope="session")
def cusp_ideal():
    return load_fixture("cusp.res")


@pytest.fixture(scope="session")
def sample20_ideal():
    return load_fixture("sample20.res")


@pytest.fixture(scope="session")
def cusp_graph(cusp_ideal):
    return cusp_ideal.graph


def random_blowup_graph(rng: random.Random, n: int, satellite_bias=0.5) -> ResolutionGraph:
    """Random valid graph built as an actual blowup sequence."""
    return random_blowup_sequence(rng, n, satellite_bias)[0]


def random_blowup_sequence(rng: random.Random, n: int, satellite_bias=0.5):
    """Random blowup sequence: the graph and its simulated dual-graph edges.

    A new point sits either at a free point of one exceptional curve or at
    an intersection point of two; the running set of intersection pairs is
    exactly the running dual graph.
    """
    prox = {}
    edges = []
    for mu in range(2, n + 1):
        if edges and rng.random() < satellite_bias:
            a, b = rng.choice(edges)
            prox[mu] = (a, b)
            edges.remove((a, b))
            edges.append((a, mu))
            edges.append((b, mu))
        else:
            a = rng.randint(1, mu - 1)
            prox[mu] = (a,)
            edges.append((a, mu))
    return ResolutionGraph.build(n, prox), frozenset(edges)


def all_proximity_structures(max_n):
    """Every graph on n <= max_n vertices whose vertices 2..n are each
    proximate to one or two earlier vertices."""
    for n in range(1, max_n + 1):
        choices = [
            [*itertools.combinations(range(1, mu), 1), *itertools.combinations(range(1, mu), 2)]
            for mu in range(2, n + 1)
        ]
        for prox in itertools.product(*choices):
            yield ResolutionGraph(n, ((), *prox))


def random_curve_graph(rng: random.Random, n: int, end_satellite=False) -> ResolutionGraph:
    """Random graph in which every point follows its predecessor.

    These are the minimal resolutions of simple ideals: the whole chain of
    points lies below the last vertex.  With ``end_satellite`` the final
    point is forced to be a satellite, giving the last vertex valence two.
    """
    prox = {}
    for mu in range(2, n + 1):
        prev = mu - 1
        partners = prox.get(prev, ())
        want_satellite = partners and (
            rng.random() < 0.5 or (end_satellite and mu == n)
        )
        if want_satellite:
            prox[mu] = (rng.choice(partners), prev)
        else:
            prox[mu] = (prev,)
    return ResolutionGraph.build(n, prox)


def random_ideal(rng: random.Random, max_n=8, satellite_bias=0.5) -> IdealSpec:
    graph = random_blowup_graph(rng, rng.randint(1, max_n), satellite_bias)
    factorization = [rng.randint(0, 3) for _ in range(graph.n)]
    if not any(factorization):
        factorization[rng.randrange(graph.n)] = rng.randint(1, 3)
    return IdealSpec(graph, tuple(factorization))


def simple_ideal_with_valence_two(rng: random.Random, max_n=9) -> IdealSpec:
    """Simple ideal whose vertex has exactly two branches."""
    n = rng.randint(3, max_n)
    graph = random_curve_graph(rng, n, end_satellite=True)
    factorization = [0] * n
    factorization[n - 1] = 1
    return IdealSpec(graph, tuple(factorization))
