import random

from jumpnum import (
    adjacency,
    canonical,
    jumping_numbers,
    log_canonical_threshold,
    oracle_jumping_numbers,
)

from blowup import blow_up
from conftest import load_fixture, random_ideal


def _ideals():
    fixtures = [load_fixture(name) for name in ("cusp.res", "maximal.res", "sample20.res")]
    rng = random.Random(21)
    return fixtures + [random_ideal(rng) for _ in range(40)]


def test_blowing_up_a_point_off_the_ideal_extends_the_resolution_data():
    # A free point v on E_a hangs a leaf on a; a satellite on E_a ∩ E_b
    # subdivides the edge a-b.  Either way v gets the value and the
    # canonical coefficient its proximities give, nothing earlier changes,
    # and neither do the jumping numbers, since v carries no factor.
    rng = random.Random(2100)
    blowups = 0
    for ideal in _ideals():
        jumps = jumping_numbers(ideal, 2).values()
        lct = log_canonical_threshold(ideal)
        for _ in range(rng.randint(1, 3)):
            graph = ideal.graph
            v = graph.n + 1
            edges = adjacency(graph).edges
            d = ideal.valuations
            k = canonical(graph).k
            if edges and rng.random() < 0.5:
                a, b = rng.choice(sorted(edges))
                blown = blow_up(ideal, a, b)
                expected = edges - {(a, b)} | {(a, v), (b, v)}
                d_v, k_v = d[a - 1] + d[b - 1], k[a - 1] + k[b - 1] + 1
            else:
                a = rng.randint(1, graph.n)
                blown = blow_up(ideal, a)
                expected = edges | {(a, v)}
                d_v, k_v = d[a - 1], k[a - 1] + 1
            assert adjacency(blown.graph).edges == expected
            assert blown.valuations == (*d, d_v)
            assert canonical(blown.graph).k == (*k, k_v)
            assert jumping_numbers(blown, 2).values() == jumps
            assert log_canonical_threshold(blown) == lct
            ideal = blown
            blowups += 1
        assert oracle_jumping_numbers(ideal, 1).values() == tuple(x for x in jumps if x <= 1)
    assert blowups > 60
