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


def test_a_blowup_moves_the_oracle_supports_by_the_mediant_rule():
    # Same chains as above (same seed, same draws), at bound 1.  The old
    # vertices keep their supports, and v joins the support of xi exactly
    # when it is the satellite on a and b and both are in it: its ratio
    # (e_v + k_v + 1) / d_v is then the mediant of theirs.  A free point on
    # E_a has d_v = d_a and k_v = k_a + 1, one more in the numerator, and
    # never attains xi.
    rng = random.Random(2100)
    jumps = joined = 0
    for ideal in _ideals():
        before = dict(oracle_jumping_numbers(ideal, 1).entries)
        for _ in range(rng.randint(1, 3)):
            graph = ideal.graph
            v = graph.n + 1
            edges = adjacency(graph).edges
            if edges and rng.random() < 0.5:
                a, b = rng.choice(sorted(edges))
                blown, targets = blow_up(ideal, a, b), {a, b}
            else:
                blown, targets = blow_up(ideal, rng.randint(1, graph.n)), None
            after = dict(oracle_jumping_numbers(blown, 1).entries)
            assert after.keys() == before.keys()
            for xi, support in before.items():
                joins = targets is not None and targets <= support
                assert after[xi] == (support | {v} if joins else support)
                joined += joins
            jumps += len(before)
            ideal, before = blown, after
    assert jumps > 5000 and joined > 20
