"""Howald's theorem as ground truth for the formula, the oracle and the
graph layer they share: monomial ideals on their toric resolutions."""

import random
from fractions import Fraction

from jumpnum import jumping_numbers, log_canonical_threshold, oracle_jumping_numbers

from conftest import load_fixture
from monomial import howald_jumping_numbers, newton_edges, phi, support_function, toric_resolution


def _monomial_cases(count=150):
    rng = random.Random("howald")
    for _ in range(count):
        p, q = rng.randint(1, 12), rng.randint(1, 12)
        exponents = {(p, 0), (0, q)}
        for _ in range(rng.randint(0, 4)):
            # on or under the segment from (p, 0) to (0, q), where it can bend N
            i = rng.randint(0, p)
            exponents.add((i, rng.randint(0, q - q * i // p)))
        exponents.discard((0, 0))
        yield sorted(exponents), Fraction(rng.randint(1, 10), 2)


def test_cusp_is_its_own_toric_resolution():
    ideal, normals = toric_resolution([(2, 0), (0, 3)])
    assert ideal == load_fixture("cusp.res")
    assert normals == ((1, 1), (2, 1), (3, 2))


def test_monomial_ideals_follow_howald():
    for k, (exponents, bound) in enumerate(_monomial_cases()):
        ideal, normals = toric_resolution(exponents)
        assert ideal.valuations == tuple(support_function(exponents, a, b) for a, b in normals)
        expected = howald_jumping_numbers(exponents, bound)
        assert list(jumping_numbers(ideal, bound).values()) == expected, (exponents, bound)
        assert log_canonical_threshold(ideal) == phi(newton_edges(exponents), 1, 1)
        if k < 50:
            assert list(oracle_jumping_numbers(ideal, bound).values()) == expected


def test_fibonacci_monomial_ideal():
    exponents = [(89, 0), (0, 144)]
    ideal, _ = toric_resolution(exponents)
    assert ideal.graph.n == 11
    assert ideal.valuations[-1] == 12816
    found = jumping_numbers(ideal, 1).values()
    assert len(found) == 6292
    assert list(found) == howald_jumping_numbers(exponents, 1)
