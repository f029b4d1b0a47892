import random
from fractions import Fraction

import pytest

import math

from jumpnum import (
    Basis,
    Divisor,
    NumericalSemigroup,
    adjacency,
    canonical,
    is_jumping_number,
    jumping_number_of_divisor,
    jumping_numbers,
    membership,
    multiplier_divisor,
    oracle_jumping_numbers,
    semigroup_bruteforce,
    to_basis,
)

from conftest import random_ideal


def test_multiplier_divisor_maximal(maximal_ideal):
    assert multiplier_divisor(maximal_ideal, 1).divisor.coords == (0,)
    assert multiplier_divisor(maximal_ideal, 2).divisor.coords == (1,)
    assert multiplier_divisor(maximal_ideal, 0).divisor.coords == (0,)


def test_multiplier_divisor_is_antinef_in_dual_basis(cusp_ideal):
    result = multiplier_divisor(cusp_ideal, Fraction(5, 6))
    assert result.divisor.basis == Basis.E_HAT
    assert all(c >= 0 for c in result.divisor.coords)
    assert result.divisor.coords == (1, 0, 0)


def test_multiplier_divisor_rejects_negative(cusp_ideal):
    with pytest.raises(ValueError):
        multiplier_divisor(cusp_ideal, Fraction(-1, 2))


def test_is_jumping_number_examples(maximal_ideal, cusp_ideal):
    assert is_jumping_number(maximal_ideal, 2)
    assert not is_jumping_number(maximal_ideal, Fraction(3, 2))
    assert is_jumping_number(cusp_ideal, Fraction(5, 6))
    assert not is_jumping_number(cusp_ideal, Fraction(1, 2))
    assert not is_jumping_number(cusp_ideal, 1)


def test_oracle_jumping_numbers_maximal(maximal_ideal):
    found = oracle_jumping_numbers(maximal_ideal, 3)
    assert found.values() == (2, 3)
    assert found.support_of(2) == frozenset({1})


def test_oracle_jumping_numbers_cusp(cusp_ideal):
    found = oracle_jumping_numbers(cusp_ideal, 1)
    assert found.entries == ((Fraction(5, 6), frozenset({3})),)


def test_jumping_number_of_divisor_examples(maximal_ideal, cusp_ideal):
    xi, support = jumping_number_of_divisor(maximal_ideal, Divisor((0,), Basis.E))
    assert (xi, support) == (2, frozenset({1}))
    xi, support = jumping_number_of_divisor(cusp_ideal, Divisor((0, 0, 0), Basis.E))
    assert (xi, support) == (Fraction(5, 6), frozenset({3}))
    xi, support = jumping_number_of_divisor(cusp_ideal, Divisor((2, 3, 6), Basis.E))
    assert (xi, support) == (Fraction(11, 6), frozenset({3}))


def test_jumping_number_of_divisor_rejects_non_antinef(cusp_ideal):
    with pytest.raises(ValueError):
        jumping_number_of_divisor(cusp_ideal, Divisor((0, 0, 1), Basis.E))


def test_semigroup_bruteforce_tables():
    table = semigroup_bruteforce((2, 3), 6)
    assert [x for x, m in enumerate(table) if m] == [0, 2, 3, 4, 5, 6]
    table = semigroup_bruteforce((3, 22), 25)
    assert [x for x, m in enumerate(table) if m] == [0, 3, 6, 9, 12, 15, 18, 21, 22, 24, 25]
    assert all(semigroup_bruteforce((1,), 5))


def test_semigroup_bruteforce_matches_membership():
    rng = random.Random(113)
    for _ in range(30):
        gens = tuple(sorted({rng.randint(1, 30) for _ in range(rng.randint(1, 4))}))
        table = semigroup_bruteforce(gens, 90)
        semigroup = NumericalSemigroup(gens)
        assert [membership(semigroup, x) for x in range(91)] == table


def test_multiplier_divisors_are_nested():
    rng = random.Random(127)
    for _ in range(10):
        ideal = random_ideal(rng, max_n=6)
        lcm = 1
        for d in ideal.valuations:
            lcm = lcm * d // math.gcd(lcm, d)
        step = Fraction(1, min(lcm, 400))
        previous = None
        xi = Fraction(0)
        while xi <= 2:
            current = to_basis(
                multiplier_divisor(ideal, xi).divisor, Basis.E, ideal.graph
            ).coords
            if previous is not None:
                assert all(a >= b for a, b in zip(current, previous))
            previous = current
            xi += step


def test_left_limit_divisor_realizes_the_jump(maximal_ideal, cusp_ideal, sample20_ideal):
    for ideal, bound in ((maximal_ideal, 3), (cusp_ideal, 2), (sample20_ideal, 1)):
        found = oracle_jumping_numbers(ideal, bound)
        for xi, support in found:
            at_jump = multiplier_divisor(ideal, xi)
            realized, _ = jumping_number_of_divisor(ideal, at_jump.divisor)
            assert is_jumping_number(ideal, realized)
            # the divisor just below xi realizes xi itself
            assert support == jumping_number_of_divisor(
                ideal, _left_divisor(ideal, xi)
            )[1]
            assert jumping_number_of_divisor(ideal, _left_divisor(ideal, xi))[0] == xi


def _left_divisor(ideal, xi):
    from jumpnum.oracle import _closure, _floors

    floors = _floors(ideal.valuations, xi.numerator, xi.denominator, left=True)
    return Divisor(_closure(ideal, canonical(ideal.graph).k, floors), Basis.E)


def test_oracle_supports_contain_star_or_factor_vertex():
    rng = random.Random(131)
    for _ in range(12):
        ideal = random_ideal(rng, max_n=6)
        dual = adjacency(ideal.graph)
        stars = set(dual.stars)
        for xi, support in oracle_jumping_numbers(ideal, 2):
            assert any(
                mu in stars or ideal.factorization[mu - 1] > 0 for mu in support
            )


def test_oracle_matches_formula_on_random_ideals():
    rng = random.Random(137)
    for _ in range(12):
        ideal = random_ideal(rng, max_n=7)
        assert (
            oracle_jumping_numbers(ideal, 2).values()
            == jumping_numbers(ideal, 2).values()
        )


def test_integer_floors_match_fraction_floors():
    from jumpnum.oracle import _floors

    rng = random.Random(139)
    for _ in range(500):
        q = rng.randint(1, 40)
        d = rng.randint(1, 200)
        p = rng.randint(1, 3 * q)
        if rng.randrange(3) == 0:  # put xi*d on an integer
            p = rng.randint(1, 3 * d) * q // math.gcd(q, d)
        xi = Fraction(p, q)
        scaled = xi * d
        left = int(scaled) - 1 if scaled.denominator == 1 else math.floor(scaled)
        assert _floors((d,), xi.numerator, xi.denominator) == (math.floor(scaled),)
        assert _floors((d,), xi.numerator, xi.denominator, left=True) == (left,)
        # unreduced keys over a common multiple give the same floors
        assert _floors((d,), p * 7, q * 7, left=True) == (left,)


def test_oracle_scan_equals_pointwise_jump_test():
    rng = random.Random(149)
    for _ in range(20):
        ideal = random_ideal(rng, max_n=7)
        candidates = sorted(
            {Fraction(t, d) for d in ideal.valuations for t in range(1, 2 * d + 1)}
        )
        expected = [xi for xi in candidates if is_jumping_number(ideal, xi)]
        assert list(oracle_jumping_numbers(ideal, 2).values()) == expected
