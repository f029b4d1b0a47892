import random
from fractions import Fraction

import pytest

import math

from jumpnum import (
    Basis,
    Divisor,
    IdealSpec,
    NumericalSemigroup,
    adjacency,
    is_jumping_number,
    jumping_number_of_divisor,
    jumping_numbers,
    jumping_numbers_at,
    membership,
    multiplier_divisor,
    oracle_jumping_numbers,
    semigroup_bruteforce,
    support_vertices,
    to_basis,
)

from conftest import load_fixture, random_blowup_graph, random_ideal


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


def test_semigroup_bruteforce_generators_must_be_integers():
    for gens in ((2.5, 3), ("4", 3), (float("nan"), 3)):
        with pytest.raises(ValueError, match="is not an integer"):
            semigroup_bruteforce(gens, 5)
    assert semigroup_bruteforce((2.0, Fraction(3), True), 3) == [True] * 4


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
    return Divisor(_closure(ideal, floors), Basis.E)


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


def test_formula_supports_are_the_oracle_supports_at_support_vertices():
    # The oracle may raise more vertices than the stars and factor vertices
    # the formula scans; every vertex the per-vertex scan finds is raised.
    rng = random.Random("supports")
    ideals = [load_fixture(name) for name in ("maximal.res", "cusp.res", "sample20.res")]
    ideals += [random_ideal(rng, max_n=10, satellite_bias=0.6) for _ in range(15)]
    wider = 0
    for ideal in ideals:
        oracle = dict(oracle_jumping_numbers(ideal, 2).entries)
        kept = support_vertices(ideal)
        for xi, support in jumping_numbers(ideal, 2):
            assert support == oracle[xi] & kept
            wider += support != oracle[xi]
        for mu in range(1, ideal.graph.n + 1):
            assert all(mu in oracle[xi] for xi in jumping_numbers_at(ideal, mu, 2).values())
    assert wider > 0


def test_formula_supports_are_the_oracle_supports_at_every_vertex():
    # Both directions, at every vertex, valence one and two included: the
    # scan at mu finds exactly the jumps whose oracle support contains mu.
    rng = random.Random("every vertex")
    ideals = [load_fixture(name) for name in ("maximal.res", "cusp.res", "sample20.res")]
    ideals += [random_ideal(rng) for _ in range(60)]
    pairs = 0
    for ideal in ideals:
        oracle = oracle_jumping_numbers(ideal, 2).entries
        for mu in range(1, ideal.graph.n + 1):
            expected = tuple(xi for xi, support in oracle if mu in support)
            assert jumping_numbers_at(ideal, mu, 2).values() == expected
            pairs += 1
    assert pairs > 250


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


def _candidates(ideal, bound):
    return sorted(
        {Fraction(t, d) for d in ideal.valuations for t in range(1, int(bound * d) + 1)}
    )


def _sparse_cases(rng, count):
    """Ideals with multiplicity 2 or 3 on one to three vertices, each at
    one of the non-integer bounds 3/2 and 5/2."""
    cases = []
    for _ in range(count):
        n = rng.randint(3, 9)
        graph = random_blowup_graph(rng, n, satellite_bias=rng.choice((0.3, 0.8)))
        factorization = [0] * n
        for i in rng.sample(range(n), rng.randint(1, 3)):
            factorization[i] = rng.randint(2, 3)
        bound = rng.choice((Fraction(3, 2), Fraction(5, 2)))
        cases.append((IdealSpec(graph, tuple(factorization)), bound))
    return cases


def test_oracle_scan_equals_pointwise_jump_test():
    # The sweep carries one closure forward; the pointwise test recomputes
    # both sides cold.
    rng = random.Random(149)
    cases = [(random_ideal(rng, max_n=7), 2) for _ in range(20)]
    for _ in range(8):  # satellite-rich ideals with large valuations
        n = rng.randint(10, 20)
        graph = random_blowup_graph(rng, n, satellite_bias=0.8)
        cases.append((IdealSpec(graph, (0,) * (n - 1) + (1,)), 1))
    cases += _sparse_cases(rng, 12)
    for ideal, bound in cases:
        expected = [xi for xi in _candidates(ideal, bound) if is_jumping_number(ideal, xi)]
        assert list(oracle_jumping_numbers(ideal, bound).values()) == expected


def test_oracle_sweep_carries_the_closure(sample20_ideal):
    # After every candidate the carried coordinates equal the cold closure
    # of the floors there, and the sweep visits each candidate once.
    from jumpnum.oracle import _closure, _floors, _sweep

    rng = random.Random(151)
    for ideal, bound in [(sample20_ideal, 1)] + [(random_ideal(rng), 2) for _ in range(10)]:
        lcm = math.lcm(*ideal.valuations)
        keys = []
        for key, _, g in _sweep(ideal, bound):
            keys.append(Fraction(key, lcm))
            assert tuple(g) == _closure(ideal, _floors(ideal.valuations, key, lcm))
        assert keys == _candidates(ideal, bound)


def test_oracle_sweep_raises_the_least_ratio_set(sample20_ideal):
    # On the left-limit closure every ratio (e_i + k_i + 1) / d_i is at
    # least the candidate; it equals it exactly at a jump, on the raised set.
    from jumpnum.lattice import canonical
    from jumpnum.oracle import _least_ratio, _sweep

    rng = random.Random(163)
    cases = [(sample20_ideal, 1)] + [(random_ideal(rng), 2) for _ in range(10)]
    for ideal, bound in cases + _sparse_cases(rng, 12):
        lcm = math.lcm(*ideal.valuations)
        k = canonical(ideal.graph).k
        before = (0,) * ideal.graph.n
        for key, raised, g in _sweep(ideal, bound):
            a, b, argmin = _least_ratio(before, k, ideal.valuations)
            xi = Fraction(key, lcm)
            assert Fraction(a, b) >= xi
            assert (Fraction(a, b) == xi) == bool(raised)
            if raised:
                assert frozenset(raised) == argmin
            before = tuple(g)


def test_oracle_scan_builds_no_divisor(monkeypatch, sample20_ideal):
    # The sweep unloads plain ints; a Divisor belongs to the public boundary.
    built = []
    original = Divisor.__post_init__
    monkeypatch.setattr(Divisor, "__post_init__", lambda self: built.append(1) or original(self))
    Divisor((0,), Basis.E)
    assert built == [1]
    rng = random.Random(151)
    for ideal, bound in [(sample20_ideal, 1)] + [(random_ideal(rng), 2) for _ in range(10)]:
        built.clear()
        assert oracle_jumping_numbers(ideal, bound).values()
        assert built == []


def test_oracle_scan_supports_match_the_left_divisor():
    # The scan reads supports off the raise, without the closure below the
    # jump that the public function takes.
    rng = random.Random(157)
    cases = [(random_ideal(rng, max_n=8), 2) for _ in range(20)] + _sparse_cases(rng, 12)
    for ideal, bound in cases:
        for xi, support in oracle_jumping_numbers(ideal, bound):
            realized, expected = jumping_number_of_divisor(ideal, _left_divisor(ideal, xi))
            assert (realized, support) == (xi, expected)
