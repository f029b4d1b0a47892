import itertools
import random
from fractions import Fraction

import pytest

from jumpnum import (
    Basis,
    Divisor,
    ResolutionGraph,
    adjacency,
    antinef_closure,
    canonical,
    intersection_form,
    inverse_proximity,
    is_antinef,
    to_basis,
    valuation_ratio,
    valuation_table,
)
from jumpnum.sample20 import VALUATION_MATRIX

from conftest import random_blowup_graph


def fractions(*values):
    return tuple(Fraction(v) for v in values)


def test_valuation_table_two_chain():
    table = valuation_table(ResolutionGraph.build(2, {2: (1,)}))
    assert table.matrix == ((1, 1), (1, 2))


def test_valuation_table_cusp(cusp_graph):
    assert valuation_table(cusp_graph).matrix == ((1, 1, 2), (1, 2, 3), (2, 3, 6))


def test_valuation_table_sample20(sample20_ideal):
    assert valuation_table(sample20_ideal.graph).matrix == VALUATION_MATRIX


def test_dual_unit_converts_to_table_row(cusp_graph):
    unit = Divisor(fractions(0, 0, 1), Basis.E_HAT)
    e = to_basis(unit, Basis.E, cusp_graph)
    assert e.coords == fractions(2, 3, 6)


def test_zero_divisor_is_zero_in_all_bases(cusp_graph):
    zero = Divisor(fractions(0, 0, 0), Basis.E)
    for basis in Basis:
        assert to_basis(zero, basis, cusp_graph).coords == fractions(0, 0, 0)


def test_sample20_heavy_vertex_value(sample20_ideal):
    hat = Divisor(tuple(Fraction(x) for x in sample20_ideal.factorization), Basis.E_HAT)
    e = to_basis(hat, Basis.E, sample20_ideal.graph)
    assert e.coords[0] == 31


def test_base_change_round_trips_exactly():
    rng = random.Random(11)
    for _ in range(30):
        graph = random_blowup_graph(rng, rng.randint(1, 8))
        coords = fractions(*(rng.randint(-9, 9) for _ in range(graph.n)))
        for start in Basis:
            divisor = Divisor(coords, start)
            for order in itertools.permutations(Basis):
                current = divisor
                for basis in order:
                    current = to_basis(current, basis, graph)
                assert to_basis(current, start, graph).coords == coords


def test_dimension_mismatch_rejected(cusp_graph):
    with pytest.raises(ValueError):
        to_basis(Divisor(fractions(1, 2), Basis.E), Basis.E_HAT, cusp_graph)


def test_integral_divisors_stay_integral_in_every_basis():
    rng = random.Random(13)
    for _ in range(20):
        graph = random_blowup_graph(rng, rng.randint(1, 8))
        coords = fractions(*(rng.randint(-5, 5) for _ in range(graph.n)))
        for start in Basis:
            divisor = Divisor(coords, start)
            for target in Basis:
                assert to_basis(divisor, target, graph).is_integral()


def test_canonical_single_vertex():
    data = canonical(ResolutionGraph.build(1))
    assert data.k == (1,)
    assert data.k_hat == (1,)


def test_canonical_two_chain():
    data = canonical(ResolutionGraph.build(2, {2: (1,)}))
    assert data.k == (1, 2)
    assert data.k_hat == (0, 1)


def test_canonical_cusp(cusp_graph):
    data = canonical(cusp_graph)
    assert data.k == (1, 2, 4)
    assert data.k_hat == (-1, 0, 1)
    table = valuation_table(cusp_graph)
    recovered = tuple(
        sum(data.k_hat[i] * table.matrix[i][j] for i in range(3)) for j in range(3)
    )
    assert recovered == data.k


def test_is_antinef_examples(cusp_graph):
    assert is_antinef(Divisor(fractions(1, 0, 0), Basis.E_HAT), cusp_graph)
    assert not is_antinef(Divisor(fractions(0, 0, 1), Basis.E), cusp_graph)
    assert is_antinef(Divisor(fractions(0, 0, 0), Basis.E), cusp_graph)


def test_antinef_closure_fixed_point(cusp_graph):
    divisor = Divisor(fractions(2, 3, 6), Basis.E)
    assert antinef_closure(divisor, cusp_graph).coords == fractions(2, 3, 6)


def test_antinef_closure_cusp_unit_is_maximal_ideal(cusp_graph):
    # Raising the last vertex forces both earlier ones up exactly to the
    # divisor of the maximal ideal.
    closed = antinef_closure(Divisor(fractions(0, 0, 1), Basis.E), cusp_graph)
    assert closed.coords == fractions(1, 1, 2)


def test_antinef_closure_minimality_exhaustive(cusp_graph):
    start = (0, 0, 1)
    closed = antinef_closure(Divisor(fractions(*start), Basis.E), cusp_graph)
    closed_ints = closed.int_coords()
    box = [range(s, c + 1) for s, c in zip(start, closed_ints)]
    antinef_in_box = [
        g
        for g in itertools.product(*box)
        if is_antinef(Divisor(fractions(*g), Basis.E), cusp_graph)
    ]
    assert antinef_in_box == [closed_ints]


def test_antinef_closure_clamps_negative_part():
    graph = ResolutionGraph.build(1)
    closed = antinef_closure(Divisor(fractions(-1), Basis.E), graph)
    assert closed.coords == fractions(0)


def test_antinef_closure_rejects_non_integral(cusp_graph):
    with pytest.raises(ValueError):
        antinef_closure(Divisor(fractions(Fraction(1, 2), 0, 0), Basis.E), cusp_graph)


def test_antinef_closure_idempotent_and_dominating():
    rng = random.Random(23)
    for _ in range(60):
        graph = random_blowup_graph(rng, rng.randint(1, 8))
        coords = fractions(*(rng.randint(-4, 6) for _ in range(graph.n)))
        divisor = Divisor(coords, Basis.E)
        closed = antinef_closure(divisor, graph)
        assert is_antinef(closed, graph)
        assert all(c >= max(x, 0) for c, x in zip(closed.coords, coords))
        again = antinef_closure(closed, graph)
        assert again.coords == closed.coords


def test_antinef_closure_below_every_dominating_antinef():
    rng = random.Random(29)
    for _ in range(40):
        graph = random_blowup_graph(rng, rng.randint(1, 7))
        table = valuation_table(graph)
        n = graph.n
        start = tuple(rng.randint(-3, 5) for _ in range(n))
        closed = antinef_closure(Divisor(fractions(*start), Basis.E), graph).int_coords()
        # random antinef divisors are nonnegative mixes of table rows
        for _ in range(10):
            hat = [rng.randint(0, 3) for _ in range(n)]
            dominating = [
                sum(hat[i] * table.matrix[i][j] for i in range(n)) for j in range(n)
            ]
            bump = max(
                (s - d for s, d in zip(start, dominating) if s > d), default=0
            )
            if bump:
                # ensure domination by adding copies of the last row
                dominating = [
                    d + bump * table.matrix[n - 1][j]
                    for j, d in enumerate(dominating)
                ]
            assert all(c <= d for c, d in zip(closed, dominating))


def test_nonzero_antinef_divisors_are_positive_everywhere():
    rng = random.Random(31)
    for _ in range(40):
        graph = random_blowup_graph(rng, rng.randint(1, 8))
        n = graph.n
        hat = [rng.randint(0, 2) for _ in range(n)]
        if not any(hat):
            hat[rng.randrange(n)] = 1
        divisor = to_basis(
            Divisor(fractions(*hat), Basis.E_HAT), Basis.E, graph
        )
        assert all(c > 0 for c in divisor.coords)


def test_valuation_ratio_reflexive_and_chain():
    table = valuation_table(ResolutionGraph.build(2, {2: (1,)}))
    assert valuation_ratio(table, 1, 1, 2) == 1
    assert valuation_ratio(table, 1, 2, 1) == 1
    assert valuation_ratio(table, 1, 2, 2) == 2


def test_valuation_ratio_adjacent_identity():
    rng = random.Random(37)
    for _ in range(40):
        graph = random_blowup_graph(rng, rng.randint(2, 8))
        table = valuation_table(graph)
        dual = adjacency(graph)
        for mu in range(1, graph.n + 1):
            for gamma in dual.neighbors_of(mu):
                expected = Fraction(table.entry(gamma, mu) + 1, table.entry(mu, mu))
                assert valuation_ratio(table, mu, gamma, gamma) == expected


def test_table_is_inverse_of_intersection_form():
    rng = random.Random(41)
    for _ in range(40):
        graph = random_blowup_graph(rng, rng.randint(1, 8))
        n = graph.n
        form = intersection_form(graph)
        table = valuation_table(graph).matrix
        q = inverse_proximity(graph)
        prox = [
            [1 if i == j else (-1 if (j + 1) in graph.prox[i] else 0) for j in range(n)]
            for i in range(n)
        ]
        identity = tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
        product = tuple(
            tuple(sum(prox[i][k] * q[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        assert product == identity
        product = tuple(
            tuple(sum(form[i][k] * table[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        assert product == identity
        assert table == tuple(tuple(row) for row in zip(*table))


def _reference_closure(coords, graph):
    """Unloading on the rows of the intersection form, without shortcuts."""
    n = graph.n
    form = intersection_form(graph)
    g = [max(c, 0) for c in coords]
    while True:
        ghat = [sum(g[k] * form[k][j] for k in range(n)) for j in range(n)]
        j = next((j for j in range(n) if ghat[j] < 0), None)
        if j is None:
            return tuple(g)
        g[j] -= ghat[j] // form[j][j]  # ceil(-ghat_j / w_j)


def test_antinef_closure_matches_intersection_form_unloading():
    rng = random.Random(43)
    for bias in (0.3, 0.8):
        for _ in range(25):
            graph = random_blowup_graph(rng, rng.randint(1, 30), bias)
            coords = tuple(rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(graph.n))
            closed = antinef_closure(Divisor(coords, Basis.E), graph).coords
            assert closed == _reference_closure(coords, graph)
            assert all(type(c) is int for c in closed)


def test_is_antinef_agrees_with_dual_coordinate_signs():
    rng = random.Random(47)
    for bias in (0.3, 0.8):
        for _ in range(25):
            graph = random_blowup_graph(rng, rng.randint(1, 30), bias)
            denominator = rng.choice((1, 2, 3))
            coords = tuple(
                Fraction(rng.randint(-4, 8), denominator) for _ in range(graph.n)
            )
            for basis in Basis:
                divisor = Divisor(coords, basis)
                hat = to_basis(divisor, Basis.E_HAT, graph).coords
                assert is_antinef(divisor, graph) == all(c >= 0 for c in hat)


def test_divisor_coordinates_are_int_where_integral():
    from_ints = Divisor((3, 0, -2), Basis.E)
    from_fractions = Divisor(fractions(3, 0, -2), Basis.E)
    assert from_ints == from_fractions
    assert hash(from_ints) == hash(from_fractions)
    assert all(type(c) is int for c in from_fractions.coords)
    assert from_fractions.int_coords() == (3, 0, -2)


def test_divisor_keeps_non_integers_exact():
    divisor = Divisor((Fraction(3, 2), 0.5, 1), Basis.E_HAT)
    assert divisor.coords == (Fraction(3, 2), Fraction(1, 2), 1)
    assert [type(c) for c in divisor.coords] == [Fraction, Fraction, int]
    assert not divisor.is_integral()
    with pytest.raises(ValueError):
        divisor.int_coords()
