import math
import random
from fractions import Fraction

import pytest

from jumpnum import (
    NumericalSemigroup,
    ResolutionGraph,
    adjacency,
    associated_pairs,
    branch,
    branch_gcd,
    frobenius_multiple,
    inverse_proximity,
    membership,
    semigroup_bruteforce,
    value_semigroup,
    valuation_table,
    vertex_semigroup,
)

from conftest import random_blowup_graph, random_curve_graph


@pytest.fixture(scope="module")
def cusp():
    graph = ResolutionGraph.build(3, {2: (1,), 3: (1, 2)})
    return graph, valuation_table(graph)


def test_branch_gcd_cusp(cusp):
    graph, table = cusp
    assert branch_gcd(table, graph, 3, 1) == 2
    assert branch_gcd(table, graph, 3, 2) == 3


def test_branch_gcd_rejects_equal_vertices(cusp):
    graph, table = cusp
    with pytest.raises(ValueError):
        branch_gcd(table, graph, 3, 3)


def test_branch_gcd_sample20(sample20_ideal):
    graph = sample20_ideal.graph
    table = valuation_table(sample20_ideal.graph)
    assert [branch_gcd(table, graph, 1, nu) for nu in (3, 10, 16, 20)] == [1, 1, 1, 1]
    assert [branch_gcd(table, graph, 3, nu) for nu in (1, 2, 9)] == [2, 3, 6]


def test_frobenius_multiple_cusp(cusp):
    graph, table = cusp
    assert frobenius_multiple(table, graph, 3, 2) == -3
    assert frobenius_multiple(table, graph, 3, 1) == -2


def test_frobenius_multiple_at_vertex_itself(cusp):
    graph, table = cusp
    assert frobenius_multiple(table, graph, 3, 3) == -6
    assert frobenius_multiple(table, graph, 1, 1) == -1


def test_frobenius_multiple_on_path_branch_is_minus_end_value():
    # 1 - 2 - 3 - 4 chain of free points: every branch is a path.
    graph = ResolutionGraph.build(4, {2: (1,), 3: (2,), 4: (3,)})
    table = valuation_table(graph)
    assert frobenius_multiple(table, graph, 4, 3) == -table.entry(4, 1)
    assert frobenius_multiple(table, graph, 1, 2) == -table.entry(1, 4)


def test_vertex_semigroup_single_vertex():
    graph = ResolutionGraph.build(1)
    semigroup = vertex_semigroup(valuation_table(graph), graph, 1)
    assert semigroup.generators == (1,)
    assert all(membership(semigroup, x) for x in range(10))


def test_vertex_semigroup_cusp(cusp):
    graph, table = cusp
    semigroup = vertex_semigroup(table, graph, 3)
    assert semigroup.generators == (2, 3, 6)
    assert semigroup.gcd() == 1
    assert semigroup.frobenius_number() == 1


def test_vertex_semigroup_sample20(sample20_ideal):
    graph = sample20_ideal.graph
    table = valuation_table(sample20_ideal.graph)
    limit = 200

    def members(gens):
        return semigroup_bruteforce(gens, limit)

    assert members(vertex_semigroup(table, graph, 7).generators) == members((3, 22))
    assert members(vertex_semigroup(table, graph, 9).generators) == members((2, 13))
    assert members(vertex_semigroup(table, graph, 13).generators) == members((3, 7))


def test_membership_small_cases():
    two_three = NumericalSemigroup((2, 3))
    assert not membership(two_three, 1)
    assert membership(two_three, 2)
    assert membership(two_three, 5)
    assert membership(two_three, 0)
    assert not membership(two_three, -3)
    sparse = NumericalSemigroup((3, 22))
    assert not membership(sparse, 19)
    assert membership(sparse, 22)


def test_membership_rejects_negative_and_non_integral_numbers():
    for gens in ((2, 3), (1,), (4, 6)):
        semigroup = NumericalSemigroup(gens)
        assert membership(semigroup, 0)
        assert 0 in semigroup
        for x in (-1, -2, -6, Fraction(-4), Fraction(3, 2), Fraction(13, 2), 2.5):
            assert not membership(semigroup, x)
            assert x not in semigroup
    assert membership(NumericalSemigroup((2, 3)), Fraction(4))


def test_generators_must_be_integers():
    for gens in ((2.5, 3), ("4", 3), (float("inf"), 3)):
        with pytest.raises(ValueError, match="is not an integer"):
            NumericalSemigroup(gens)
    assert NumericalSemigroup((2.0, Fraction(4), True)).generators == (1, 2, 4)


def _random_generators(rng):
    gens = {rng.randint(2, 30) for _ in range(rng.randint(1, 4))}
    kind = rng.randrange(3)
    if kind == 1:
        factor = rng.randint(2, 4)
        gens = {g * factor for g in gens}  # gcd > 1
    elif kind == 2:
        gens.add(1)
    return tuple(sorted(gens))


def test_apery_membership_agrees_with_bruteforce():
    rng = random.Random(59)
    for _ in range(80):
        gens = _random_generators(rng)
        semigroup = NumericalSemigroup(gens)
        m = gens[0]
        # Every Apery element is a sum of fewer than m generators.
        limit = max(m, 5) * max(gens)
        members = semigroup_bruteforce(gens, limit)
        assert [membership(semigroup, x) for x in range(limit + 1)] == members
        for r, least in enumerate(semigroup.apery):
            in_class = [x for x in range(r, limit + 1, m) if members[x]]
            assert least == (in_class[0] if in_class else None)


def test_membership_agrees_with_bruteforce():
    rng = random.Random(61)
    for _ in range(60):
        gens = tuple(sorted({rng.randint(1, 40) for _ in range(rng.randint(1, 4))}))
        semigroup = NumericalSemigroup(gens)
        limit = 150
        table = semigroup_bruteforce(gens, limit)
        for x in range(limit + 1):
            assert membership(semigroup, x) == table[x]


def test_frobenius_number_two_coprime_generators():
    rng = random.Random(67)
    seen = 0
    while seen < 25:
        a, b = rng.randint(2, 25), rng.randint(2, 25)
        if math.gcd(a, b) != 1:
            continue
        seen += 1
        assert NumericalSemigroup((a, b)).frobenius_number() == a * b - a - b


def test_frobenius_number_three_or_more_generators():
    rng = random.Random(97)
    seen = 0
    while seen < 40:
        gens = tuple(sorted({rng.randint(2, 30) for _ in range(rng.randint(3, 5))}))
        if len(gens) < 3 or math.gcd(*gens) != 1:
            continue
        seen += 1
        members = semigroup_bruteforce(gens, gens[0] * gens[-1])
        gaps = [x for x, member in enumerate(members) if not member]
        expected = gaps[-1] if gaps else -1
        assert NumericalSemigroup(gens).frobenius_number() == expected


def test_frobenius_number_requires_coprime_generators():
    with pytest.raises(ValueError, match="infinite"):
        NumericalSemigroup((4, 6)).frobenius_number()
    assert NumericalSemigroup((1, 5)).frobenius_number() == -1


def test_value_semigroup_single_vertex():
    graph = ResolutionGraph.build(1)
    assert value_semigroup(valuation_table(graph), graph, 1).generators == (1,)


def test_value_semigroup_cusp(cusp):
    graph, table = cusp
    assert value_semigroup(table, graph, 3).generators == (2, 3)


def test_value_semigroup_matches_full_generator_set():
    # Ends alone generate the same monoid as all the row values.
    rng = random.Random(71)
    for _ in range(40):
        graph = random_blowup_graph(rng, rng.randint(1, 8))
        table = valuation_table(graph)
        for mu in range(1, graph.n + 1):
            ends = value_semigroup(table, graph, mu)
            row = table.row(mu)
            limit = 2 * max(row) + 1
            table_members = semigroup_bruteforce(ends.generators, limit)
            assert all(table_members[value] for value in row)


def test_vertex_semigroup_generators_are_coprime():
    rng = random.Random(73)
    for _ in range(40):
        graph = random_blowup_graph(rng, rng.randint(1, 8))
        table = valuation_table(graph)
        for mu in range(1, graph.n + 1):
            assert vertex_semigroup(table, graph, mu).gcd() == 1


def test_posterior_branch_gcd_is_diagonal_value():
    rng = random.Random(79)
    found = 0
    for _ in range(60):
        graph = random_blowup_graph(rng, rng.randint(2, 8))
        table = valuation_table(graph)
        for nu in range(2, graph.n + 1):
            targets = graph.prox_of(nu)
            if len(targets) != 1:
                continue
            mu = targets[0]
            found += 1
            assert branch_gcd(table, graph, mu, nu) == table.entry(mu, mu)
    assert found > 30


def test_anterior_branch_gcd_through_anchor_is_inverse_proximity_entry():
    # On the minimal resolution of a simple ideal the branch through the
    # anchor has gcd equal to the inverse-proximity entry at the anchor.
    rng = random.Random(83)
    for _ in range(40):
        graph = random_curve_graph(rng, rng.randint(3, 8), end_satellite=True)
        mu = graph.n
        table = valuation_table(graph)
        q = inverse_proximity(graph)
        gamma, tau = associated_pairs(graph, mu).pairs[-1]
        assert branch_gcd(table, graph, mu, gamma) == q[mu - 1][gamma - 1]
        if tau != mu:
            assert branch_gcd(table, graph, mu, tau) == table.entry(mu, tau)


def test_frobenius_multiple_maximality_bruteforce():
    rng = random.Random(89)
    for _ in range(25):
        graph = random_blowup_graph(rng, rng.randint(2, 7))
        table = valuation_table(graph)
        dual = adjacency(graph)
        for mu in range(1, graph.n + 1):
            for nu in dual.neighbors_of(mu):
                s = branch_gcd(table, graph, mu, nu)
                multiple = frobenius_multiple(table, graph, mu, nu)
                assert multiple % s == 0
                diag = table.entry(mu, mu)
                gens = sorted(
                    {table.entry(mu, i) for i in branch(graph, mu, nu)} | {diag}
                )
                limit = max(multiple, 0) + diag * s + s
                members = semigroup_bruteforce(gens, limit)
                absent = [
                    x for x in range(0, limit + 1, s) if not members[x]
                ]
                if multiple >= 0:
                    assert absent and absent[-1] == multiple
                else:
                    assert not absent
                    assert multiple == -s


def test_vertex_out_of_range_is_rejected(cusp):
    # 0 and -1 used to read the last vertex
    single = ResolutionGraph(1, ((),))
    for graph, table in (cusp, (single, valuation_table(single))):
        for mu in (0, -1, graph.n + 1):
            for call in (vertex_semigroup, value_semigroup):
                with pytest.raises(ValueError, match="vertex out of range"):
                    call(table, graph, mu)
            with pytest.raises(ValueError, match="vertex out of range"):
                frobenius_multiple(table, graph, mu, mu)
