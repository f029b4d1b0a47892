"""Acceptance criteria, one test per criterion.

Each test prints a single ``AC-k PASS`` line on success (visible with
``pytest -s`` or ``-rP``); a failure surfaces as a normal pytest failure
before the line is printed.  All comparisons are exact; runtime budgets
are asserted where stated.
"""

import itertools
import random
import time
from fractions import Fraction

from jumpnum import (
    IdealSpec,
    adjacency,
    associated_pairs,
    branch,
    branch_gcd,
    branch_value,
    canonical,
    frobenius_multiple,
    intersection_form,
    inverse_proximity,
    jumping_numbers,
    jumping_numbers_at,
    oracle_jumping_numbers,
    proximity_matrix,
    semigroup_bruteforce,
    to_basis,
    valuation_table,
    vertex_semigroup,
)
from jumpnum.lattice import Basis, Divisor
from jumpnum.sample20 import VALUATION_MATRIX

from conftest import (
    load_fixture,
    random_blowup_graph,
    random_curve_graph,
    random_ideal,
    simple_ideal_with_valence_two,
)


def _report(name, started):
    print(f"{name} PASS ({time.monotonic() - started:.2f}s)")


def test_ac1_valuation_matrix_exact():
    started = time.monotonic()
    ideal = load_fixture("sample20.res")
    assert valuation_table(ideal.graph).matrix == VALUATION_MATRIX
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report("AC-1", started)


def test_ac2_valuation_vector():
    started = time.monotonic()
    ideal = load_fixture("sample20.res")
    assert ideal.valuations == (
        31, 39, 78, 85, 87, 174, 261, 263, 164, 37,
        39, 78, 117, 119, 34, 68, 70, 139, 210, 34,
    )
    _report("AC-2", started)


def test_ac3_semigroup_data():
    started = time.monotonic()
    ideal = load_fixture("sample20.res")
    graph, table = ideal.graph, valuation_table(ideal.graph)

    assert [branch_gcd(table, graph, 1, nu) for nu in (3, 10, 16, 20)] == [1, 1, 1, 1]
    assert [branch_gcd(table, graph, 3, nu) for nu in (1, 2, 9)] == [2, 3, 6]

    def same_monoid(generators, reference, limit=200):
        return semigroup_bruteforce(generators, limit) == semigroup_bruteforce(
            reference, limit
        )

    assert same_monoid(vertex_semigroup(table, graph, 7).generators, (3, 22))
    assert same_monoid(vertex_semigroup(table, graph, 9).generators, (2, 13))
    assert same_monoid(vertex_semigroup(table, graph, 13).generators, (3, 7))

    assert [branch_value(ideal, 1, nu) for nu in (3, 10, 16, 20)] == [16, 6, 6, 3]
    assert [branch_value(ideal, 3, nu) for nu in (1, 2, 9)] == [30, 0, 48]
    _report("AC-3", started)


def _closed_form_sets(bound):
    """Expected jumping sets of the 20-vertex sample, from closed-form
    generators, intersected with (0, bound]."""

    def keep(numerators, den):
        return {
            Fraction(t, den)
            for t in numerators
            if 0 < Fraction(t, den) <= bound
        }

    def periodic(base, den):
        out = set()
        for t in base:
            x = t
            while Fraction(x, den) <= bound:
                out.add(x)
                x += den
        return keep(out, den)

    integers = {Fraction(k) for k in range(1, int(bound) + 1)}
    expected = {}

    expected[1] = periodic(
        {t + 10 * m for t in (3, 4, 5, 7, 8, 9, 10) for m in (0, 1, 2)}, 31
    ) | integers

    expected[3] = periodic(
        {
            5 + 10 * t + 2 * m
            for t in range(8)
            for m in range(3)
            if m < 3 - Fraction(t, 4)
        },
        78,
    ) | integers

    def capped(tvals, shift, den, cap_num, cap_den):
        out = set()
        for t in tvals:
            for p in (0, 1):
                m = 0
                while Fraction(t + 3 * m + shift * p, den) <= Fraction(
                    cap_num * (1 + p), cap_den
                ):
                    out.add(t + 3 * m + shift * p)
                    m += 1
        return out

    expected[7] = periodic(capped((46, 89), 129, 261, 1, 2), 261) | integers
    expected[8] = keep(range(132, int(bound * 263) + 1), 263)

    nums9 = set()
    for t in itertools.count():
        if 19 + 21 * t > bound * 164:
            break
        m = 0
        while m <= 4 + Fraction(16 * t, 5):
            if m >= Fraction(3 - t, 3):
                nums9.add(19 + 21 * t + 2 * m)
            m += 1
    expected[9] = keep(nums9, 164)

    expected[13] = periodic(capped((22, 41), 57, 117, 1, 2), 117) | integers
    expected[14] = keep(range(60, int(bound * 119) + 1), 119)

    expected[16] = periodic(
        {
            t + 2 * m
            for t in (11, 33, 55, 66)
            for m in (1, 2, 3, 4, 5, 6)
            if t + 2 * m <= 68 and t + 2 * m != 23
        },
        68,
    )

    nums19 = set()
    for t in (71, 142, 210):
        x = t
        while Fraction(x, 210) <= bound:
            nums19.add(x)
            x += 3
    expected[19] = keep(nums19, 210)
    expected[20] = keep(range(12, int(bound * 34) + 1), 34)
    return expected


def test_ac4_closed_form_sets():
    started = time.monotonic()
    ideal = load_fixture("sample20.res")
    expected = _closed_form_sets(Fraction(3))
    for vertex, reference in expected.items():
        computed = set(jumping_numbers_at(ideal, vertex, 3).values())
        assert computed == reference, f"vertex {vertex}"
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report("AC-4", started)


def test_ac5_oracle_equivalence():
    started = time.monotonic()
    for name in ("sample20.res", "cusp.res", "maximal.res"):
        ideal = load_fixture(name)
        assert (
            oracle_jumping_numbers(ideal, 2).values()
            == jumping_numbers(ideal, 2).values()
        ), name
    rng = random.Random(20260601)
    for index in range(20):
        ideal = random_ideal(rng, max_n=8)
        assert (
            oracle_jumping_numbers(ideal, 2).values()
            == jumping_numbers(ideal, 2).values()
        ), f"random ideal {index}: {ideal}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report("AC-5", started)


def test_ac6_simple_ideal_closed_form():
    started = time.monotonic()
    rng = random.Random(424242)
    seen = 0
    while seen < 10:
        ideal = simple_ideal_with_valence_two(rng)
        mu = ideal.graph.n
        assert adjacency(ideal.graph).valence(mu) == 2
        gamma, tau = associated_pairs(ideal.graph, mu).pairs[-1]
        a = inverse_proximity(ideal.graph)[mu - 1][gamma - 1]
        b = valuation_table(ideal.graph).entry(mu, tau)
        reference = {
            Fraction(s + 1, a) + Fraction(t + 1, b)
            for s in range(2 * a)
            for t in range(2 * b)
        }
        reference = {xi for xi in reference if xi <= 2}
        computed = set(jumping_numbers_at(ideal, mu, 2).values())
        assert computed == reference, ideal
        seen += 1
    cusp = load_fixture("cusp.res")
    assert min(jumping_numbers_at(cusp, 3, 2).values()) == Fraction(5, 6)
    _report("AC-6", started)


def test_ac7_low_valence_emptiness():
    started = time.monotonic()
    rng = random.Random(7117)
    seen_valence_one = 0
    seen_valence_two = 0
    while seen_valence_one < 10 or seen_valence_two < 10:
        ideal = random_ideal(rng, max_n=8)
        dual = adjacency(ideal.graph)
        for mu in range(1, ideal.graph.n + 1):
            if ideal.factorization[mu - 1] != 0:
                continue
            if dual.valence(mu) == 1 and seen_valence_one < 10:
                assert jumping_numbers_at(ideal, mu, 2).values() == ()
                seen_valence_one += 1
            if dual.valence(mu) == 2 and seen_valence_two < 10:
                bare = any(
                    all(
                        ideal.factorization[i - 1] == 0
                        for i in branch(ideal.graph, mu, nu)
                    )
                    for nu in dual.neighbors_of(mu)
                )
                if bare:
                    assert jumping_numbers_at(ideal, mu, 2).values() == ()
                    seen_valence_two += 1
    _report("AC-7", started)


def _all_pairs_paths(dual, n):
    paths = {}
    for start in range(1, n + 1):
        parent = {start: None}
        queue = [start]
        while queue:
            v = queue.pop(0)
            for w in dual.neighbors_of(v):
                if w not in parent:
                    parent[w] = v
                    queue.append(w)
        for goal in range(1, n + 1):
            node, chain = goal, []
            while node is not None:
                chain.append(node)
                node = parent[node]
            paths[start, goal] = tuple(reversed(chain))
    return paths


def _check_matrix_identities(graph):
    n = graph.n
    p = proximity_matrix(graph)
    q = inverse_proximity(graph)
    form = intersection_form(graph)
    table = valuation_table(graph).matrix
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert tuple(
        tuple(sum(p[i][k] * q[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    ) == identity
    assert table == tuple(tuple(row) for row in zip(*table))
    assert tuple(
        tuple(sum(form[i][k] * table[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    ) == identity


def _check_canonical_and_linear_forms(graph, rng):
    n = graph.n
    dual = adjacency(graph)
    table = valuation_table(graph).matrix
    data = canonical(graph)
    assert data.k_hat == tuple(2 - dual.weight(mu) for mu in range(1, n + 1))
    g = tuple(rng.randint(-5, 5) for _ in range(n))
    divisor = Divisor(tuple(map(Fraction, g)), Basis.E)
    star = to_basis(divisor, Basis.E_STAR, graph).coords
    hat = to_basis(divisor, Basis.E_HAT, graph).coords
    for mu in range(1, n + 1):
        proximate_to_mu = [nu for nu in range(2, n + 1) if mu in graph.prox[nu - 1]]
        assert hat[mu - 1] == star[mu - 1] - sum(star[nu - 1] for nu in proximate_to_mu)
        assert hat[mu - 1] == dual.weight(mu) * g[mu - 1] - sum(
            g[nu - 1] for nu in dual.neighbors_of(mu)
        )
        for eta in range(1, n + 1):
            lhs = dual.weight(eta) * table[mu - 1][eta - 1]
            rhs = sum(table[mu - 1][i - 1] for i in dual.neighbors_of(eta))
            assert lhs == rhs + (mu == eta)


def _check_ratio_monotonicity(graph):
    table = valuation_table(graph).matrix
    dual = adjacency(graph)
    paths = _all_pairs_paths(dual, graph.n)
    n = graph.n
    for mu in range(1, n + 1):
        for gamma in range(1, n + 1):
            target = paths[mu, gamma]
            shared = []
            for nu in range(1, n + 1):
                probe = paths[mu, nu]
                k = 0
                while k < len(target) and k < len(probe) and target[k] == probe[k]:
                    k += 1
                shared.append(k)
            for nu1 in range(1, n + 1):
                for nu2 in range(1, n + 1):
                    lhs = table[gamma - 1][nu1 - 1] * table[mu - 1][nu2 - 1]
                    rhs = table[gamma - 1][nu2 - 1] * table[mu - 1][nu1 - 1]
                    assert (lhs < rhs) == (shared[nu1 - 1] < shared[nu2 - 1])


def _check_branch_difference(graph):
    table = valuation_table(graph).matrix
    dual = adjacency(graph)
    paths = _all_pairs_paths(dual, graph.n)
    n = graph.n
    for mu in range(1, n + 1):
        for gamma in range(1, n + 1):
            if mu == gamma:
                continue
            inside = branch(graph, mu, gamma)
            numerators = [
                table[gamma - 1][nu] * table[mu - 1][mu - 1]
                - table[gamma - 1][mu - 1] * table[mu - 1][nu]
                for nu in range(n)
            ]
            for nu in range(1, n + 1):
                assert numerators[nu - 1] >= 0
                assert (numerators[nu - 1] > 0) == (nu in inside)
            path = paths[mu, gamma]
            for eta in range(1, n + 1):
                for before, after in zip(path, path[1:]):
                    lhs = numerators[before - 1] * table[eta - 1][after - 1]
                    rhs = numerators[after - 1] * table[eta - 1][before - 1]
                    assert lhs < rhs


def _check_frobenius_maximality(graph):
    table = valuation_table(graph)
    dual = adjacency(graph)
    for mu in range(1, graph.n + 1):
        diag = table.entry(mu, mu)
        for nu in dual.neighbors_of(mu):
            s = branch_gcd(table, graph, mu, nu)
            multiple = frobenius_multiple(table, graph, mu, nu)
            assert multiple % s == 0
            gens = sorted({table.entry(mu, i) for i in branch(graph, mu, nu)} | {diag})
            limit = max(multiple, 0) + diag * s + s
            members = semigroup_bruteforce(gens, limit)
            absent = [x for x in range(0, limit + 1, s) if not members[x]]
            if multiple >= 0:
                assert absent and absent[-1] == multiple
            else:
                assert not absent and multiple == -s


def _check_simple_graph_product(graph):
    mu = graph.n
    table = valuation_table(graph)
    q = inverse_proximity(graph)
    gamma, tau = associated_pairs(graph, mu).pairs[-1]
    s_gamma = branch_gcd(table, graph, mu, gamma) if gamma != mu else table.entry(mu, mu)
    s_tau = branch_gcd(table, graph, mu, tau) if tau != mu else table.entry(mu, mu)
    assert s_gamma == q[mu - 1][gamma - 1]
    assert s_gamma * s_tau == table.entry(mu, mu)


def test_ac8_matrix_identities():
    started = time.monotonic()
    rng = random.Random(88)
    for index in range(200):
        if index % 3 == 2:
            graph = random_curve_graph(rng, rng.randint(2, 10))
            _check_simple_graph_product(graph)
        else:
            graph = random_blowup_graph(rng, rng.randint(1, 10))
        _check_matrix_identities(graph)
        _check_canonical_and_linear_forms(graph, rng)
        _check_ratio_monotonicity(graph)
        _check_branch_difference(graph)
        if graph.n <= 8:
            _check_frobenius_maximality(graph)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report("AC-8", started)


def test_ac9_power_scaling():
    started = time.monotonic()
    rng = random.Random(909)
    for _ in range(10):
        ideal = random_ideal(rng, max_n=6)
        for exponent in (2, 3):
            powered = ideal.power(exponent)
            for mu in range(1, ideal.graph.n + 1):
                scaled = jumping_numbers_at(powered, mu, 2).values()
                plain = jumping_numbers_at(ideal, mu, 2 * exponent).values()
                assert scaled == tuple(xi / exponent for xi in plain)
    _report("AC-9", started)
