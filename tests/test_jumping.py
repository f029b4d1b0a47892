import gc
import importlib
import math
import pkgutil
import random
import weakref
from fractions import Fraction

import pytest

import jumpnum
from jumpnum import (
    IdealSpec,
    JumpingSet,
    NumericalSemigroup,
    ResolutionGraph,
    adjacency,
    branch,
    branch_gcd,
    branch_value,
    canonical,
    frobenius_multiple,
    jump_test_value,
    jumping_numbers,
    jumping_numbers_at,
    log_canonical_threshold,
    support_vertices,
    validate,
    valuation_table,
    vertex_semigroup,
)
from jumpnum import jumping
from jumpnum.cli import main

from conftest import (
    FIXTURES,
    all_proximity_structures,
    load_fixture,
    random_blowup_graph,
    random_ideal,
)


def test_branch_value_sample20(sample20_ideal):
    assert [branch_value(sample20_ideal, 1, nu) for nu in (3, 10, 16, 20)] == [16, 6, 6, 3]
    assert [branch_value(sample20_ideal, 3, nu) for nu in (1, 2, 9)] == [30, 0, 48]


def test_jump_test_value_cusp(cusp_ideal):
    assert jump_test_value(cusp_ideal, 3, Fraction(5, 6)) == 0
    # a float goes through Fraction, as in the other entry points
    assert jump_test_value(cusp_ideal, 3, 0.5) == jump_test_value(cusp_ideal, 3, Fraction(1, 2)) == -2


def test_jump_test_value_sample20(sample20_ideal):
    assert jump_test_value(sample20_ideal, 1, Fraction(3, 31)) == 0
    assert jump_test_value(sample20_ideal, 1, Fraction(1, 31)) == -1


def test_jump_test_value_rejects_non_candidates(cusp_ideal):
    with pytest.raises(ValueError, match="not a candidate"):
        jump_test_value(cusp_ideal, 3, Fraction(1, 5))


def test_jumping_numbers_at_maximal(maximal_ideal):
    found = jumping_numbers_at(maximal_ideal, 1, 4)
    assert found.values() == (2, 3, 4)


def test_jumping_numbers_at_cusp(cusp_ideal):
    found = jumping_numbers_at(cusp_ideal, 3, 2)
    expected = tuple(
        Fraction(*pair)
        for pair in ((5, 6), (7, 6), (4, 3), (3, 2), (5, 3), (11, 6), (2, 1))
    )
    assert found.values() == expected


def test_jumping_numbers_at_sample20_pendant(sample20_ideal):
    found = jumping_numbers_at(sample20_ideal, 20, 1)
    assert found.values() == tuple(Fraction(t + 12, 34) for t in range(23))


def test_support_vertices(maximal_ideal, cusp_ideal, sample20_ideal):
    assert support_vertices(maximal_ideal) == frozenset({1})
    assert support_vertices(cusp_ideal) == frozenset({3})
    assert support_vertices(sample20_ideal) == frozenset(
        {1, 3, 7, 8, 9, 13, 14, 16, 19, 20}
    )


def test_jumping_numbers_maximal(maximal_ideal):
    assert jumping_numbers(maximal_ideal, 3).values() == (2, 3)


def test_jumping_numbers_cusp(cusp_ideal):
    found = jumping_numbers(cusp_ideal, 1)
    assert found.values() == (Fraction(5, 6),)
    assert found.support_of(Fraction(5, 6)) == frozenset({3})


def test_jumping_numbers_sample20_smallest(sample20_ideal):
    # The smallest jumping numbers come from the two central stars.
    found = jumping_numbers(sample20_ideal, Fraction(3, 31))
    assert found.values() == (Fraction(5, 78), Fraction(7, 78), Fraction(3, 31))
    assert found.support_of(Fraction(5, 78)) == frozenset({3})
    assert found.support_of(Fraction(3, 31)) == frozenset({1})


def test_lct_values(maximal_ideal, cusp_ideal, sample20_ideal):
    assert log_canonical_threshold(maximal_ideal) == 2
    assert log_canonical_threshold(cusp_ideal) == Fraction(5, 6)
    assert log_canonical_threshold(sample20_ideal) == Fraction(5, 78)


def test_lct_closed_form_matches_smallest_scanned_value():
    rng = random.Random(109)
    ideals = [load_fixture(name) for name in ("maximal.res", "cusp.res", "sample20.res")]
    ideals += [random_ideal(rng, max_n=8) for _ in range(300)]
    for ideal in ideals:
        assert log_canonical_threshold(ideal) == jumping_numbers(ideal, 2).entries[0][0]


def test_merge_matches_per_vertex_scans():
    # The merged set is the union of the per-vertex sets, and each value is
    # supported exactly where its vertex scan finds it.
    rng = random.Random(127)
    ideals = [load_fixture(name) for name in ("maximal.res", "cusp.res", "sample20.res")]
    ideals += [random_ideal(rng, max_n=10, satellite_bias=0.8) for _ in range(40)]
    for ideal in ideals:
        bound = 2
        expected: dict = {}
        for mu in support_vertices(ideal):
            for xi in jumping_numbers_at(ideal, mu, bound).values():
                expected.setdefault(xi, set()).add(mu)
        found = jumping_numbers(ideal, bound)
        assert found.values() == tuple(sorted(expected))
        for xi, support in found:
            assert support == expected[xi]


def test_jumping_set_validation():
    one = frozenset({1})
    assert JumpingSet(()).values() == ()
    assert JumpingSet(((Fraction(1, 3), one), (Fraction(1, 2), one))).values() == (
        Fraction(1, 3),
        Fraction(1, 2),
    )
    for entries in (
        ((Fraction(1, 2), one), (Fraction(1, 3), one)),
        ((Fraction(1, 2), one), (Fraction(2, 4), one)),
    ):
        with pytest.raises(ValueError, match="strictly increasing"):
            JumpingSet(entries)
    with pytest.raises(ValueError, match="positive"):
        JumpingSet(((Fraction(0), one), (Fraction(1), one)))
    with pytest.raises(ValueError, match="nonempty"):
        JumpingSet(((Fraction(1), frozenset()),))


def test_jumping_set_from_keys_equals_from_fractions():
    rng = random.Random("key-form")
    for _ in range(200):
        lcm = rng.randint(1, 60)
        keys = sorted(rng.sample(range(1, 4 * lcm + 8), rng.randint(0, 8)))
        pairs = [(key, frozenset(rng.sample(range(1, 9), rng.randint(1, 3)))) for key in keys]
        from_keys = JumpingSet(pairs, lcm)
        from_fractions = JumpingSet([(Fraction(key, lcm), support) for key, support in pairs])
        assert from_keys == from_fractions and hash(from_keys) == hash(from_fractions)
        assert from_keys.entries == from_fractions.entries
        assert from_keys.values() == tuple(Fraction(key, lcm) for key in keys)
        assert list(from_keys) == [(Fraction(key, lcm), support) for key, support in pairs]
        assert len(from_keys) == len(keys)
        g = math.gcd(from_keys.lcm, *from_keys.keys)
        assert g == 1 and from_keys.keys == tuple(key * from_keys.lcm // lcm for key in keys)


def test_jumping_set_equal_across_lcms():
    one, two = frozenset({1}), frozenset({2})
    thirds = JumpingSet([(1, one), (2, two)], 3)
    sixths = JumpingSet([(2, one), (4, two)], 6)
    assert thirds == sixths and hash(thirds) == hash(sixths)
    assert (sixths.lcm, sixths.keys) == (3, (1, 2))
    assert JumpingSet([(2, one), (4, two)], 3) != thirds
    assert JumpingSet([(2, two), (4, one)], 6) != thirds
    assert JumpingSet([], 7) == JumpingSet(()) and JumpingSet([], 7).lcm == 1


def test_jumping_set_key_form_validation():
    one = frozenset({1})
    for pairs in ([(2, one), (1, one)], [(2, one), (2, one)]):
        with pytest.raises(ValueError, match="strictly increasing"):
            JumpingSet(pairs, 3)
    with pytest.raises(ValueError, match="positive"):
        JumpingSet([(0, one), (1, one)], 3)
    with pytest.raises(ValueError, match="nonempty"):
        JumpingSet([(1, frozenset())], 3)


def test_jumping_set_support_of():
    one, two = frozenset({1}), frozenset({2, 3})
    for found in (JumpingSet([(3, one), (8, two)], 12),
                  JumpingSet(((Fraction(1, 4), one), (Fraction(2, 3), two)))):
        assert found.support_of(Fraction(1, 4)) == one
        assert found.support_of(Fraction(8, 12)) == two
        for absent in (Fraction(1, 3), Fraction(13, 48), Fraction(1, 7), 0, Fraction(-1, 4), 1):
            with pytest.raises(KeyError):
                found.support_of(absent)
    with pytest.raises(KeyError):
        JumpingSet(()).support_of(Fraction(1, 2))


def _skip_rule_by_walks(ideal, mu):
    """The skip rule of ``_scan``, from the walked branches: f_mu = 0 and
    (r - 2) v(mu,mu) below the sum of the branch gcds of the branches of
    zero value."""
    table, graph = valuation_table(ideal.graph), ideal.graph
    neighbours = adjacency(graph).neighbors_of(mu)
    empty = sum(branch_gcd(table, graph, mu, nu) for nu in neighbours
                if branch_value(ideal, mu, nu) == 0)
    v = table.entry(mu, mu)
    return ideal.factorization[mu - 1] == 0 and (len(neighbours) - 2) * v < empty


def _scanned_vertices(monkeypatch, ideal):
    """How many vertices ``jumping_numbers`` at bound 1 computes scores at."""
    calls = []

    def counted(offset, terms, ts):
        calls.append(ts)
        return scores(offset, terms, ts)

    scores = jumping._scores
    with monkeypatch.context() as patch:
        patch.setattr(jumping, "_scores", counted)
        jumping_numbers(ideal, 1)
    return len(calls)


def test_skipped_vertices_support_nothing(monkeypatch, cusp_ideal, maximal_ideal, sample20_ideal):
    # At f_mu = 0 the score has period d_mu, so t in [1, d_mu] covers every t.
    rng = random.Random("skip")
    ideals = [cusp_ideal, maximal_ideal, sample20_ideal,
              *(random_ideal(rng, max_n=12, satellite_bias=0.7) for _ in range(20))]
    for _ in range(40):  # one or two factors, as on satellite-rich inputs
        graph = random_blowup_graph(rng, rng.randint(8, 24), 0.6)
        factorization = [0] * graph.n
        for mu in rng.sample(range(graph.n), rng.randint(1, 2)):
            factorization[mu] = rng.randint(1, 2)
        ideals.append(IdealSpec(graph, tuple(factorization)))
    skipped_stars = 0
    for ideal in ideals:
        skipped = {mu for mu in range(1, ideal.graph.n + 1) if _skip_rule_by_walks(ideal, mu)}
        for mu in skipped:
            d_mu, offset, terms, semigroup = jumping._vertex_context(ideal, mu)
            ts = range(1, d_mu + 1)
            assert not any(x in semigroup for x in jumping._scores(offset, terms, ts))
            assert len(jumping_numbers_at(ideal, mu, 3)) == 0
        support = support_vertices(ideal)
        assert _scanned_vertices(monkeypatch, ideal) == len(support - skipped)
        skipped_stars += len(support & skipped)
    assert skipped_stars > 50


def test_sample20_skips_no_vertex(monkeypatch, sample20_ideal):
    assert _scanned_vertices(monkeypatch, sample20_ideal) == len(support_vertices(sample20_ideal))


def test_valence_one_vertex_without_factor_supports_nothing(cusp_ideal):
    assert jumping_numbers_at(cusp_ideal, 1, 2).values() == ()
    assert jumping_numbers_at(cusp_ideal, 2, 2).values() == ()


def test_valence_one_emptiness_random():
    rng = random.Random(101)
    checked = 0
    while checked < 15:
        ideal = random_ideal(rng, max_n=8)
        dual = adjacency(ideal.graph)
        for mu in range(1, ideal.graph.n + 1):
            if dual.valence(mu) == 1 and ideal.factorization[mu - 1] == 0:
                assert jumping_numbers_at(ideal, mu, 2).values() == ()
                checked += 1


def test_valence_two_emptiness_with_bare_branch():
    rng = random.Random(103)
    checked = 0
    while checked < 15:
        ideal = random_ideal(rng, max_n=8)
        dual = adjacency(ideal.graph)
        for mu in range(1, ideal.graph.n + 1):
            if dual.valence(mu) != 2 or ideal.factorization[mu - 1] != 0:
                continue
            bare = any(
                all(ideal.factorization[i - 1] == 0 for i in branch(ideal.graph, mu, nu))
                for nu in dual.neighbors_of(mu)
            )
            if bare:
                assert jumping_numbers_at(ideal, mu, 2).values() == ()
                checked += 1


def test_power_scaling_law():
    rng = random.Random(107)
    for _ in range(8):
        ideal = random_ideal(rng, max_n=6)
        for n in (2, 3):
            powered = ideal.power(n)
            for mu in sorted(support_vertices(ideal)):
                scaled = jumping_numbers_at(powered, mu, 2).values()
                plain = jumping_numbers_at(ideal, mu, 2 * n).values()
                assert scaled == tuple(xi / n for xi in plain)


def test_power_takes_only_integral_exponents(cusp_graph):
    ideal = IdealSpec(cusp_graph, (0, 0, 2))
    for exponent in (2.5, Fraction(3, 2), "2"):
        with pytest.raises(ValueError, match="is not an integer"):
            ideal.power(exponent)
    assert ideal.power(2.0) == ideal.power(2) == IdealSpec(cusp_graph, (0, 0, 4))


def test_observed_shift_by_one_on_outputs(cusp_ideal, maximal_ideal, sample20_ideal):
    for ideal in (cusp_ideal, maximal_ideal, sample20_ideal):
        found = jumping_numbers(ideal, 2)
        values = set(found.values())
        for xi in found.values():
            if xi <= 1:
                assert xi + 1 in values


def test_jumping_set_entries_sorted_and_supported(sample20_ideal):
    found = jumping_numbers(sample20_ideal, 1)
    values = found.values()
    assert values == tuple(sorted(values))
    stars = set(adjacency(sample20_ideal.graph).stars)
    for xi, support in found:
        assert support
        for mu in support:
            assert mu in stars or sample20_ideal.factorization[mu - 1] > 0


def test_vertex_context_matches_public_branch_functions():
    # One walk per branch gives what the three public functions give apart.
    ideals = [load_fixture(name) for name in ("maximal.res", "cusp.res", "sample20.res")]
    for bias in (0.3, 0.8):
        rng = random.Random(f"context:{bias}")
        ideals += [random_ideal(rng, max_n=12, satellite_bias=bias) for _ in range(40)]
    for ideal in ideals:
        table, graph = valuation_table(ideal.graph), ideal.graph
        for mu in range(1, graph.n + 1):
            d_mu, _, terms, semigroup = jumping._vertex_context(ideal, mu)
            expected = []
            for nu in adjacency(graph).neighbors_of(mu):
                s = branch_gcd(table, graph, mu, nu)
                expected.append((s, branch_value(ideal, mu, nu), s * d_mu))
            assert list(terms) == expected
            assert semigroup == vertex_semigroup(table, graph, mu)


def test_row_terms_match_the_walked_branches():
    # For the branch B from mu towards a neighbour nu: its end gcd is
    # gcd(v(mu,mu), v(mu,nu)), and for every j
    # [j in B] v(mu,j) = v(mu,mu) v(nu,j) - v(mu,nu) v(mu,j),
    # which, summed against any factorization, is the branch value; and the
    # Frobenius multiple is v(mu,nu) (k_mu + 1) - v(mu,mu) (k_nu + 1).
    graphs = [graph for graph in all_proximity_structures(6) if not validate(graph)]
    assert len(graphs) == 1070
    rng = random.Random("row-terms")
    sizes = [(40, 0.2), (40, 0.5), (40, 0.8), (100, 0.2), (100, 0.8), (200, 0.5)]
    graphs += [random_blowup_graph(rng, n, bias) for n, bias in sizes]
    for graph in graphs:
        table, dual, v = valuation_table(graph), adjacency(graph), valuation_table(graph).matrix
        k = canonical(graph).k
        factorization = [rng.randint(0, 2) for _ in range(graph.n - 1)] + [1]
        ideal = IdealSpec(graph, tuple(factorization))
        for mu in range(1, graph.n + 1):
            row, terms = v[mu - 1], []
            for nu in dual.neighbors_of(mu):
                inside = branch(graph, mu, nu)
                assert [row[j] if j + 1 in inside else 0 for j in range(graph.n)] == [
                    row[mu - 1] * v[nu - 1][j] - row[nu - 1] * row[j] for j in range(graph.n)
                ]
                assert frobenius_multiple(table, graph, mu, nu) == (
                    row[nu - 1] * (k[mu - 1] + 1) - row[mu - 1] * (k[nu - 1] + 1)
                )
                s = branch_gcd(table, graph, mu, nu)
                w = sum(factorization[j - 1] * row[j - 1] for j in inside)
                terms.append((s, w, s * ideal.valuations[mu - 1]))
            semigroup = NumericalSemigroup((*(s for s, _, _ in terms), row[mu - 1]))
            assert vertex_semigroup(table, graph, mu) == semigroup
            assert jumping._vertex_context(ideal, mu)[2:] == (tuple(terms), semigroup)


def test_no_query_walks_a_branch(monkeypatch, capsys, sample20_ideal):
    # The scan and vertex_semigroup read both branch terms off row mu;
    # only the walked references walk.
    walks = []

    def counted(graph, mu, nu):
        walks.append((mu, nu))
        return branch(graph, mu, nu)

    for info in pkgutil.iter_modules(jumpnum.__path__):
        module = importlib.import_module(f"jumpnum.{info.name}")
        if getattr(module, "branch", None) is branch:
            monkeypatch.setattr(module, "branch", counted)
    rng = random.Random(151)
    for ideal in (sample20_ideal, *(random_ideal(rng, max_n=12) for _ in range(20))):
        table, graph = valuation_table(ideal.graph), ideal.graph
        jumping_numbers(ideal, 1)
        for mu in range(1, graph.n + 1):
            jumping_numbers_at(ideal, mu, 2)
            jump_test_value(ideal, mu, Fraction(1, ideal.valuations[mu - 1]))
            vertex_semigroup(table, graph, mu)
    sample20 = str(FIXTURES / "sample20.res")
    for argv in (["jumping", sample20, "--format", "tsv"], ["jumping", sample20, "--vertex", "1"],
                 ["lct", sample20], ["oracle", sample20, "--bound", "1"],
                 *(["semigroup", sample20, "--vertex", str(mu)] for mu in range(1, 21))):
        assert main(argv) == 0
    capsys.readouterr()
    assert walks == []
    table, graph = valuation_table(sample20_ideal.graph), sample20_ideal.graph
    branch_gcd(table, graph, 1, 3)
    branch_value(sample20_ideal, 1, 3)
    frobenius_multiple(table, graph, 1, 3)
    assert walks == [(1, 3)] * 3


def test_only_the_per_graph_caches_are_module_level():
    modules = [importlib.import_module(f"jumpnum.{info.name}")
               for info in pkgutil.iter_modules(jumpnum.__path__)]
    cached = {
        id(value): f"{value.__module__}.{value.__name__}"
        for module in (jumpnum, *modules)
        for value in vars(module).values()
        if hasattr(value, "cache_info")
    }
    assert sorted(cached.values()) == [
        "jumpnum.graph.adjacency",
        "jumpnum.graph.inverse_proximity",
        "jumpnum.lattice.valuation_table",
    ]


def test_no_ideal_outlives_a_query(cusp_graph):
    queries = (lambda ideal: jumping_numbers(ideal, 2),
               lambda ideal: jump_test_value(ideal, 3, Fraction(5, 6)))
    for multiplicity, query in enumerate(queries, start=11):
        # a multiplicity no other test uses, so no equal ideal is cached
        ideal = IdealSpec(cusp_graph, (0, 0, multiplicity))
        query(ideal)
        ref = weakref.ref(ideal)
        del ideal
        gc.collect()
        assert ref() is None


def test_vertex_out_of_range_is_rejected(maximal_ideal, cusp_ideal):
    # 0 and -1 used to read the last vertex
    for ideal in (maximal_ideal, cusp_ideal):
        for mu in (0, -1, ideal.graph.n + 1):
            with pytest.raises(ValueError, match="vertex out of range"):
                jumping_numbers_at(ideal, mu, 3)
            with pytest.raises(ValueError, match="vertex out of range"):
                jump_test_value(ideal, mu, Fraction(5, 6))


def test_jumping_numbers_rejects_nonpositive_bounds(cusp_ideal):
    for bound in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="bound must be positive"):
            jumping_numbers(cusp_ideal, bound)
