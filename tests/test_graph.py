import itertools
import random
from fractions import Fraction

import pytest

from jumpnum import (
    IdealSpec,
    InvalidGraphError,
    ResolutionGraph,
    adjacency,
    associated_pairs,
    branch,
    infinitely_near,
    intersection_form,
    inverse_proximity,
    is_free,
    proximity_matrix,
    validate,
    valuation_table,
)
from jumpnum import graph as graph_module

from conftest import all_proximity_structures, random_blowup_graph, random_blowup_sequence


def test_root_only_graph_is_valid():
    assert validate(ResolutionGraph.build(1)) == []


def test_cusp_graph_is_valid(cusp_graph):
    assert validate(cusp_graph) == []


def test_non_root_without_proximity_is_flagged():
    graph = ResolutionGraph.build(2)
    violations = validate(graph)
    assert violations == ["vertex 2 proximate to no vertex"]


def test_root_with_proximity_is_flagged():
    graph = ResolutionGraph(2, ((1,), (1,)))
    assert any("vertex 1" in v for v in validate(graph))


def test_three_proximity_targets_flagged():
    graph = ResolutionGraph.build(5, {2: (1,), 3: (1,), 4: (1,), 5: (1, 2, 3)})
    assert any("at most two" in v for v in validate(graph))


def test_disjoint_satellite_targets_flagged():
    # Points on two exceptional curves that never meet.
    graph = ResolutionGraph.build(4, {2: (1,), 3: (1,), 4: (2, 3)})
    assert validate(graph) == ["intersection form entry 1 between vertices 2 and 3, expected 0 or -1"]


def test_proximity_matrix_chain():
    graph = ResolutionGraph.build(2, {2: (1,)})
    assert proximity_matrix(graph) == ((1, 0), (-1, 1))


def test_proximity_matrix_cusp(cusp_graph):
    assert proximity_matrix(cusp_graph) == ((1, 0, 0), (-1, 1, 0), (-1, -1, 1))


def test_proximity_matrix_single():
    assert proximity_matrix(ResolutionGraph.build(1)) == ((1,),)


def test_inverse_proximity_cusp(cusp_graph):
    assert inverse_proximity(cusp_graph) == ((1, 0, 0), (1, 1, 0), (2, 1, 1))


def test_intersection_form_cusp(cusp_graph):
    assert intersection_form(cusp_graph) == ((3, 0, -1), (0, 2, -1), (-1, -1, 1))


def test_adjacency_cusp(cusp_graph):
    dual = adjacency(cusp_graph)
    assert dual.edges == frozenset({(1, 3), (2, 3)})
    assert [dual.valence(mu) for mu in (1, 2, 3)] == [1, 1, 2]
    assert dual.ends == (1, 2)
    assert dual.stars == ()


def test_adjacency_two_vertices():
    dual = adjacency(ResolutionGraph.build(2, {2: (1,)}))
    assert dual.edges == frozenset({(1, 2)})
    assert dual.ends == (1, 2)


def test_adjacency_sample20(sample20_ideal):
    dual = adjacency(sample20_ideal.graph)
    assert dual.neighbors_of(1) == (3, 10, 16, 20)
    assert dual.valence(1) == 4
    assert dual.stars == (1, 3, 7, 13, 16)


def test_branch_cusp(cusp_graph):
    assert branch(cusp_graph, 3, 1) == frozenset({1})
    assert branch(cusp_graph, 3, 2) == frozenset({2})
    assert branch(cusp_graph, 1, 3) == frozenset({2, 3})


def test_branch_of_vertex_towards_itself_is_empty(cusp_graph):
    assert branch(cusp_graph, 2, 2) == frozenset()


def test_branch_same_component_same_set(sample20_ideal):
    graph = sample20_ideal.graph
    assert branch(graph, 1, 3) == branch(graph, 1, 8)
    assert branch(graph, 1, 20) == frozenset({20})


def test_dual_graph_rejects_vertices_out_of_range(cusp_graph):
    # 0 and -1 used to read the last vertex, and n + 1 raised a bare IndexError
    dual = adjacency(cusp_graph)
    for mu in (0, -1, cusp_graph.n + 1):
        for method in (dual.neighbors_of, dual.valence, dual.weight):
            with pytest.raises(ValueError, match=rf"^vertex out of range: {mu}$"):
                method(mu)


def test_build_rejects_keys_outside_the_graph():
    for key in (7, 4, 0, -1, 2.5, "2"):
        with pytest.raises(ValueError, match=rf"^vertex out of range: {key!r}$"):
            ResolutionGraph.build(3, {2: (1,), 3: (1, 2), key: (1,)})
    # the root is a key of the graph, and validate reports its rule
    graph = ResolutionGraph.build(3, {1: (1,), 2: (1,), 3: (1, 2)})
    assert validate(graph) == ["vertex 1 is the root and must be proximate to no vertex"]


def test_branch_vertex_out_of_range(cusp_graph):
    with pytest.raises(ValueError):
        branch(cusp_graph, 1, 9)


def test_infinitely_near_cusp(cusp_graph):
    assert infinitely_near(cusp_graph, 3, 1)
    assert infinitely_near(cusp_graph, 3, 3)
    assert not infinitely_near(cusp_graph, 1, 3)


def test_freeness_is_proximity_count(cusp_graph):
    assert is_free(cusp_graph, 1)
    assert is_free(cusp_graph, 2)
    assert not is_free(cusp_graph, 3)


def test_associated_pairs_cusp(cusp_graph):
    seq = associated_pairs(cusp_graph, 3)
    assert seq.pairs == ((1, 2),)


def test_associated_pairs_single_vertex():
    seq = associated_pairs(ResolutionGraph.build(1), 1)
    assert seq.pairs == ((1, 1),)


def test_associated_pairs_nine_vertex_chain():
    # Chain with satellites at 3, 5, 6, 7 and free points elsewhere; the
    # innermost pair anchors at 7, then 3, then the root.
    graph = ResolutionGraph.build(
        9,
        {2: (1,), 3: (1, 2), 4: (3,), 5: (3, 4), 6: (3, 5), 7: (5, 6), 8: (7,), 9: (8,)},
    )
    assert validate(graph) == []
    seq = associated_pairs(graph, 9)
    assert seq.pairs == ((1, 2), (3, 4), (7, 9))
    dual = adjacency(graph)
    # the peaks together with the root are the ends, the anchors the stars
    assert dual.ends == (1, 2, 4, 9)
    assert dual.stars == (3, 7)


def test_associated_pairs_structure_random():
    rng = random.Random(20260810)
    for _ in range(60):
        graph = random_blowup_graph(rng, rng.randint(1, 8))
        for mu in range(1, graph.n + 1):
            seq = associated_pairs(graph, mu)
            gammas = [gamma for gamma, _ in seq.pairs]
            taus = [tau for _, tau in seq.pairs]
            assert all(is_free(graph, tau) for tau in taus)
            assert all(not is_free(graph, g) for g in gammas[1:])
            assert gammas[0] == 1 or not is_free(graph, gammas[0])
            for gamma, tau in seq.pairs:
                assert infinitely_near(graph, tau, gamma)
                assert infinitely_near(graph, mu, tau)


def test_infinitely_near_is_partial_order():
    rng = random.Random(987)
    for _ in range(40):
        graph = random_blowup_graph(rng, rng.randint(1, 8))
        vertices = range(1, graph.n + 1)
        for mu in vertices:
            assert infinitely_near(graph, mu, mu)
        for mu, nu in itertools.permutations(vertices, 2):
            if infinitely_near(graph, mu, nu) and infinitely_near(graph, nu, mu):
                assert mu == nu
        for mu, nu, rho in itertools.product(vertices, repeat=3):
            if infinitely_near(graph, mu, nu) and infinitely_near(graph, nu, rho):
                assert infinitely_near(graph, mu, rho)


def test_random_blowup_graphs_are_valid_and_match_simulated_adjacency():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 9)
        prox = {}
        edges = []
        for mu in range(2, n + 1):
            if edges and rng.random() < 0.5:
                a, b = rng.choice(edges)
                prox[mu] = (a, b)
                edges.remove((a, b))
                edges += [(a, mu), (b, mu)]
            else:
                a = rng.randint(1, mu - 1)
                prox[mu] = (a,)
                edges.append((a, mu))
        graph = ResolutionGraph.build(n, prox)
        assert validate(graph) == []
        expected = frozenset(tuple(sorted(e)) for e in edges)
        assert adjacency(graph).edges == expected


def _reference_form(graph):
    """P^t P, entry by entry from the dense proximity matrix."""
    n = graph.n
    p = [[1 if i == j else -(j + 1 in graph.prox[i]) for j in range(n)] for i in range(n)]
    return [[sum(p[k][i] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _reference_validate(graph):
    """Validation on the dense intersection form, every entry checked."""
    out = []
    n = graph.n
    if graph.prox[0]:
        out.append("vertex 1 is the root and must be proximate to no vertex")
    for mu in range(2, n + 1):
        targets = graph.prox[mu - 1]
        if not targets:
            out.append(f"vertex {mu} proximate to no vertex")
        if len(targets) > 2:
            out.append(f"vertex {mu} proximate to {len(targets)} vertices, at most two allowed")
        for nu in targets:
            if not 1 <= nu < mu:
                out.append(f"vertex {mu} proximate to {nu}, which is not an earlier vertex")
    if out:
        return out
    form = _reference_form(graph)
    edges = set()
    for mu in range(1, n + 1):
        for nu in range(mu + 1, n + 1):
            entry = form[mu - 1][nu - 1]
            if entry == -1:
                edges.add((mu, nu))
            elif entry != 0:
                out.append(
                    f"intersection form entry {entry} between vertices {mu} and {nu}, "
                    "expected 0 or -1"
                )
    if out:
        return out
    if len(edges) != n - 1:
        out.append(f"dual graph has {len(edges)} edges, a tree on {n} vertices needs {n - 1}")
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for a, b in edges:
            w = b if a == v else a if b == v else None
            if w is not None and w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        out.append("dual graph is not connected")
    return out


def test_validate_and_adjacency_match_the_dense_form():
    rng = random.Random(2024)
    valid = invalid = 0
    for _ in range(400):
        n = rng.randint(1, 12)
        prox = {
            mu: tuple(rng.randint(1, mu - 1) for _ in range(rng.randint(1, 2)))
            for mu in range(2, n + 1)
        }
        graph = ResolutionGraph.build(n, prox)
        expected = _reference_validate(graph)
        assert validate(graph) == expected
        if expected:
            invalid += 1
            continue
        valid += 1
        form = _reference_form(graph)
        dual = adjacency(graph)
        assert dual.neighbors == tuple(
            tuple(nu + 1 for nu, entry in enumerate(row) if entry == -1) for row in form
        )
        assert dual.weights == tuple(form[mu][mu] for mu in range(n))
        assert intersection_form(graph) == tuple(map(tuple, form))
    assert valid > 100 and invalid > 100


def test_validate_matches_the_dense_form_on_every_small_structure():
    # validate has no tree check of its own: the entry check implies it,
    # and the reference keeps both, so they must agree everywhere.
    graphs = list(all_proximity_structures(6))
    assert len(graphs) == 2903
    valid = 0
    for graph in graphs:
        expected = _reference_validate(graph)
        assert validate(graph) == expected
        valid += not expected
    assert valid == 1070


@pytest.mark.parametrize("bias", [0.3, 0.8])
def test_graph_layer_at_four_hundred_vertices(bias):
    graph, edges = random_blowup_sequence(random.Random(400), 400, bias)
    assert validate(graph) == []
    assert adjacency(graph).edges == edges
    table = valuation_table(graph).matrix
    assert table == tuple(zip(*table))


def test_graph_equality_and_hash_do_not_depend_on_construction():
    built = ResolutionGraph.build(3, {2: (1,), 3: (2, 1)})
    direct = ResolutionGraph(3, ((), [1], (1, 2, 2)))
    assert built == direct
    assert hash(built) == hash(direct) == hash((3, ((), (1,), (1, 2))))
    assert {built: "cusp"}[direct] == "cusp"
    assert repr(built) == "ResolutionGraph(n=3, prox=((), (1,), (1, 2)))"
    assert built != ResolutionGraph.build(3, {2: (1,), 3: (2,)})


def test_non_integral_input_is_rejected():
    with pytest.raises(ValueError, match="not an integer"):
        ResolutionGraph(2, ((), (1.7,)))
    graph = ResolutionGraph(2, ((), (1.0,)))
    assert graph == ResolutionGraph(2, ((), (1,)))
    with pytest.raises(ValueError, match="not an integer"):
        IdealSpec(graph, (0.5, 1.9))
    assert IdealSpec(graph, (2.0, Fraction(4))).factorization == (2, 4)
    assert IdealSpec(graph, (True, 0)).factorization == (1, 0)
    # int(inf) overflows and int(nan) raises a ValueError of its own
    for x in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="is not an integer"):
            IdealSpec(ResolutionGraph.build(1), (x,))
    # the vertex count goes through the same check
    two = ResolutionGraph(2.0, ((), (1,)))
    assert type(two.n) is int and validate(two) == []
    assert ResolutionGraph.build(2.0, {2: (1,)}) == two == graph
    for bad in (2.5, "2", float("inf")):
        with pytest.raises(ValueError, match="is not an integer"):
            ResolutionGraph(bad, ((), (1,)))
        with pytest.raises(ValueError, match="is not an integer"):
            ResolutionGraph.build(bad, {})


def test_validity_is_computed_once_per_graph(monkeypatch):
    calls = []
    original = graph_module.validate
    monkeypatch.setattr(graph_module, "validate", lambda g: calls.append(g) or original(g))
    graph = ResolutionGraph.build(3, {2: (1,), 3: (1, 2)})
    for _ in range(3):
        graph_module.ensure_valid(graph)
    assert calls == [graph]
    broken = ResolutionGraph.build(2)
    for _ in range(2):
        with pytest.raises(InvalidGraphError, match="proximate to no vertex"):
            graph_module.ensure_valid(broken)
    assert calls == [graph, broken]
