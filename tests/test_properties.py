"""Structural identities checked on arbitrary small blowup sequences."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from jumpnum import (
    Basis,
    Divisor,
    IdealSpec,
    ResolutionGraph,
    adjacency,
    antinef_closure,
    branch,
    canonical,
    intersection_form,
    is_antinef,
    jump_test_value,
    jumping_numbers_at,
    membership,
    parse_resolution,
    serialize_resolution,
    to_basis,
    validate,
    valuation_table,
    vertex_semigroup,
)


@st.composite
def resolution_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    prox = {}
    edges = []
    for mu in range(2, n + 1):
        if edges and draw(st.booleans()):
            a, b = draw(st.sampled_from(edges))
            prox[mu] = (a, b)
            edges.remove((a, b))
            edges += [(a, mu), (b, mu)]
        else:
            a = draw(st.integers(min_value=1, max_value=mu - 1))
            prox[mu] = (a,)
            edges.append((a, mu))
    return ResolutionGraph.build(n, prox)


@st.composite
def ideals(draw, max_n=7):
    graph = draw(resolution_graphs(max_n=max_n))
    factorization = draw(
        st.lists(
            st.integers(min_value=0, max_value=3),
            min_size=graph.n,
            max_size=graph.n,
        ).filter(any)
    )
    return IdealSpec(graph, tuple(factorization))


@given(resolution_graphs())
def test_generated_graphs_are_valid(graph):
    assert validate(graph) == []


@given(resolution_graphs(), st.data())
def test_base_change_round_trip(graph, data):
    coords = tuple(
        Fraction(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 4)))
        for _ in range(graph.n)
    )
    divisor = Divisor(coords, Basis.E)
    hat = to_basis(divisor, Basis.E_HAT, graph)
    star = to_basis(hat, Basis.E_STAR, graph)
    assert to_basis(star, Basis.E, graph).coords == coords


@given(resolution_graphs(), st.data())
def test_dual_coordinates_by_weights_and_neighbors(graph, data):
    # The two expressions for the dual coordinate agree: via the total
    # transform and proximity, and via weights minus adjacent values.
    g = tuple(data.draw(st.integers(-5, 5)) for _ in range(graph.n))
    divisor = Divisor(tuple(map(Fraction, g)), Basis.E)
    star = to_basis(divisor, Basis.E_STAR, graph).coords
    hat = to_basis(divisor, Basis.E_HAT, graph).coords
    dual = adjacency(graph)
    for mu in range(1, graph.n + 1):
        proximate_to_mu = [nu for nu in range(2, graph.n + 1) if mu in graph.prox[nu - 1]]
        assert hat[mu - 1] == star[mu - 1] - sum(star[nu - 1] for nu in proximate_to_mu)
        assert hat[mu - 1] == dual.weight(mu) * g[mu - 1] - sum(
            g[nu - 1] for nu in dual.neighbors_of(mu)
        )


@given(resolution_graphs())
def test_weighted_row_identity(graph):
    # Weight times a table entry equals the neighboring entries plus the
    # diagonal indicator.
    table = valuation_table(graph)
    dual = adjacency(graph)
    for mu in range(1, graph.n + 1):
        for eta in range(1, graph.n + 1):
            lhs = dual.weight(eta) * table.entry(mu, eta)
            rhs = sum(table.entry(mu, i) for i in dual.neighbors_of(eta))
            if mu == eta:
                rhs += 1
            assert lhs == rhs


@given(resolution_graphs())
def test_canonical_identities(graph):
    data = canonical(graph)
    dual = adjacency(graph)
    table = valuation_table(graph).matrix
    n = graph.n
    assert data.k_hat == tuple(2 - dual.weight(mu) for mu in range(1, n + 1))
    assert data.k == tuple(
        sum(data.k_hat[i] * table[i][j] for i in range(n)) for j in range(n)
    )


@given(resolution_graphs(), st.data())
def test_antinef_closure_is_antinef_and_monotone(graph, data):
    coords = tuple(data.draw(st.integers(-4, 6)) for _ in range(graph.n))
    closed = antinef_closure(Divisor(tuple(map(Fraction, coords)), Basis.E), graph)
    assert is_antinef(closed, graph)
    assert all(c >= max(x, 0) for c, x in zip(closed.coords, coords))
    assert antinef_closure(closed, graph).coords == closed.coords


@settings(max_examples=40)
@given(ideals())
def test_score_matches_direct_formula(ideal):
    # The vectorized scan and the standalone evaluation agree.
    dual = adjacency(ideal.graph)
    table = valuation_table(ideal.graph)
    for mu in range(1, ideal.graph.n + 1):
        d_mu = ideal.valuations[mu - 1]
        semigroup = vertex_semigroup(table, ideal.graph, mu)
        expected = [
            Fraction(t, d_mu)
            for t in range(1, 2 * d_mu + 1)
            if membership(
                semigroup, jump_test_value(ideal, mu, Fraction(t, d_mu))
            )
        ]
        assert list(jumping_numbers_at(ideal, mu, 2).values()) == expected


@settings(max_examples=30)
@given(ideals(max_n=6), st.sampled_from((2, 3)))
def test_power_scaling(ideal, exponent):
    powered = ideal.power(exponent)
    for mu in range(1, ideal.graph.n + 1):
        scaled = jumping_numbers_at(powered, mu, 1).values()
        plain = jumping_numbers_at(ideal, mu, exponent).values()
        assert scaled == tuple(xi / exponent for xi in plain)


@given(ideals())
def test_parse_serialize_round_trip(ideal):
    text = serialize_resolution(ideal.graph, ideal.factorization)
    graph, factorization = parse_resolution(text)
    assert graph == ideal.graph
    assert factorization == ideal.factorization
    assert serialize_resolution(graph, factorization) == text


def _paths(graph):
    dual = adjacency(graph)
    n = graph.n
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


@settings(max_examples=30)
@given(resolution_graphs(max_n=7))
def test_valuation_ratio_monotone_along_paths(graph):
    # Cross-multiplied comparison of table-row ratios orders vertices by
    # how much of the path towards the target they share.
    table = valuation_table(graph).matrix
    paths = _paths(graph)
    n = graph.n

    def shared(mu, gamma, nu):
        target = paths[mu, gamma]
        probe = paths[mu, nu]
        k = 0
        while k < len(target) and k < len(probe) and target[k] == probe[k]:
            k += 1
        return k

    for mu in range(1, n + 1):
        for gamma in range(1, n + 1):
            for nu1 in range(1, n + 1):
                for nu2 in range(1, n + 1):
                    lhs = table[gamma - 1][nu1 - 1] * table[mu - 1][nu2 - 1]
                    rhs = table[gamma - 1][nu2 - 1] * table[mu - 1][nu1 - 1]
                    assert (lhs < rhs) == (
                        shared(mu, gamma, nu1) < shared(mu, gamma, nu2)
                    )


@settings(max_examples=30)
@given(resolution_graphs(max_n=6))
def test_branch_difference_sign_and_monotonicity(graph):
    # phi(nu) = (V[gamma] - ratio * V[mu])(nu) / V[eta][nu] is nonnegative,
    # positive exactly on the branch towards gamma, and increasing along
    # the path from mu to gamma.
    table = valuation_table(graph).matrix
    paths = _paths(graph)
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
                value = numerators[nu - 1]
                assert value >= 0
                assert (value > 0) == (nu in inside)
            for eta in range(1, n + 1):
                path = paths[mu, gamma]
                values = [
                    Fraction(
                        numerators[nu - 1],
                        table[mu - 1][mu - 1] * table[eta - 1][nu - 1],
                    )
                    for nu in path
                ]
                assert values == sorted(values)
                assert len(set(values)) == len(values)
