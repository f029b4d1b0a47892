import random
from fractions import Fraction

import pytest

from jumpnum import (
    ParseError,
    ResolutionGraph,
    ValuationTable,
    parse_resolution,
    proximity_from_valuation,
    serialize_resolution,
    validate,
    valuation_table,
)
from jumpnum.sample20 import FACTORIZATION, VALUATION_MATRIX

from conftest import FIXTURES, all_proximity_structures, random_blowup_graph


def test_parse_maximal():
    graph, factorization = parse_resolution("N 1\nD 1\n")
    assert graph.n == 1
    assert factorization == (1,)


def test_parse_cusp():
    graph, factorization = parse_resolution("N 3\nP 2 1\nP 3 1 2\nD 0 0 1\n")
    assert graph.prox == ((), (1,), (1, 2))
    assert factorization == (0, 0, 1)
    assert validate(graph) == []


def test_parse_comments_and_blank_lines():
    text = "# cusp\n\nN 3\nP 2 1  # free point\nP 3 1 2\n\nD 0 0 1\n"
    graph, factorization = parse_resolution(text)
    assert graph.n == 3
    assert factorization == (0, 0, 1)


def test_forward_reference_reports_line():
    with pytest.raises(ParseError) as info:
        parse_resolution("N 2\nP 2 3\nD 1 1\n")
    assert "forward reference at line 2" in str(info.value)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty input"),
        ("N 0\nD\n", "positive"),
        ("N 2\nP 2 1\nP 2 1\nD 1 1\n", "duplicate P line"),
        ("N 2\nD 1 1\n", "missing P line for vertex 2"),
        ("N 2\nP 2 1\nD 1\n", "expects 2 entries, got 1"),
        ("N 2\nP 2 1\nD 1 -1\n", "negative entry"),
        ("N 2\nP 2 1\n", "missing D line"),
        ("N 2\nP 2 1\nD 1 1\nD 1 1\n", "duplicate D line"),
        ("N 2\nP 2 1\nX 1\nD 1 1\n", "unknown directive"),
        ("N 2\nP 1 1\nD 1 1\n", "out of range"),
        ("N 2\nP 2 x\nD 1 1\n", "not an integer"),
        ("N 2\nP 2 -1\nD 1 1\n", "target vertex -1 out of range at line 2"),
        ("N 2\nP 2 1\nD 0 1_0\n", "multiplicity is not an integer ('1_0') at line 3"),
        ("N 2\nP 2 1\nD 0 \uff12\n", "multiplicity is not an integer ('\uff12') at line 3"),
        ("N 2\nP 2 1\nD 0 +1\n", "multiplicity is not an integer ('+1') at line 3"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_resolution(text)
    assert fragment in str(info.value)


def test_parse_error_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_resolution("N 3\nP 2 1\nP 3 1 2\nD 0 0\n")
    assert info.value.lineno == 4


def test_round_trip_is_byte_identical():
    for name in ("maximal.res", "cusp.res", "sample20.res"):
        text = (FIXTURES / name).read_text()
        graph, factorization = parse_resolution(text)
        assert serialize_resolution(graph, factorization) == text


def test_serialize_then_parse():
    graph = ResolutionGraph.build(4, {2: (1,), 3: (1, 2), 4: (3,)})
    text = serialize_resolution(graph, (0, 1, 0, 2))
    parsed_graph, factorization = parse_resolution(text)
    assert parsed_graph == graph
    assert factorization == (0, 1, 0, 2)


def test_serialize_rejects_non_integral_factorization():
    graph = ResolutionGraph.build(1)
    for bad in (2.5, float("inf"), float("nan"), "3"):
        with pytest.raises(ValueError, match="is not an integer"):
            serialize_resolution(graph, (bad,))
    # integral input of any exact type writes the same bytes as an int
    for good in (2, 2.0, Fraction(2)):
        assert serialize_resolution(graph, (good,)) == "N 1\nD 2\n"


def test_proximity_from_valuation_two_chain():
    graph = proximity_from_valuation(((1, 1), (1, 2)))
    assert graph.prox == ((), (1,))


def test_proximity_from_valuation_cusp():
    graph = proximity_from_valuation(((1, 1, 2), (1, 2, 3), (2, 3, 6)))
    assert graph.prox == ((), (1,), (1, 2))


def test_proximity_from_valuation_sample20():
    graph = proximity_from_valuation(VALUATION_MATRIX)
    assert graph.n == 20
    assert valuation_table(graph).matrix == VALUATION_MATRIX


def test_proximity_from_valuation_rejects_bad_input():
    with pytest.raises(ValueError):
        proximity_from_valuation(((2,),))
    with pytest.raises(ValueError):
        proximity_from_valuation(((1, 1), (2, 2)))
    with pytest.raises(ValueError):
        proximity_from_valuation(((1, 0), (0, 1)))  # disconnected


def test_proximity_from_valuation_rejects_non_integral_entries():
    with pytest.raises(ValueError, match="not an integer"):
        proximity_from_valuation(((1, 1.9), (1.2, 2.7)))
    graph = proximity_from_valuation(((1.0, Fraction(1)), (1, 2.0)))
    assert graph.prox == ((), (1,))
    with pytest.raises(ValueError, match="inf is not an integer"):
        proximity_from_valuation(((1, float("inf")), (float("inf"), 2)))


def test_proximity_from_valuation_rejections_keep_their_order():
    # the first point whose row fits no proximity row is named
    for matrix in (((1, -1), (-1, 2)), ((1, -1, 0), (-1, 2, 0), (0, 0, 2))):
        with pytest.raises(ValueError) as caught:
            proximity_from_valuation(matrix)
        assert str(caught.value) == "not a valuation table: no proximity row fits vertex 2"
    # the cusp's table with only V[3][3] changed, then with V[3][1] = V[1][3] changed
    for matrix in (((1, 1, 2), (1, 2, 3), (2, 3, 7)), ((1, 1, 3), (1, 2, 3), (3, 3, 6))):
        with pytest.raises(ValueError) as caught:
            proximity_from_valuation(matrix)
        assert str(caught.value) == "not a valuation table: no proximity row fits vertex 3"


def test_proximity_from_valuation_on_every_small_structure():
    # Tables come from ValuationTable, which does not validate, so the
    # invalid structures' tables are tested too.
    tables = {}
    for g in all_proximity_structures(6):
        table = ValuationTable(g).matrix
        if violations := validate(g):
            with pytest.raises(ValueError) as caught:
                proximity_from_valuation(table)
            assert str(caught.value) == "not a valid resolution graph: " + "; ".join(violations)
        else:
            assert proximity_from_valuation(table) == g
            tables[table] = g
    assert len(tables) == 1070
    # A perturbed table is accepted exactly when it is the table of a
    # valid structure, and then gives that structure.  Changes to the last
    # row alone can move the last point to other targets.
    rng = random.Random("perturbed-tables")
    valid, accepted = list(tables), 0
    for _ in range(2000):
        matrix = [list(row) for row in rng.choice(valid)]
        n = len(matrix)
        for _ in range(rng.randint(1, 3)):
            i, j = rng.choice((n - 1, rng.randrange(n))), rng.randrange(n)
            matrix[i][j] += rng.choice((-2, -1, 1, 2))
            matrix[j][i] = matrix[i][j]
        key = tuple(map(tuple, matrix))
        try:
            graph = proximity_from_valuation(matrix)
        except ValueError:
            assert key not in tables
        else:
            assert graph == tables[key]
            accepted += 1
    assert accepted > 0


def test_proximity_from_valuation_round_trips_a_large_graph():
    graph = random_blowup_graph(random.Random("recover:400"), 400, 0.5)
    assert proximity_from_valuation(ValuationTable(graph).matrix) == graph


def test_checked_in_sample20_matches_generator():
    from jumpnum.sample20 import resolution_text

    assert (FIXTURES / "sample20.res").read_text() == resolution_text()
    graph, factorization = parse_resolution(resolution_text())
    assert factorization == FACTORIZATION
