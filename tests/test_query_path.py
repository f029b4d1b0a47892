"""No query builds an n x n matrix: the dense inverse proximity matrix and
the valuation table's ``matrix`` serve ``matrices`` and the tests, which use
them as references.  Every other reader of the valuation table, from the
jumping-number scan to ``semigroup``, the table-taking public functions and
the recovery of proximities from a table, reads single rows, and the
infinitely-near order walks the proximities."""

import importlib
import pkgutil
import random
from fractions import Fraction
from functools import cached_property

import pytest

import jumpnum
from jumpnum import (
    IdealSpec,
    adjacency,
    associated_pairs,
    branch_gcd,
    branch_value,
    frobenius_multiple,
    infinitely_near,
    is_jumping_number,
    jump_test_value,
    jumping_numbers,
    jumping_numbers_at,
    log_canonical_threshold,
    multiplier_divisor,
    oracle_jumping_numbers,
    proximity_from_valuation,
    serialize_resolution,
    valuation_ratio,
    valuation_table,
    value_semigroup,
    vertex_semigroup,
)
from jumpnum import cli, graph, lattice

from conftest import load_fixture, random_blowup_graph, random_ideal


@pytest.fixture
def dense_calls(monkeypatch):
    """The dense builds made: calls to ``inverse_proximity``, wherever a module
    binds it, and first evaluations of ``ValuationTable.matrix``."""
    calls = []
    modules = [jumpnum] + [importlib.import_module(f"jumpnum.{info.name}")
                           for info in pkgutil.iter_modules(jumpnum.__path__)]
    original = graph.inverse_proximity

    def counted(*args):
        calls.append("inverse_proximity")
        return original(*args)

    for module in modules:
        if getattr(module, "inverse_proximity", None) is original:
            monkeypatch.setattr(module, "inverse_proximity", counted)

    build = lattice.ValuationTable.matrix.func

    def matrix(table):
        calls.append("ValuationTable.matrix")
        return build(table)

    counted_matrix = cached_property(matrix)
    counted_matrix.__set_name__(lattice.ValuationTable, "matrix")
    monkeypatch.setattr(lattice.ValuationTable, "matrix", counted_matrix)
    # cached tables may hold a matrix built before the count started
    valuation_table.cache_clear()
    return calls


def _ideals():
    rng = random.Random("query-path")
    return [load_fixture("sample20.res"),
            *(random_ideal(rng, max_n=14, satellite_bias=bias) for bias in (0.3, 0.8)
              for _ in range(6))]


def test_library_queries_build_no_dense_matrix(dense_calls):
    for ideal in _ideals():
        found = jumping_numbers(ideal, 2)
        lct = log_canonical_threshold(ideal)
        assert oracle_jumping_numbers(ideal, 1).values() == jumping_numbers(ideal, 1).values()
        assert is_jumping_number(ideal, lct)
        multiplier_divisor(ideal, Fraction(3, 2))
        dual = adjacency(ideal.graph)
        for mu in range(1, ideal.graph.n + 1):
            jumping_numbers_at(ideal, mu, 1)
            jump_test_value(ideal, mu, Fraction(1, ideal.valuations[mu - 1]))
            for nu in dual.neighbors_of(mu):
                branch_value(ideal, mu, nu)
        assert found.values()[0] == lct
    assert dense_calls == []


def test_graph_and_semigroup_queries_build_no_dense_matrix(dense_calls):
    for ideal in _ideals():
        g, n = ideal.graph, ideal.graph.n
        table, dual = valuation_table(g), adjacency(g)
        for mu in range(1, n + 1):
            associated_pairs(g, mu)
            vertex_semigroup(table, g, mu)
            value_semigroup(table, g, mu)
            for nu in range(1, n + 1):
                infinitely_near(g, mu, nu)
                valuation_ratio(table, mu, nu, mu)
            for nu in (mu, *dual.neighbors_of(mu)):
                frobenius_multiple(table, g, mu, nu)
            for nu in dual.neighbors_of(mu):
                branch_gcd(table, g, mu, nu)
        assert proximity_from_valuation([table.row(mu) for mu in range(1, n + 1)]) == g
    assert dense_calls == []


def test_cli_queries_build_no_dense_matrix(dense_calls, tmp_path, capsys):
    paths = []
    for k, ideal in enumerate(_ideals()):
        path = tmp_path / f"ideal{k}.res"
        path.write_text(serialize_resolution(ideal.graph, ideal.factorization))
        paths.append(str(path))
    for path in paths:
        for argv in (["jumping", path, "--bound", "3/2", "--format", "tsv"],
                     ["jumping", path, "--vertex", "1"], ["lct", path],
                     ["oracle", path, "--bound", "1"], ["multiplier", path, "--xi", "5/3"]):
            assert cli.main(argv) == 0, argv
    for path, ideal in zip(paths, _ideals()):
        for mu in range(1, ideal.graph.n + 1):
            assert cli.main(["semigroup", path, "--vertex", str(mu)]) == 0
    capsys.readouterr()
    assert dense_calls == []
    # the count sees the builds that ``matrices`` makes on purpose
    for which in ("V", "Q"):
        assert cli.main(["matrices", paths[0], "--which", which]) == 0
    capsys.readouterr()
    assert dense_calls == ["ValuationTable.matrix", "inverse_proximity"]


def test_large_graph_lct_builds_no_dense_matrix(dense_calls):
    rng = random.Random("query-path:3200")
    g = random_blowup_graph(rng, 3200, 0.5)
    factorization = [0] * g.n
    for mu in rng.sample(range(g.n), 3):
        factorization[mu] = rng.randint(1, 2)
    assert log_canonical_threshold(IdealSpec(g, tuple(factorization))) > 0
    assert dense_calls == []
