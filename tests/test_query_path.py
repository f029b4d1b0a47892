"""No jumping-number query builds an n x n matrix: the dense inverse
proximity matrix and valuation table serve ``matrices``, ``semigroup``,
the infinitely-near order and the tests, which use them as references."""

import importlib
import pkgutil
import random
from fractions import Fraction

import pytest

import jumpnum
from jumpnum import (
    IdealSpec,
    adjacency,
    branch_value,
    is_jumping_number,
    jump_test_value,
    jumping_numbers,
    jumping_numbers_at,
    log_canonical_threshold,
    multiplier_divisor,
    oracle_jumping_numbers,
    serialize_resolution,
)
from jumpnum import cli, graph, lattice

from conftest import load_fixture, random_blowup_graph, random_ideal


@pytest.fixture
def dense_calls(monkeypatch):
    """Names of the dense builders called, wherever a module binds them."""
    calls = []
    modules = [jumpnum] + [importlib.import_module(f"jumpnum.{info.name}")
                           for info in pkgutil.iter_modules(jumpnum.__path__)]
    for home, name in ((graph, "inverse_proximity"), (lattice, "valuation_table")):
        original = getattr(home, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
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
    capsys.readouterr()
    assert dense_calls == []


def test_large_graph_lct_builds_no_dense_matrix(dense_calls):
    rng = random.Random("query-path:3200")
    g = random_blowup_graph(rng, 3200, 0.5)
    factorization = [0] * g.n
    for mu in rng.sample(range(g.n), 3):
        factorization[mu] = rng.randint(1, 2)
    assert log_canonical_threshold(IdealSpec(g, tuple(factorization))) > 0
    assert dense_calls == []
