"""Plane branches from their Puiseux characteristic, against closed forms:
the value semigroup, Noether's formula, the lct and the jumping numbers in
(0, 1), plus a round trip of each branch's valuation table."""

import random
from fractions import Fraction

import pytest

from jumpnum import (
    NumericalSemigroup,
    jumping_numbers,
    log_canonical_threshold,
    proximity_from_valuation,
    valuation_table,
    value_semigroup,
)

from branches import (
    branch_ideal,
    jumping_numbers_below_one,
    multiplicities,
    random_characteristic,
    semigroup_generators,
)
from conftest import load_fixture

CHOSEN = [
    (2, (3,)), (2, (401,)), (3, (4,)), (3, (7,)), (4, (6, 7)), (4, (6, 9)),
    (6, (9, 10)), (8, (12, 14, 15)),
]


def _characteristics():
    rng = random.Random("branches")
    return CHOSEN + [random_characteristic(rng, rng.randint(1, 3)) for _ in range(60)]


def test_the_cusp_is_the_checked_in_fixture():
    assert branch_ideal(2, (3,)) == load_fixture("cusp.res")
    assert branch_ideal(2, (401,)).graph.n == 202


@pytest.mark.parametrize("n, betas", _characteristics())
def test_branch_matches_its_closed_forms(n, betas):
    ideal = branch_ideal(n, betas)
    graph, last = ideal.graph, ideal.graph.n
    table = valuation_table(graph)
    # the value semigroup is <beta-bar_0, ..., beta-bar_g> as a monoid
    assert value_semigroup(table, graph, last).apery == (
        NumericalSemigroup(semigroup_generators(n, betas)).apery
    )
    # Noether: two general curves of the branch meet with multiplicity sum m_i^2
    assert ideal.valuations[-1] == sum(m * m for m in multiplicities(n, betas))
    assert log_canonical_threshold(ideal) == Fraction(1, n) + Fraction(1, betas[0])
    below_one = {xi for xi in jumping_numbers(ideal, 1).values() if xi < 1}
    assert below_one == jumping_numbers_below_one(n, betas)
    assert proximity_from_valuation(table.matrix) == graph
