"""Bundled 20-vertex worked example.

A product of five simple ideals whose resolution has twenty infinitely
near points, five satellite clusters and a rich mix of branch types.  The
data here is the valuation table together with the factorization
multiplicities; the proximity structure is recovered from the table (see
``resfile.proximity_from_valuation``), which is what the ``fixture-gen``
CLI subcommand does to regenerate ``fixtures/sample20.res``.
"""

from __future__ import annotations

VALUATION_MATRIX: tuple[tuple[int, ...], ...] = (
    (1, 1, 2, 2, 2, 4, 6, 6, 4, 1, 1, 2, 3, 3, 1, 2, 2, 4, 6, 1),
    (1, 2, 3, 3, 3, 6, 9, 9, 6, 1, 1, 2, 3, 3, 1, 2, 2, 4, 6, 1),
    (2, 3, 6, 6, 6, 12, 18, 18, 12, 2, 2, 4, 6, 6, 2, 4, 4, 8, 12, 2),
    (2, 3, 6, 7, 7, 14, 21, 21, 13, 2, 2, 4, 6, 6, 2, 4, 4, 8, 12, 2),
    (2, 3, 6, 7, 8, 15, 22, 22, 13, 2, 2, 4, 6, 6, 2, 4, 4, 8, 12, 2),
    (4, 6, 12, 14, 15, 30, 44, 44, 26, 4, 4, 8, 12, 12, 4, 8, 8, 16, 24, 4),
    (6, 9, 18, 21, 22, 44, 66, 66, 39, 6, 6, 12, 18, 18, 6, 12, 12, 24, 36, 6),
    (6, 9, 18, 21, 22, 44, 66, 67, 39, 6, 6, 12, 18, 18, 6, 12, 12, 24, 36, 6),
    (4, 6, 12, 13, 13, 26, 39, 39, 26, 4, 4, 8, 12, 12, 4, 8, 8, 16, 24, 4),
    (1, 1, 2, 2, 2, 4, 6, 6, 4, 2, 2, 4, 6, 6, 1, 2, 2, 4, 6, 1),
    (1, 1, 2, 2, 2, 4, 6, 6, 4, 2, 3, 5, 7, 7, 1, 2, 2, 4, 6, 1),
    (2, 2, 4, 4, 4, 8, 12, 12, 8, 4, 5, 10, 14, 14, 2, 4, 4, 8, 12, 2),
    (3, 3, 6, 6, 6, 12, 18, 18, 12, 6, 7, 14, 21, 21, 3, 6, 6, 12, 18, 3),
    (3, 3, 6, 6, 6, 12, 18, 18, 12, 6, 7, 14, 21, 22, 3, 6, 6, 12, 18, 3),
    (1, 1, 2, 2, 2, 4, 6, 6, 4, 1, 1, 2, 3, 3, 2, 3, 3, 6, 9, 1),
    (2, 2, 4, 4, 4, 8, 12, 12, 8, 2, 2, 4, 6, 6, 3, 6, 6, 12, 18, 2),
    (2, 2, 4, 4, 4, 8, 12, 12, 8, 2, 2, 4, 6, 6, 3, 6, 7, 13, 20, 2),
    (4, 4, 8, 8, 8, 16, 24, 24, 16, 4, 4, 8, 12, 12, 6, 12, 13, 26, 39, 4),
    (6, 6, 12, 12, 12, 24, 36, 36, 24, 6, 6, 12, 18, 18, 9, 18, 20, 39, 60, 6),
    (1, 1, 2, 2, 2, 4, 6, 6, 4, 1, 1, 2, 3, 3, 1, 2, 2, 4, 6, 2),
)

FACTORIZATION: tuple[int, ...] = (
    0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1, 3,
)


def resolution_text() -> str:
    """Regenerate the canonical resolution-file text for this example."""
    from .resfile import proximity_from_valuation, serialize_resolution

    graph = proximity_from_valuation(VALUATION_MATRIX)
    return serialize_resolution(graph, FACTORIZATION)
