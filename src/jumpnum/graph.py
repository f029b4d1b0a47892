"""Proximity structure of a resolution and its dual graph.

A sequence of point blowups over a smooth surface point is recorded by
proximity data: for each infinitely near point, the set of earlier points
whose exceptional curves pass through it.  Everything else -- the proximity
matrix, the intersection form, the dual graph with its weights and
valences, branches, the infinitely-near partial order and the associated
pairs of a vertex -- is derived from that data here.

Vertices are 1-based and listed in blowup order, so the proximity matrix
is unipotent lower triangular and inverts by forward substitution over the
integers.  The intersection form P^t P is kept sparse: a point has at
most two earlier targets, so its O(n) nonzero off-diagonal entries come
straight from the proximities, and so does the dual graph, in linear
time.  A graph that passes :func:`validate` has a tree as its dual graph.
Validity is computed once per graph object and cached on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

__all__ = [
    "ResolutionGraph",
    "AssociatedPairSequence",
    "DualGraph",
    "InvalidGraphError",
    "validate",
    "is_free",
    "proximity_matrix",
    "inverse_proximity",
    "intersection_form",
    "adjacency",
    "branch",
    "infinitely_near",
    "associated_pairs",
]

Matrix = tuple[tuple[int, ...], ...]


class InvalidGraphError(ValueError):
    """Raised when an operation requires a valid resolution graph."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class ResolutionGraph:
    """Proximity data of a blowup sequence.

    ``prox[mu - 1]`` holds the sorted tuple of earlier vertices the
    vertex ``mu`` is proximate to.  The root (vertex 1) has an empty
    tuple.  Instances admit structurally broken data; use :func:`validate`
    to obtain the list of violations.
    """

    n: int
    prox: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _integral(self.n))
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        if len(self.prox) != self.n:
            raise ValueError("prox must list one entry per vertex")
        norm = tuple(tuple(sorted(set(map(_integral, entry)))) for entry in self.prox)
        object.__setattr__(self, "prox", norm)
        object.__setattr__(self, "_hash", hash((self.n, norm)))

    def __hash__(self):
        return self._hash

    @classmethod
    def build(cls, n: int, prox: dict[int, tuple[int, ...]] | None = None) -> "ResolutionGraph":
        """Construct from a {vertex: proximate-to} mapping (root omitted)."""
        n, prox = _integral(n), prox or {}
        if outside := prox.keys() - range(1, n + 1):
            raise ValueError(f"vertex out of range: {outside.pop()!r}")
        return cls(n, tuple(tuple(prox.get(mu, ())) for mu in range(1, n + 1)))

    def prox_of(self, mu: int) -> tuple[int, ...]:
        _check_vertex(self, mu)
        return self.prox[mu - 1]

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """What :func:`validate` reports, computed once per instance."""
        return tuple(validate(self))


@dataclass(frozen=True)
class DualGraph:
    """Adjacency of the exceptional curves, with weights from the
    intersection form."""

    n: int
    neighbors: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]

    def neighbors_of(self, mu: int) -> tuple[int, ...]:
        _check_vertex(self, mu)
        return self.neighbors[mu - 1]

    def valence(self, mu: int) -> int:
        return len(self.neighbors_of(mu))

    def weight(self, mu: int) -> int:
        _check_vertex(self, mu)
        return self.weights[mu - 1]

    @property
    def edges(self) -> frozenset:
        return frozenset(
            (mu, nu)
            for mu in range(1, self.n + 1)
            for nu in self.neighbors[mu - 1]
            if mu < nu
        )

    @property
    def ends(self) -> tuple[int, ...]:
        return tuple(mu for mu, adj in enumerate(self.neighbors, 1) if len(adj) <= 1)

    @property
    def stars(self) -> tuple[int, ...]:
        return tuple(mu for mu, adj in enumerate(self.neighbors, 1) if len(adj) >= 3)


@dataclass(frozen=True)
class AssociatedPairSequence:
    """The chain of (satellite anchor, free peak) pairs below a vertex.

    The last pair is the one associated to the vertex itself; each earlier
    pair is associated to the anchor of its successor, ending at the root.
    """

    vertex: int
    pairs: tuple[tuple[int, int], ...]


def _check_vertex(graph: ResolutionGraph, mu: int) -> None:
    if not 1 <= mu <= graph.n:
        raise ValueError(f"vertex out of range: {mu}")


def _integral(x) -> int:
    """x as an int; a ValueError unless it is integral."""
    try:
        if int(x) == x:
            return int(x)
    except (OverflowError, ValueError):  # inf, nan, or a non-numeric string
        pass
    raise ValueError(f"{x!r} is not an integer")


def is_free(graph: ResolutionGraph, mu: int) -> bool:
    """A point is free when it is proximate to at most one earlier point."""
    _check_vertex(graph, mu)
    return len(graph.prox[mu - 1]) <= 1


def validate(graph: ResolutionGraph) -> list[str]:
    """Check the structural rules; return the violations (empty if valid).

    Every point but the root has one or two earlier targets, and a point
    proximate to two sits where their curves still meet: every nonzero
    off-diagonal entry of P^t P is -1.  Violations are returned, not raised:
    each names the rule and the offending vertex, or an entry's two vertices.

    A graph that passes has a tree as its dual graph, by induction in
    blowup order.  A free point adds a leaf on its target.  A satellite v
    on a and b raises entry (a, b) by one.  That entry starts at -1 or 0
    when b is blown up and only rises, so the check allows this only if it
    was -1: v replaces the edge a-b with the path a-v-b.
    """
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
    return [
        f"intersection form entry {entry} between vertices {mu} and {nu}, expected 0 or -1"
        for (mu, nu), entry in sorted(_form_entries(graph).items())
        if entry != -1
    ]


def ensure_valid(graph: ResolutionGraph) -> None:
    if graph.violations:
        raise InvalidGraphError(graph.violations)


def proximity_matrix(graph: ResolutionGraph) -> Matrix:
    """Unipotent lower-triangular matrix with -1 at (mu, nu) when mu is
    proximate to nu."""
    ensure_valid(graph)
    n = graph.n
    return tuple(
        tuple(
            1 if mu == nu else (-1 if nu in graph.prox[mu - 1] else 0)
            for nu in range(1, n + 1)
        )
        for mu in range(1, n + 1)
    )


@lru_cache(maxsize=None)
def inverse_proximity(graph: ResolutionGraph) -> Matrix:
    """Exact inverse of the proximity matrix, by forward substitution.

    Row mu is the unit vector at mu plus the rows of the vertices mu is
    proximate to; all entries are nonnegative integers.
    """
    ensure_valid(graph)
    n = graph.n
    rows: list[tuple[int, ...]] = []
    for mu in range(1, n + 1):
        row = [0] * n
        row[mu - 1] = 1
        for nu in graph.prox[mu - 1]:
            prev = rows[nu - 1]
            for j in range(nu):
                row[j] += prev[j]
        rows.append(tuple(row))
    return tuple(rows)


def _form_entries(graph: ResolutionGraph) -> dict[tuple[int, int], int]:
    """Nonzero entries (mu, nu), mu < nu, of P^t P: -1 where nu is
    proximate to mu, +1 for each point proximate to both.

    Needs every point proximate to at most two earlier vertices.
    """
    entries: dict[tuple[int, int], int] = {}
    for k, targets in enumerate(graph.prox, 1):
        for mu in targets:
            entries[mu, k] = -1
        if len(targets) == 2:
            entries[targets] = entries.get(targets, 0) + 1
    return {key: entry for key, entry in entries.items() if entry}


def intersection_form(graph: ResolutionGraph) -> Matrix:
    """The symmetric form whose diagonal carries the vertex weights and
    whose -1 entries are the dual-graph edges, filled in on demand."""
    dual = adjacency(graph)
    return tuple(
        tuple(dual.weight(mu) if mu == nu else -(nu in adj) for nu in range(1, graph.n + 1))
        for mu, adj in enumerate(dual.neighbors, 1)
    )


@lru_cache(maxsize=None)
def adjacency(graph: ResolutionGraph) -> DualGraph:
    """Dual graph from the sparse intersection form: neighbours ascending,
    weights one plus the number of points proximate to the vertex (the
    diagonal of P^t P)."""
    ensure_valid(graph)
    n = graph.n
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for mu, nu in _form_entries(graph):  # every entry is -1 on a valid graph
        neighbors[mu - 1].append(nu)
        neighbors[nu - 1].append(mu)
    weights = [1] * n
    for targets in graph.prox:
        for nu in targets:
            weights[nu - 1] += 1
    return DualGraph(n, tuple(tuple(sorted(adj)) for adj in neighbors), tuple(weights))


def branch(graph: ResolutionGraph, mu: int, nu: int) -> frozenset:
    """Vertices of the maximal connected subgraph containing nu but not mu.

    Empty when mu == nu; equal for any two representatives from the same
    component of the dual graph minus mu.
    """
    _check_vertex(graph, mu)
    _check_vertex(graph, nu)
    if mu == nu:
        return frozenset()
    dual = adjacency(graph)
    seen = {nu}
    stack = [nu]
    while stack:
        v = stack.pop()
        for w in dual.neighbors[v - 1]:
            if w != mu and w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def infinitely_near(graph: ResolutionGraph, mu: int, nu: int) -> bool:
    """Whether nu lies below mu in the blowup order (reflexively)."""
    _check_vertex(graph, mu)
    _check_vertex(graph, nu)
    ensure_valid(graph)
    return nu in _below(graph, mu)


def _below(graph: ResolutionGraph, mu: int) -> set[int]:
    """The vertices nu with Q[mu][nu] > 0: mu and every vertex its proximities reach."""
    seen = {mu}
    for nu in range(mu, 1, -1):  # proximities point to earlier vertices
        if nu in seen:
            seen.update(graph.prox[nu - 1])
    return seen


def _pair_below(graph: ResolutionGraph, mu: int) -> tuple[int, int]:
    # The vertices below mu form a chain, totally ordered by the vertex index.
    tau = max(nu for nu in _below(graph, mu) if is_free(graph, nu))
    anchors = [nu for nu in _below(graph, tau) if not is_free(graph, nu)]
    return max(anchors, default=1), tau


def associated_pairs(graph: ResolutionGraph, mu: int) -> AssociatedPairSequence:
    """Anchor/peak pairs of mu, innermost last.

    The peak of a vertex is the largest free vertex below it; the anchor is
    the largest satellite below the peak, or the root when the whole chain
    is free.  The sequence recurses on anchors until the root is reached.
    """
    ensure_valid(graph)
    _check_vertex(graph, mu)
    pairs = []
    current = mu
    while True:
        gamma, tau = _pair_below(graph, current)
        pairs.append((gamma, tau))
        if is_free(graph, gamma):
            break
        current = gamma
    return AssociatedPairSequence(mu, tuple(reversed(pairs)))
