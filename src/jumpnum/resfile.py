"""Resolution files: a line-oriented exchange format for proximity data.

Grammar (``#`` starts a comment, blank lines are ignored)::

    N <n>
    P <mu> <nu1> [<nu2>]     one line per vertex mu = 2..n
    D <d1> <d2> ... <dn>     factorization multiplicities, nonnegative

Parsing is strict: numbers are ASCII digits with an optional leading
``-``, and anything else, duplicate or missing P lines, references to later
vertices, wrong D arity and negative entries are all rejected with the
offending line number.  ``serialize_resolution`` emits the canonical form,
so parse/serialize round trips are byte identical on canonical files.
``proximity_from_valuation`` reads a resolution's proximities back off its
valuation table point by point with the lattice's passes, in O(n^2).
"""

from __future__ import annotations

from types import SimpleNamespace

from .graph import ResolutionGraph, _integral, validate
from .lattice import _hat_from_star, _star_from_e

__all__ = [
    "ParseError",
    "parse_resolution",
    "serialize_resolution",
    "proximity_from_valuation",
]


class ParseError(ValueError):
    """Input rejected; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"{message} at line {lineno}")


def _tokens(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _int(word: str, lineno: int, what: str) -> int:
    # int() alone also takes '+1', '1_0' and non-ASCII digits, none of which
    # survive a serialize round trip.
    digits = word.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(word)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(lineno, f"{what} is not an integer ({word!r})")


def parse_resolution(text: str) -> tuple[ResolutionGraph, tuple[int, ...]]:
    """Parse a resolution file into a graph and its factorization vector."""
    lines = list(_tokens(text))
    if not lines:
        raise ParseError(1, "empty input")
    lineno, words = lines[0]
    if words[0] != "N" or len(words) != 2:
        raise ParseError(lineno, "expected header 'N <n>'")
    n = _int(words[1], lineno, "vertex count")
    if n < 1:
        raise ParseError(lineno, "vertex count must be positive")

    prox: dict[int, tuple[int, ...]] = {}
    factorization: tuple[int, ...] | None = None
    last = lineno
    for lineno, words in lines[1:]:
        last = lineno
        key = words[0]
        if key == "P":
            if factorization is not None:
                raise ParseError(lineno, "P line after D line")
            if not 3 <= len(words) <= 4:
                raise ParseError(lineno, "expected 'P <mu> <nu1> [<nu2>]'")
            mu = _int(words[1], lineno, "vertex")
            if not 2 <= mu <= n:
                raise ParseError(lineno, f"vertex {mu} out of range 2..{n}")
            if mu in prox:
                raise ParseError(lineno, f"duplicate P line for vertex {mu}")
            targets = tuple(_int(w, lineno, "target vertex") for w in words[2:])
            for nu in targets:
                if nu < 1:
                    raise ParseError(lineno, f"target vertex {nu} out of range")
                if nu >= mu:
                    raise ParseError(lineno, "forward reference")
            if len(set(targets)) != len(targets):
                raise ParseError(lineno, "repeated target vertex")
            prox[mu] = targets
        elif key == "D":
            if factorization is not None:
                raise ParseError(lineno, "duplicate D line")
            if len(words) - 1 != n:
                raise ParseError(
                    lineno, f"D line expects {n} entries, got {len(words) - 1}"
                )
            entries = tuple(_int(w, lineno, "multiplicity") for w in words[1:])
            for value in entries:
                if value < 0:
                    raise ParseError(lineno, f"negative entry {value}")
            factorization = entries
        else:
            raise ParseError(lineno, f"unknown directive {key!r}")

    for mu in range(2, n + 1):
        if mu not in prox:
            raise ParseError(last, f"missing P line for vertex {mu}")
    if factorization is None:
        raise ParseError(last, "missing D line")
    return ResolutionGraph.build(n, prox), factorization


def serialize_resolution(graph: ResolutionGraph, factorization) -> str:
    """Canonical text form of a graph plus factorization vector."""
    if len(factorization) != graph.n:
        raise ValueError("factorization length does not match the graph")
    out = [f"N {graph.n}"]
    for mu in range(2, graph.n + 1):
        targets = " ".join(str(nu) for nu in graph.prox[mu - 1])
        out.append(f"P {mu} {targets}")
    out.append("D " + " ".join(str(_integral(d)) for d in factorization))
    return "\n".join(out) + "\n"


def proximity_from_valuation(matrix) -> ResolutionGraph:
    """Recover the proximity structure whose valuation table is ``matrix``.

    V = Q Q^t, and row i of Q = P^-1 is e_i plus the rows of the points i
    is proximate to.  Read the points in blowup order, and suppose the
    leading (i-1)-block of V is the table of the points read so far.  Then
    row i left of the diagonal is that block times the 0/1 vector x of i's
    targets, and V[i][i] is one plus the row's sum over them.  The block's
    inverse is P^t P, so x is the row mapped through the passes P then P^t
    on the points read so far, and with those targets the leading i-block
    is their table.  By induction V is the table of the whole graph, so
    nothing is left to reproduce.  Each point costs two passes.

    Rejected, in this order: non-integral entries, a matrix that is not
    square or not symmetric, the first point whose row maps to no 0/1
    vector or whose diagonal is not one plus that sum, an invalid graph.
    """
    rows = [tuple(map(_integral, row)) for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("valuation matrix must be square")
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        raise ValueError("valuation matrix must be symmetric")

    prox: list[tuple[int, ...]] = []
    read = SimpleNamespace(prox=prox)  # the points read so far; the passes read only prox
    for i, row in enumerate(rows):
        x = _hat_from_star(_star_from_e(row[:i], read), read)
        targets = tuple(j for j, entry in enumerate(x, 1) if entry)
        if set(x) - {0, 1} or row[i] != 1 + sum(row[j - 1] for j in targets):
            raise ValueError(f"not a valuation table: no proximity row fits vertex {i + 1}")
        prox.append(targets)
    graph = ResolutionGraph(n, tuple(prox))
    if violations := validate(graph):
        raise ValueError("not a valid resolution graph: " + "; ".join(violations))
    return graph
