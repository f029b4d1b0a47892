"""Command-line front end.

Subcommands cover validation, the derived matrices, per-vertex semigroup
data, jumping-number enumeration by the closed formula, the log-canonical
threshold, the multiplier-ideal oracle with a built-in comparison against
the closed formula, multiplier-ideal divisors, and regeneration of the
bundled 20-vertex example.  Results go to stdout, diagnostics to stderr;
exit codes are 0 (ok), 1 (bad input), 2 (oracle mismatch).  The parser is
built once, at import; each subcommand binds its handler with
``set_defaults``, so ``main`` only parses and calls it.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from . import sample20
from .graph import ResolutionGraph, adjacency, inverse_proximity, proximity_matrix, validate
from .ideals import IdealSpec
from .jumping import jumping_numbers, jumping_numbers_at, log_canonical_threshold
from .lattice import canonical, valuation_table
from .oracle import multiplier_divisor, oracle_jumping_numbers
from .resfile import parse_resolution
from .semigroups import NumericalSemigroup


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    # Usage problems are input errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load(path: str) -> tuple[ResolutionGraph, tuple[int, ...]]:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_resolution(handle.read())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # a parse error, or bytes that are not UTF-8
        raise ValueError(f"{path}: {exc}") from None


def _ideal(path: str) -> IdealSpec:
    graph, factorization = _load(path)
    try:
        return IdealSpec(graph, factorization)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _print_rows(rows) -> None:
    for row in rows:
        print(" ".join(str(int(x)) for x in row))


def _cmd_validate(args) -> int:
    graph, _ = _load(args.file)
    violations = validate(graph)
    if violations:
        for violation in violations:
            print(violation)
        return 1
    print("OK")
    return 0


def _cmd_matrices(args) -> int:
    ideal = _ideal(args.file)
    graph = ideal.graph
    if args.which == "P":
        _print_rows(proximity_matrix(graph))
    elif args.which == "Q":
        _print_rows(inverse_proximity(graph))
    elif args.which == "V":
        _print_rows(valuation_table(graph).matrix)
    else:
        _print_rows([canonical(graph).k])
    return 0


def _cmd_semigroup(args) -> int:
    ideal = _ideal(args.file)
    mu, graph = args.vertex, ideal.graph
    row, k = valuation_table(graph).row(mu), canonical(graph).k  # row checks mu
    v, adj = row[mu - 1], adjacency(graph).neighbors_of(mu)
    gcds = [math.gcd(v, row[nu - 1]) for nu in adj]
    for nu, s in zip(adj, gcds):
        print(f"s {mu} {nu} {s}")
    for nu in adj:
        # the Frobenius multiple of the branch towards a neighbour, off row mu and k
        print(f"M_frobenius {nu} {row[nu - 1] * (k[mu - 1] + 1) - v * (k[nu - 1] + 1)}")
    gens = NumericalSemigroup((*gcds, v)).generators
    print("S generators: " + " ".join(str(g) for g in gens))
    return 0


def _print_jumping(found, fmt: str) -> None:
    """Each value in lowest terms from its key, with its support under tsv."""
    lcm, lines = found.lcm, []
    for key, support in zip(found.keys, found.supports):
        g = math.gcd(key, lcm)
        line = f"{key // g}/{lcm // g}" if g != lcm else str(key // g)
        if fmt == "tsv":
            line += "\t" + ",".join(map(str, sorted(support)))
        lines.append(line + "\n")
    sys.stdout.write("".join(lines))


def _cmd_jumping(args) -> int:
    ideal = _ideal(args.file)
    if args.vertex is not None:
        found = jumping_numbers_at(ideal, args.vertex, args.bound)
    else:
        found = jumping_numbers(ideal, args.bound)
    _print_jumping(found, args.format)
    return 0


def _cmd_lct(args) -> int:
    print(log_canonical_threshold(_ideal(args.file)))
    return 0


def _cmd_oracle(args) -> int:
    ideal = _ideal(args.file)
    scanned = oracle_jumping_numbers(ideal, args.bound)
    _print_jumping(scanned, "text")
    expected = jumping_numbers(ideal, args.bound)
    if (scanned.lcm, scanned.keys) == (expected.lcm, expected.keys):
        print("MATCH")
        return 0
    extra = sorted(set(scanned.values()) - set(expected.values()))
    missing = sorted(set(expected.values()) - set(scanned.values()))
    detail = []
    if extra:
        detail.append("oracle only: " + " ".join(map(str, extra)))
    if missing:
        detail.append("formula only: " + " ".join(map(str, missing)))
    print("MISMATCH: " + "; ".join(detail))
    return 2


def _cmd_multiplier(args) -> int:
    result = multiplier_divisor(_ideal(args.file), args.xi)
    print(" ".join(str(int(c)) for c in result.divisor.coords))
    return 0


def _cmd_fixture_gen(args) -> int:
    text = sample20.resolution_text()
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jumpnum",
        description="Jumping numbers of complete ideals from resolution data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler, with_file=True):
        p = sub.add_parser(name, help=help_text)
        if with_file:
            p.add_argument("file", help="resolution file")
        p.set_defaults(run=handler)
        return p

    add("validate", "check the structural rules of a resolution file", _cmd_validate)

    p = add("matrices", "print a derived matrix or vector", _cmd_matrices)
    p.add_argument(
        "--which",
        required=True,
        choices=("P", "Q", "V", "K"),
        help="P: proximity, Q: its inverse, V: valuation table, "
        "K: canonical divisor (E-coordinates, one line)",
    )

    p = add("semigroup", "branch gcds, Frobenius multiples and semigroup at a vertex",
            _cmd_semigroup)
    p.add_argument("--vertex", type=int, required=True)

    p = add("jumping", "jumping numbers by the closed formula", _cmd_jumping)
    p.add_argument("--bound", type=_fraction, default=Fraction(2))
    p.add_argument("--vertex", type=int, default=None,
                   help="restrict to numbers supported at this vertex")
    p.add_argument("--format", choices=("text", "tsv"), default="text")

    add("lct", "log-canonical threshold", _cmd_lct)

    p = add("oracle", "multiplier-ideal scan, compared against the closed formula", _cmd_oracle)
    p.add_argument("--bound", type=_fraction, default=Fraction(2))

    p = add("multiplier", "factorization vector of the multiplier ideal", _cmd_multiplier)
    p.add_argument("--xi", type=_fraction, required=True)

    p = add("fixture-gen", "regenerate the bundled 20-vertex example",
            _cmd_fixture_gen, with_file=False)
    p.add_argument("--out", default=None, help="write here instead of stdout")
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:  # any rejected input: parser, graph or library
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
