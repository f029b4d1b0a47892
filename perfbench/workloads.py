"""Seeded query pools for the benchmark workloads.

Each workload owns a pool of queries.  Entry ``i`` of a pool is drawn from
``random.Random(f"{workload}:{i}")`` with the random blowup generator that
the test suite uses, and is handed to the program only as a ``.res`` file
written by ``serialize_resolution``.  The pool is fixed, so every entry has
a reference digest recorded in ``reference.json``; the workload seed picks
the entries of each batch and their order (see ``batch_indices``).

A run sends the queries in batches.  Each batch runs in a fresh process, so
the library's module-level caches start empty the way they do for a CLI
user, and queries that share a graph inside a batch hit those caches the
way a library session would.
"""

from __future__ import annotations

import importlib.util
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFTEST = ROOT / "tests" / "conftest.py"
SAMPLE20 = ROOT / "fixtures" / "sample20.res"

# scan-deep keeps an ideal only when its admissible-candidate count
# sum(floor(B * d_mu)) over the support vertices lies in this window: below
# it the query is not scan-bound, above it one query sets the whole run.
DEEP_WINDOW = (3000, 15000)
DEEP_FACTOR_DRAWS = 20


@dataclass(frozen=True)
class Query:
    """One CLI call: ``argv`` names ``path``, which holds ``text``."""

    key: str
    path: str
    text: str
    argv: tuple[str, ...]
    graph: object
    factorization: tuple[int, ...]
    bound: int


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    bound: int
    pool: int   # entries with a recorded reference digest; a multiple of batch
    batch: int  # pool entries per fresh process, one from each stratum
    head: bool = False  # each batch starts with the sample20 oracle query


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan-deep", "jumping", bound=1, pool=80, batch=20),
        Workload("oracle-check", "oracle", bound=2, pool=144, batch=48, head=True),
    )
}


def load_library():
    """Put the checkout's ``src`` on the path and return the test-suite
    module that holds ``random_blowup_graph``."""
    if not (SRC / "jumpnum" / "cli.py").is_file() or not CONFTEST.is_file():
        raise FileNotFoundError(
            f"jumpnum sources not found under {ROOT}: run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    spec = importlib.util.spec_from_file_location("perfbench_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _simple_factors(rng: random.Random, n: int, count: int) -> tuple[int, ...]:
    # randint(1, 1) still consumes a draw from rng; dropping it would change
    # every later draw, and with it the pool reference.json was recorded from.
    factorization = [0] * n
    for v in rng.sample(range(n), count):
        factorization[v] = rng.randint(1, 1)
    return tuple(factorization)


def formula_candidates(graph, factorization, bound) -> int:
    """sum(floor(B * d_mu)) over the support vertices: the length of the
    closed-formula scan, known before it runs."""
    from jumpnum import IdealSpec, support_vertices

    ideal = IdealSpec(graph, factorization)
    d = ideal.valuations
    return sum(math.floor(bound * d[mu - 1]) for mu in support_vertices(ideal))


def oracle_candidates(graph, factorization, bound) -> int:
    """Distinct t/d with d a valuation and 0 < t/d <= B: the oracle's scan."""
    from jumpnum import IdealSpec

    d = IdealSpec(graph, factorization).valuations
    return len({Fraction(t, v) for v in set(d) for t in range(1, math.floor(bound * v) + 1)})


def clear_library_caches() -> None:
    from jumpnum import graph, lattice

    for cached in (graph.adjacency, graph.inverse_proximity, lattice.valuation_table):
        cached.cache_clear()


class Pools:
    """Generates pool entries on demand; needs ``load_library`` first."""

    def __init__(self, conftest):
        self._blowup = conftest.random_blowup_graph
        self._drawn = {}

    def ideal(self, workload: Workload, i: int):
        """Graph and factorization of pool entry ``i``."""
        key = (workload.name, i)
        if key not in self._drawn:
            self._drawn[key] = self._draw(workload, i)
        return self._drawn[key]

    def _draw(self, workload: Workload, i: int):
        rng = random.Random(f"{workload.name}:{i}")
        if workload.name == "scan-deep":
            return self._deep(rng, workload.bound)
        # n sets an oracle query's cost, so the entry's stratum fixes it and
        # every batch has the same spread of costs whatever the seed.
        n = 3 + i % workload.batch % 8
        graph = self._blowup(rng, n)
        factorization = [rng.randint(0, 1) for _ in range(n)]
        if not any(factorization):
            factorization[rng.randrange(n)] = 1
        return graph, tuple(factorization)

    def _deep(self, rng: random.Random, bound: int):
        # Draw a graph, then up to DEEP_FACTOR_DRAWS factor choices on it,
        # until the candidate count lands in DEEP_WINDOW.  Redrawing the
        # factors first keeps the graph's derived data cached.
        low, high = DEEP_WINDOW
        while True:
            n = rng.randint(30, 60)
            graph = self._blowup(rng, n, 0.6)
            try:
                for _ in range(DEEP_FACTOR_DRAWS):
                    factorization = _simple_factors(rng, n, rng.randint(1, 2))
                    if low <= formula_candidates(graph, factorization, bound) <= high:
                        return graph, factorization
            finally:
                clear_library_caches()

    def query(self, workload: Workload, i: int, directory: Path) -> Query:
        from jumpnum import serialize_resolution

        graph, factorization = self.ideal(workload, i)
        path = directory / f"{workload.name}-{i:04d}.res"
        argv = [workload.command, str(path), "--bound", str(workload.bound)]
        if workload.command == "jumping":
            argv += ["--format", "tsv"]
        return Query(
            f"{workload.name}:{i}", str(path), serialize_resolution(graph, factorization),
            tuple(argv), graph, factorization, workload.bound,
        )

    def head(self, directory: Path) -> Query:
        """The fixed sample20 oracle query that opens every oracle-check batch."""
        from jumpnum import parse_resolution

        text = SAMPLE20.read_text()
        graph, factorization = parse_resolution(text)
        path = directory / "oracle-check-sample20.res"
        return Query("oracle-check:sample20", str(path), text,
                     ("oracle", str(path), "--bound", "1"), graph, factorization, 1)


def batch_indices(workload: Workload, seed: int, number: int) -> list[int]:
    """Pool indices of batch ``number`` of a run with this seed.

    Entry i lies in stratum i % batch.  A batch takes one entry from every
    stratum; the seed orders each stratum's entries, which successive
    batches walk through (wrapping around), and orders the batch's queries.
    """
    rng = random.Random(seed)
    rounds = workload.pool // workload.batch
    picks = []
    for stratum in range(workload.batch):
        visit = list(range(rounds))
        rng.shuffle(visit)
        picks.append(stratum + workload.batch * visit[number % rounds])
    random.Random(f"{seed}:{number}").shuffle(picks)
    return picks
