"""Record the reference digests that every benchmark run checks against.

    python3 perfbench/record.py

For every pool entry of every workload this writes the sha256 of the input
file and of the CLI's stdout to ``reference.json``, together with the
commit and Python version they were recorded with.  Before it records
anything it cross-checks a seeded sample of scan-deep inputs: the
multiplier-ideal oracle must find the same jumping numbers as the closed
formula at the workload bound.  (Every oracle-check query makes the same
comparison itself.)  Run it only on a commit whose output
is trusted; a run of the benchmark treats any other output as a failure.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl
from run import REFERENCE, WORK, sha256
from worker import run_query

CROSSCHECK = {"scan-deep": 5}


def crosscheck(pools: wl.Pools) -> dict:
    from jumpnum import IdealSpec, jumping_numbers, oracle_jumping_numbers

    rng = random.Random("perfbench:crosscheck")
    out = {}
    for name, count in CROSSCHECK.items():
        work = wl.WORKLOADS[name]
        indices = sorted(rng.sample(range(work.pool), count))
        for i in indices:
            start = time.perf_counter()
            ideal = IdealSpec(*pools.ideal(work, i))
            oracle = oracle_jumping_numbers(ideal, work.bound).values()
            formula = jumping_numbers(ideal, work.bound).values()
            wl.clear_library_caches()
            if oracle != formula:
                raise SystemExit(f"{name}:{i}: the oracle and the formula disagree")
            print(f"crosscheck {name}:{i} agree on {len(formula)} values "
                  f"({time.perf_counter() - start:.1f} s)", file=sys.stderr, flush=True)
        out[name] = {"indices": indices, "bound": work.bound, "agree": True}
    return out


def record(pools: wl.Pools, directory: Path) -> dict:
    import jumpnum.cli

    out = {}
    for work in wl.WORKLOADS.values():
        queries = [pools.query(work, i, directory) for i in range(work.pool)]
        if work.head:
            queries.append(pools.head(directory))
        entries = {}
        for query in queries:
            Path(query.path).write_text(query.text, encoding="utf-8")
            result = run_query(jumpnum.cli.main, query.argv)
            wl.clear_library_caches()
            if result["error"]:
                raise SystemExit(f"{query.key}: {result['error']}")
            entries[query.key.split(":", 1)[1]] = {
                "input": sha256(query.text), "output": result["digest"]}
        out[work.name] = entries
        print(f"recorded {work.name}: {len(entries)} queries", file=sys.stderr, flush=True)
    return out


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    pools = wl.Pools(wl.load_library())
    checked = crosscheck(pools)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as directory:
        entries = record(pools, Path(directory))
    data = {
        "recorded_with": {"commit": commit(), "python": platform.python_version()},
        "crosscheck": checked,
        "workloads": entries,
    }
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
