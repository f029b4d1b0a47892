"""Seeded end-to-end benchmark of the jumpnum CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

A run is a closed loop with one client.  It sends batches of queries, each
batch in a fresh worker process (``worker.py``), in whole rounds of the
workload's pool, until S seconds of query time at the baseline speed have
been measured; every query's stdout digest is checked against
``reference.json``.  Times are
scaled to the baseline machine's speed by the calibration quanta each
worker times between queries.  ``--trace 0``
reports the end-to-end metrics.  ``--trace 1`` runs the seed's batches over
one round of the whole pool, traced with spans around every module
(``tracing.py``), untraced, traced again, and so on; it reports the
per-layer metrics and the tracing overhead, and checks that the measured
counts repeat exactly between the traced passes.  A summary goes to
stdout; the last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads as wl
from worker import SETUP_QUANTA

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"
WORKER = HERE / "worker.py"

PROBES = 7           # import-only workers per run, for setup_s
REFERENCE_QUANTUM_S = 0.0035  # median worker.quantum() on the baseline machine
RUN_LIMIT_S = 150    # start no batch after this; a run must end within 180 s
BATCH_LIMIT_S = 60   # a batch still running after this is killed


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Bench:
    """One run's inputs: the pools, the reference digests, a scratch dir."""

    def __init__(self, workload: wl.Workload, seed: int, directory: Path):
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self.pools = wl.Pools(wl.load_library())
        with open(REFERENCE, encoding="utf-8") as handle:
            self.reference = json.load(handle)["workloads"][workload.name]
        self.started = time.monotonic()
        self.workers = 0

    def queries(self, number: int) -> list[wl.Query]:
        """Batch ``number`` of this seed, its inputs written to disk."""
        work = self.workload
        out = [self.pools.query(work, i, self.directory)
               for i in wl.batch_indices(work, self.seed, number)]
        if work.head:
            out.insert(0, self.pools.head(self.directory))
        for query in out:
            Path(query.path).write_text(query.text, encoding="utf-8")
        return out

    def expected(self, query: wl.Query):
        """Reference output digest, or None when the input itself changed."""
        ref = self.reference[query.key.split(":", 1)[1]]
        return ref["output"] if ref["input"] == sha256(query.text) else None

    def worker(self, queries, trace=False) -> dict:
        """Run one batch in a fresh process and collect what it reported."""
        self.workers += 1
        name = f"worker{self.workers}"
        spec = self.directory / f"{name}.spec"
        results = self.directory / f"{name}.jsonl"
        spec.write_text(json.dumps({
            "trace": trace,
            "queries": [{"key": q.key, "argv": list(q.argv), "digest": self.expected(q)}
                        for q in queries],
        }), encoding="utf-8")
        path = os.pathsep.join(filter(None, [str(wl.SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=path)
        limit = min(BATCH_LIMIT_S, RUN_LIMIT_S + 25 - (time.monotonic() - self.started))
        try:
            proc = subprocess.run([sys.executable, str(WORKER), str(spec), str(results)],
                                  env=env, capture_output=True, text=True, timeout=max(limit, 1))
            problem = proc.stderr.strip()[-2000:] if proc.returncode else None
        except subprocess.TimeoutExpired:
            problem = f"batch killed after {limit:.0f} s"
        lines = results.read_text(encoding="utf-8").splitlines() if results.exists() else []
        records = [json.loads(line) for line in lines]
        out = {"setup_s": None, "quanta_s": [], "queries": [], "final": None,
               "problem": problem}
        for record in records:
            if "setup_s" in record:
                out["setup_s"] = record["setup_s"]
                out["quanta_s"] += record["quanta_s"]
            elif "rss_kb" in record:
                out["final"] = record
            else:
                # The machine's speed changes within a fraction of a second,
                # so a query is scaled by the quanta just before and after it.
                before, after = out["quanta_s"][-1], record["quantum_s"]
                record["scaled_s"] = record["s"] * 2 * REFERENCE_QUANTUM_S / (before + after)
                out["queries"].append(record)
                out["quanta_s"].append(after)
        setup_quanta = out["quanta_s"][:SETUP_QUANTA]
        out["scale"] = (REFERENCE_QUANTUM_S / statistics.median(setup_quanta)
                        if setup_quanta else 1.0)
        for record, query in zip(out["queries"], queries):
            if self.expected(query) is None:
                record["error"] = "input differs from the reference"
        if out["final"] is None and problem is None:
            out["problem"] = "worker ended without a final record"
        if trace and out["final"] is not None:
            out["spans"] = tracing.load_spans(str(results) + ".spans")
        return out


def busy_s(batch: dict, field: str = "scaled_s") -> float:
    """Seconds the batch spent inside ``cli.main``, at the baseline speed
    or, with ``field="s"``, as measured."""
    return sum(r[field] for r in batch["queries"])


def rank(q: float, samples: int) -> int:
    """1-based nearest rank of quantile q among ``samples`` sorted values."""
    return max(1, math.ceil(q * samples))


def tail_quantile(samples: int) -> float:
    """0.9, or the highest quantile that keeps ten samples beyond it."""
    return min(0.9, max(0.5, (samples - 10) / samples)) if samples else 0.9


def tally(batches: list[dict], sizes: list[int]) -> tuple[int, int, list[str]]:
    """Attempted and failed query counts, and the problems seen."""
    attempted = sum(sizes)
    ok = sum(1 for b in batches for r in b["queries"] if r["error"] is None)
    problems = [b["problem"] for b in batches if b["problem"]]
    problems += [f"{r['key']}: {r['error']}" for b in batches for r in b["queries"] if r["error"]]
    return attempted, attempted - ok, problems


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    work = bench.workload
    probes = [bench.worker([]) for _ in range(PROBES + 1)][1:]  # first compiles .pyc
    rounds = work.pool // work.batch
    batches, sizes = [], []
    measured = 0.0
    # Whole rounds, so every run measures each pool entry equally often: the
    # pool's costs are heavy-tailed, and a part-round would make the figures
    # depend on which entries it drew.  Scaled time sets the round count, so
    # the machine's drift does not.
    while not batches or (time.monotonic() - bench.started < RUN_LIMIT_S
                          and (len(batches) % rounds or measured < seconds)):
        queries = bench.queries(len(batches))
        batch = bench.worker(queries)
        batches.append(batch)
        sizes.append(len(queries))
        measured += busy_s(batch) if batch["final"] else BATCH_LIMIT_S
    attempted, failed, problems = tally(probes + batches, sizes)
    latencies = sorted(r["scaled_s"] * 1e3
                       for b in batches for r in b["queries"] if r["error"] is None)
    setups = [b["setup_s"] * b["scale"] for b in probes + batches if b["setup_s"] is not None]
    quanta = [q for b in probes + batches for q in b["quanta_s"]]
    complete = [b["final"] for b in batches if b["final"]]
    tail = tail_quantile(len(latencies))
    busy = sum(map(busy_s, batches))
    metrics = {
        "queries_per_s": (attempted - failed) / busy if busy else 0.0,
        "query_p50_ms": latencies[rank(0.5, len(latencies)) - 1] if latencies else 0.0,
        "query_p90_ms": latencies[rank(tail, len(latencies)) - 1] if latencies else 0.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(f["rss_kb"] for f in complete) / 1024 if complete else 0.0,
    }
    caches = {name: statistics.median(f["caches"][name]["currsize"] for f in complete)
              for name in complete[0]["caches"]} if complete else {}
    lines = [
        f"workload {work.name}  seed {bench.seed}  trace 0  "
        f"({len(batches) / rounds:g} rounds of {rounds} batches of {sizes[0]} queries, "
        "each batch in a fresh process)",
        f"  queries_per_s  {metrics['queries_per_s']:10.3f} 1/s  "
        f"{attempted - failed} queries in {sum(busy_s(b, 's') for b in batches):.2f} s "
        "of query time as measured",
        f"  query_p50_ms   {metrics['query_p50_ms']:10.3f} ms   over {len(latencies)} samples",
        f"  query_p90_ms   {metrics['query_p90_ms']:10.3f} ms   p{tail * 100:g} over "
        f"{len(latencies)} samples, {len(latencies) - rank(tail, len(latencies))} beyond",
        f"  setup_s        {metrics['setup_s']:10.4f} s    median of {len(setups)} fresh imports",
        f"  peak_rss_mb    {metrics['peak_rss_mb']:10.2f} MB   median of {len(complete)} batches",
        f"  error_rate     {failed / attempted:10.4f}      {failed} of {attempted} queries failed",
        "  cache sizes at batch end (median): "
        + ", ".join(f"{k}={v:g}" for k, v in caches.items()),
        f"  calibration    median quantum {statistics.median(quanta) * 1e3:.3f} ms over "
        f"{len(quanta)}; times above are scaled to {REFERENCE_QUANTUM_S * 1e3:g} ms",
    ]
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines + [f"  FAILED {p}" for p in problems[:20]]


def input_counts(queries: list[wl.Query]) -> dict:
    """Candidate counts the bench derives from the inputs alone."""
    formula = oracle = 0
    for query in queries:
        formula += wl.formula_candidates(query.graph, query.factorization, query.bound)
        if query.argv[0] == "oracle":
            oracle += wl.oracle_candidates(query.graph, query.factorization, query.bound)
    wl.clear_library_caches()
    return {"formula_candidates": formula, "oracle_candidates": oracle}


def pass_layers(workers: list[dict], counts: dict) -> dict:
    """Per-layer metrics of one traced pass over the pool."""
    summary = tracing.combine(tracing.summarize(w["spans"]) for w in workers)
    caches = tracing.combine(w["final"]["caches"] for w in workers)
    output = sum(r["bytes"] for w in workers for r in w["queries"])
    return tracing.layer_metrics(summary, caches, {**counts, "output_bytes": output})


def traced(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    work = bench.workload
    # One round of the pool: the seed's batches until every entry is drawn.
    plan = [bench.queries(n) for n in range(work.pool // work.batch)]
    counts = input_counts([q for queries in plan for q in queries])
    passes = []
    measured = last_wall = 0.0
    # traced, untraced, traced, then more untraced/traced pairs while time
    # is left; alternating spreads any drift of the machine over both kinds.
    while len(passes) < 3 or len(passes) % 2 == 0 or (
            measured < seconds
            and time.monotonic() - bench.started + 2 * last_wall < RUN_LIMIT_S):
        trace = len(passes) % 2 == 0
        begun = time.monotonic()
        workers = [bench.worker(queries, trace=trace) for queries in plan]
        last_wall = time.monotonic() - begun
        passes.append({"trace": trace, "workers": workers})
        measured += sum(map(busy_s, workers))
    workers = [w for p in passes for w in p["workers"]]
    attempted, failed, problems = tally(workers, [len(q) for _ in passes for q in plan])
    complete = [p for p in passes if all(w["final"] for w in p["workers"])]
    layers = [pass_layers(p["workers"], counts) for p in complete if p["trace"]]
    for name in tracing.EXACT_COUNTS:
        seen = {layer[name] for layer in layers}
        if len(seen) > 1:
            problems.append(f"count {name} differs between traced passes: {sorted(seen)}")
    metrics = {name: statistics.median_low(layer[name] for layer in layers)
               for name in (layers[0] if layers else {})}
    scaled = {p["trace"]: [] for p in complete}
    for p in complete:
        scaled[p["trace"]].append(sum(map(busy_s, p["workers"])))
    if len(scaled) == 2:
        metrics["trace.overhead_pct"] = 100 * (
            statistics.median(scaled[True]) / statistics.median(scaled[False]) - 1)
    lines = [f"workload {work.name}  seed {bench.seed}  trace 1  "
             f"({len(plan)} batches, {sum(map(len, plan))} queries per pass: "
             f"{len(scaled.get(True, []))} traced and {len(scaled.get(False, []))} untraced "
             "passes; medians over traced passes; 0 marks a layer the workload does not reach)"]
    lines += [f"  {name:36s} {value:14.6g}" for name, value in metrics.items()]
    return {"correct": not problems and len(layers) >= 2, "attempted": attempted,
            "failed": failed, "metrics": metrics}, lines + [f"  FAILED {p}" for p in problems[:20]]


UNITS = {"queries_per_s": "1/s", "query_p50_ms": "ms", "query_p90_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MB"}
SUFFIX_UNITS = {"_s": "s", "_pct": "%", "_ratio": "ratio", "_bytes": "bytes"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return next((u for suffix, u in SUFFIX_UNITS.items() if name.endswith(suffix)), "count")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    try:
        bench = Bench(wl.WORKLOADS[name], seed, directory)
        result, lines = (traced if trace else end_to_end)(bench, seconds)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    result["metrics"] = {k: {"value": v, "unit": unit(k)} for k, v in result["metrics"].items()}
    print("\n".join(lines), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        wl.load_library()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
