"""Run one batch of CLI queries in a fresh interpreter.

    python3 worker.py SPEC.json RESULTS.jsonl

The first thing the process does is time ``import jumpnum.cli``: the set-up
every CLI invocation pays.  It then checks that the library's caches are
empty, runs each query of SPEC through ``jumpnum.cli.main`` in-process with
stdout captured and hashed, and appends one JSON line per query to RESULTS
as it goes, so a batch that is killed still reports what it finished.

Right after the import, and right after every query, the worker times one
``quantum``: a fixed piece of pure-Python work that does not touch
``jumpnum``.  The parent scales each query's time by the quanta just before
and after it, and the import time by the median of the quanta after it,
which removes most of the shared machine's drift in speed (see README.md,
"Noise and calibration").  With
``"trace": true`` in SPEC the calls into each module are recorded as spans
(see ``tracing.py``) and written to RESULTS + ``.spans`` at the end.
"""

from __future__ import annotations

# Only sys and time are loaded before the timed import, so setup_s sees what
# a cold ``jumpnum`` command sees; everything else is imported after it.
import sys
import time

SETUP_QUANTA = 5  # timed right after the import, to scale setup_s


def run_query(main, argv) -> dict:
    """Call ``main(argv)`` with stdout and stderr captured; never raises."""
    import contextlib
    import hashlib
    import io

    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a query that raises is a failed query
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    data = out.getvalue().encode()
    if error is None and code != 0:
        error = f"exit {code}: {err.getvalue().strip()[-300:]}"
    return {
        "s": seconds,
        "digest": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "error": error,
    }


def quantum() -> float:
    """Seconds taken by a fixed mix of Fraction, dict, big-int and sort work,
    about 3.5 ms on the baseline machine.  The collector is off while it runs,
    so the heap a query left behind does not change its cost."""
    import gc
    from fractions import Fraction

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        seen, bits, mask = {}, 0, (1 << 600) - 1
        for i in range(1, 400):
            value = Fraction(i * 7919 % 1000 + 1, i)
            seen[value] = seen.get(value, 0) + 1
            bits |= 1 << (i * 37 % 300)
            bits = (bits << 3 | bits) & mask
        sorted(seen)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def run_batch(queries, main, emit, tracer=None) -> None:
    """Run each query and emit its record, with a quantum timed after it."""
    for number, query in enumerate(queries):
        if tracer is not None:
            tracer.query = number
        record = run_query(main, query["argv"])
        record["quantum_s"] = quantum()
        record["key"] = query["key"]
        if record["error"] is None and record["digest"] != query["digest"]:
            record["error"] = "stdout digest differs from the reference"
        emit(record)


def cache_info() -> dict:
    """Final ``cache_info`` of the library caches that grow per graph."""
    from jumpnum import graph, lattice

    caches = {
        "adjacency": graph.adjacency,
        "inverse_proximity": graph.inverse_proximity,
        "valuation_table": lattice.valuation_table,
    }
    fields = ("hits", "misses", "currsize")
    return {name: {field: getattr(cached.cache_info(), field) for field in fields}
            for name, cached in caches.items()}


def main() -> int:
    start = time.perf_counter()
    import jumpnum.cli

    setup = time.perf_counter() - start
    import json
    import resource

    spec_path, results_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    warm = [name for name, info in cache_info().items() if info["currsize"]]
    if warm:
        raise RuntimeError(f"caches not empty before the first query: {', '.join(warm)}")
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    with open(results_path, "w", encoding="utf-8") as out:
        def emit(record):
            out.write(json.dumps(record) + "\n")
            out.flush()

        emit({"setup_s": setup, "quanta_s": [quantum() for _ in range(SETUP_QUANTA)]})
        run_batch(spec["queries"], jumpnum.cli.main, emit, tracer)
        if tracer is not None:
            tracer.uninstall()
        emit({
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "caches": cache_info(),
        })
    if tracer is not None:
        tracer.dump(results_path + ".spans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
