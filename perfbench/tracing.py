"""Spans around the calls into each module of ``jumpnum``, from outside it.

``Tracer.install`` replaces each public function listed in ``TRACED`` by a
timing wrapper, in its defining module and in every module that imported it
by name (``jumping.membership``, ``lattice.intersection_form``, ...), so
calls are caught wherever the program makes them.  A span is
``(name, start_ns, end_ns, parent, query, value)``: ``parent`` indexes the
enclosing span (-1 for none), ``query`` numbers the query inside the batch
and ``value`` is what the site's ``note`` made of the result (a membership
verdict, the length of a returned set).  Spans stay in memory until
``dump``.  Self time is a span's duration minus the durations of its
children; calls nest strictly, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# defining module -> public names traced, with how to note each result
TRACED = {
    "cli": {"main": None},
    "resfile": {"parse_resolution": None},
    "graph": {"validate": None, "adjacency": None, "intersection_form": None, "branch": None},
    "lattice": {"valuation_table": None, "antinef_closure": None, "to_basis": None,
                "canonical": None},
    "semigroups": {"vertex_semigroup": None, "branch_gcd": None, "membership": bool},
    "jumping": {"jumping_numbers": len},
    "ideals": {"IdealSpec": None, "JumpingSet": None},
    "oracle": {"oracle_jumping_numbers": len},
}
MODULES = ("jumpnum", "jumpnum.cli", "jumpnum.resfile", "jumpnum.graph", "jumpnum.lattice",
           "jumpnum.semigroups", "jumpnum.jumping", "jumpnum.ideals", "jumpnum.oracle",
           "jumpnum.sample20")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.query = 0
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = int(note(result)) if note is not None and result is not None else None
                spans[index] = (name, start, end, parent, self.query, value)

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for short, names in TRACED.items():
            home = importlib.import_module(f"jumpnum.{short}")
            for attr, note in names.items():
                original = getattr(home, attr)
                wrapper = self.wrap(f"{short}.{attr}", original, note)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        names: dict[str, int] = {}
        rows = [
            [names.setdefault(name, len(names)), start, end, parent, query, value]
            for name, start, end, parent, query, value in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": list(names), "spans": rows}, handle)


def load_spans(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    names = data["names"]
    return [(names[row[0]], *row[1:]) for row in data["spans"]]


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds and the sum of
    noted values."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _query, _value in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0})
    for index, (name, start, end, _parent, _query, value) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += (end - start) / 1e9
        entry["self_s"] += (end - start - child_ns[index]) / 1e9
        entry["value"] += value or 0
    return dict(out)


def combine(parts) -> dict:
    """Field-wise sums of dicts of dicts of numbers: ``summarize`` results,
    or ``cache_info`` records, of the workers of one pass."""
    out: dict = {}
    for part in parts:
        for name, entry in part.items():
            total = out.setdefault(name, dict.fromkeys(entry, 0))
            for field, value in entry.items():
                total[field] += value
    return out


def _ratio(numerator, denominator) -> float:
    # 0 when nothing was counted: the workload does not reach the layer.
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict, caches: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced pass.

    ``summary`` comes from ``summarize``; ``caches`` holds the final
    ``cache_info`` of the pass's workers, summed; ``counts`` holds what the
    bench computed from the inputs (``formula_candidates``,
    ``oracle_candidates``) and from the pass's captured output
    (``output_bytes``).  Every metric of a layer the workload does not reach
    is 0, its ratios included.
    """
    def span(name, field="total_s"):
        return summary.get(name, {}).get(field, 0)

    def hit_ratio(cache):
        info = caches[cache]
        return _ratio(info["hits"], info["hits"] + info["misses"])

    closures = span("lattice.antinef_closure", "calls")
    return {
        "resfile.parse_s": span("resfile.parse_resolution"),
        "resfile.parse_calls": span("resfile.parse_resolution", "calls"),
        "graph.validate_s": span("graph.validate"),
        "graph.adjacency_s": span("graph.adjacency"),
        "graph.adjacency_hit_ratio": hit_ratio("adjacency"),
        "graph.intersection_form_s": span("graph.intersection_form"),
        "graph.intersection_form_calls": span("graph.intersection_form", "calls"),
        "graph.branch_s": span("graph.branch"),
        "graph.branch_calls": span("graph.branch", "calls"),
        "lattice.valuation_table_s": span("lattice.valuation_table"),
        "lattice.valuation_table_hit_ratio": hit_ratio("valuation_table"),
        "lattice.antinef_closure_s": span("lattice.antinef_closure"),
        "lattice.antinef_closure_calls": closures,
        "lattice.to_basis_s": span("lattice.to_basis"),
        "lattice.canonical_s": span("lattice.canonical"),
        "semigroups.vertex_semigroup_s": span("semigroups.vertex_semigroup"),
        "semigroups.branch_gcd_s": span("semigroups.branch_gcd"),
        "semigroups.membership_s": span("semigroups.membership"),
        "semigroups.membership_calls": span("semigroups.membership", "calls"),
        "semigroups.member_ratio": _ratio(
            span("semigroups.membership", "value"), span("semigroups.membership", "calls")),
        "jumping.scan_self_s": span("jumping.jumping_numbers", "self_s"),
        "jumping.candidates": counts["formula_candidates"],
        "jumping.found": span("jumping.jumping_numbers", "value"),
        "jumping.yield_ratio": _ratio(
            span("jumping.jumping_numbers", "value"), counts["formula_candidates"]),
        "ideals.jumpingset_s": span("ideals.JumpingSet"),
        "ideals.idealspec_s": span("ideals.IdealSpec"),
        "oracle.scan_self_s": span("oracle.oracle_jumping_numbers", "self_s"),
        "oracle.candidates": counts["oracle_candidates"],
        "oracle.closure_cache_hit_ratio": (
            1 - _ratio(closures, 2 * counts["oracle_candidates"])
            if counts["oracle_candidates"] else 0.0),
        "oracle.jumps": span("oracle.oracle_jumping_numbers", "value"),
        "cli.self_s": span("cli.main", "self_s"),
        "cli.output_bytes": counts["output_bytes"],
        "cache.adjacency_size": caches["adjacency"]["currsize"],
        "cache.inverse_proximity_size": caches["inverse_proximity"]["currsize"],
        "cache.valuation_table_size": caches["valuation_table"]["currsize"],
    }


# Counts measured in each traced pass; they must repeat exactly between the
# traced passes of a run, and between runs of one seed.
EXACT_COUNTS = (
    "semigroups.membership_calls",
    "lattice.antinef_closure_calls",
    "graph.intersection_form_calls",
    "resfile.parse_calls",
    "graph.branch_calls",
    "jumping.found",
    "oracle.jumps",
    "cli.output_bytes",
)

# Counts the bench derives from the inputs alone: the same in every pass of
# a run by construction, so they are compared only between runs of one seed.
INPUT_COUNTS = ("jumping.candidates", "oracle.candidates")
