"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

CONFTEST = wl.load_library()


def batch_texts(name, seed, directory):
    pools = wl.Pools(CONFTEST)
    work = wl.WORKLOADS[name]
    return [pools.query(work, i, directory).text for i in wl.batch_indices(work, seed, 0)[:4]]


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first = batch_texts(name, 7, tmp_path)
    assert first == batch_texts(name, 7, tmp_path)
    assert wl.batch_indices(wl.WORKLOADS[name], 7, 0) != wl.batch_indices(wl.WORKLOADS[name], 8, 0)
    reference = json.loads(run.REFERENCE.read_text())["workloads"][name]
    pool = {entry["input"] for entry in reference.values()}
    assert all(run.sha256(text) in pool for text in first)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_same_seed_gives_identical_digests(name, tmp_path):
    import jumpnum.cli

    pools = wl.Pools(CONFTEST)
    work = wl.WORKLOADS[name]
    reference = json.loads(run.REFERENCE.read_text())["workloads"][name]
    for i in wl.batch_indices(work, 7, 0)[:2]:
        query = pools.query(work, i, tmp_path)
        Path(query.path).write_text(query.text)
        digests = {worker.run_query(jumpnum.cli.main, query.argv)["digest"] for _ in range(2)}
        assert digests == {reference[str(i)]["output"]}


def test_deep_inputs_respect_the_candidate_window():
    pools = wl.Pools(CONFTEST)
    work = wl.WORKLOADS["scan-deep"]
    graph, factorization = pools.ideal(work, 0)
    low, high = wl.DEEP_WINDOW
    assert low <= wl.formula_candidates(graph, factorization, work.bound) <= high
    wl.clear_library_caches()


def test_self_time_on_a_synthetic_span_tree():
    #   a [0, 100]
    #   +- b [10, 40]
    #   |  +- c [15, 25]
    #   +- d [50, 90]
    # and a second root a [200, 210] with no children
    spans = [
        ("a", 0, 100, -1, 0, None),
        ("b", 10, 40, 0, 0, 3),
        ("c", 15, 25, 1, 0, 1),
        ("d", 50, 90, 0, 0, None),
        ("a", 200, 210, -1, 1, None),
    ]
    summary = tracing.summarize(spans)
    ns = 1e-9
    assert summary["a"]["calls"] == 2
    assert summary["a"]["total_s"] == pytest.approx(110 * ns)
    assert summary["a"]["self_s"] == pytest.approx((100 - 30 - 40 + 10) * ns)
    assert summary["b"]["self_s"] == pytest.approx(20 * ns)
    assert summary["c"]["self_s"] == pytest.approx(10 * ns)
    assert summary["d"]["self_s"] == pytest.approx(40 * ns)
    assert summary["b"]["value"] == 3
    # a pass sums the summaries of its workers, field by field
    twice = tracing.combine([summary, tracing.summarize(spans[:2])])
    assert twice["a"]["calls"] == 3 and twice["b"]["value"] == 6
    assert twice["b"]["self_s"] == pytest.approx(20 * ns + 30 * ns)
    assert twice["d"] == summary["d"]


def test_tracer_records_nested_calls_and_uninstalls():
    import jumpnum.cli
    from jumpnum import jumping, semigroups

    original = jumping.membership
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert jumping.membership is not original
        assert semigroups.membership is not original
        result = worker.run_query(jumpnum.cli.main, ["jumping", str(wl.SAMPLE20), "--bound", "1"])
    finally:
        tracer.uninstall()
    assert jumping.membership is original and semigroups.membership is original
    assert result["error"] is None
    summary = tracing.summarize(tracer.spans)
    assert summary["cli.main"]["calls"] == 1
    assert summary["jumping.jumping_numbers"]["value"] == 536  # sample20 up to 1
    names = {span[0] for span in tracer.spans}
    assert {"resfile.parse_resolution", "semigroups.membership", "ideals.JumpingSet"} <= names
    root = next(i for i, span in enumerate(tracer.spans) if span[0] == "cli.main")
    assert all(span[3] >= root for span in tracer.spans if span[0] != "cli.main")


def test_each_query_is_scaled_by_the_quanta_around_it(tmp_path, monkeypatch):
    q = run.REFERENCE_QUANTUM_S
    records = [
        {"setup_s": 0.05, "quanta_s": [2 * q] * run.SETUP_QUANTA},
        {"key": "w:0", "s": 0.1, "quantum_s": 2 * q, "error": None},
        {"key": "w:1", "s": 0.1, "quantum_s": 4 * q, "error": None},
        {"rss_kb": 1, "caches": {}},
    ]

    def fake_worker(argv, **kwargs):
        Path(argv[3]).write_text("".join(json.dumps(r) + "\n" for r in records))
        return run.subprocess.CompletedProcess(argv, 0, "", "")

    monkeypatch.setattr(run.subprocess, "run", fake_worker)
    batch = run.Bench(wl.WORKLOADS["scan-deep"], 1, tmp_path).worker([])
    assert batch["scale"] == pytest.approx(0.5)  # setup_s is scaled by the setup quanta
    first, second = batch["queries"]
    assert first["scaled_s"] == pytest.approx(0.1 * 2 * q / (2 * q + 2 * q))
    assert second["scaled_s"] == pytest.approx(0.1 * 2 * q / (2 * q + 4 * q))
    assert run.busy_s(batch, "s") == pytest.approx(0.2)


def run_fake_batch(main, digest):
    records = []
    worker.run_batch([{"key": "w:0", "argv": [], "digest": digest}], main, records.append)
    return {"queries": records, "final": {"rss_kb": 1}, "problem": None}


def good_main(argv):
    print("1/2")
    return 0


def test_injected_digest_mismatch_raises_error_rate():
    right = hashlib.sha256(b"1/2\n").hexdigest()
    ok = run_fake_batch(good_main, right)
    assert run.tally([ok], [1])[:2] == (1, 0)
    wrong = run_fake_batch(good_main, "0" * 64)
    attempted, failed, problems = run.tally([ok, wrong], [1, 1])
    assert (attempted, failed) == (2, 1)
    assert "digest" in problems[0]


def test_injected_exception_raises_error_rate():
    def broken_main(argv):
        raise ZeroDivisionError("injected")

    batch = run_fake_batch(broken_main, hashlib.sha256(b"").hexdigest())
    attempted, failed, problems = run.tally([batch], [1])
    assert (attempted, failed) == (1, 1)
    assert "ZeroDivisionError" in problems[0]


def test_nonzero_exit_fails_the_query():
    batch = run_fake_batch(lambda argv: 2, hashlib.sha256(b"").hexdigest())
    assert run.tally([batch], [1])[1] == 1


def test_killed_batch_counts_its_missing_queries_as_failed():
    assert run.tally([{"queries": [], "final": None, "problem": "killed"}], [5])[:2] == (5, 5)


def test_benchmark_json_lists_the_metrics_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.UNITS)
    counts = {"formula_candidates": 1, "oracle_candidates": 1, "output_bytes": 1}
    caches = {name: {"hits": 0, "misses": 0, "currsize": 0} for name in
              ("adjacency", "inverse_proximity", "valuation_table")}
    reported = set(tracing.layer_metrics({}, caches, counts)) | {"trace.overhead_pct"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit(metric["name"])
