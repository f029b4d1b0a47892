"""Record one point of the benchmark trajectory as BENCH_<label>.json.

    python3 perfbench/trajectory.py --label baseline --seeds 1-10

Every run lasts ``run_seconds`` from BENCHMARK.json, so all points of the
trajectory use the same setting.  For every workload this runs the
benchmark untraced once per seed, then
traced twice on the first seed, each run a separate process exactly as
``run.py`` is run by hand.  It stores every result line, and per metric the
median, the quartiles and their spread (interquartile distance over the
median).  It also stores whether the exact counts, and the counts derived
from the inputs, agreed between the two traced runs.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads as wl
from record import commit

HERE = Path(__file__).resolve().parent


def run(name: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=wl.ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    print(f"{name} seed {seed} trace {trace}: correct={result['correct']}", file=sys.stderr,
          flush=True)
    return result


def describe(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}
    return out


def seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    seconds = json.loads((wl.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    point = {"label": args.label, "commit": commit(), "python": platform.python_version(),
             "seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for name in wl.WORKLOADS:
        untraced = [run(name, seed, seconds, 0) for seed in args.seeds]
        traced = [run(name, args.seeds[0], seconds, 1) for _ in range(2)]
        repeat = {count: traced[0]["metrics"][count]["value"] == traced[1]["metrics"][count]["value"]
                  for count in tracing.EXACT_COUNTS + tracing.INPUT_COUNTS}
        point["workloads"][name] = {
            "untraced": {"summary": describe(untraced), "runs": untraced},
            "traced": {"counts_repeat": repeat, "runs": traced},
        }
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
