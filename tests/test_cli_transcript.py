"""Recorded CLI transcript: exit code and sha256 of stdout and stderr for a
fixed list of command lines on the bundled fixtures.

A change that must leave CLI bytes alone keeps this test passing unchanged.
To re-record after an intended output change, run from the repository root:

    PYTHONPATH=src:tests python tests/test_cli_transcript.py
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from jumpnum import adjacency, parse_resolution
from jumpnum.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPT = Path(__file__).resolve().parent / "cli_transcript.json"
FIXTURES = ("cusp", "maximal", "sample20")


def commands() -> list[list[str]]:
    lines = []
    for name in FIXTURES:
        path = f"fixtures/{name}.res"
        graph, _ = parse_resolution((ROOT / path).read_text())
        lines.append(["validate", path])
        lines += [["matrices", path, "--which", which] for which in "PQVK"]
        lines += [["semigroup", path, "--vertex", str(mu)] for mu in range(1, graph.n + 2)]
        lines += [
            ["jumping", path],
            ["jumping", path, "--format", "tsv"],
            ["jumping", path, "--bound", "7/2"],
        ]
        lines += [["jumping", path, "--vertex", str(mu)] for mu in adjacency(graph).stars]
        lines += [
            ["lct", path],
            ["oracle", path, "--bound", "1"],
            ["oracle", path, "--bound", "2"],
            ["multiplier", path, "--xi", "7/3"],
        ]
    lines.append(["fixture-gen"])
    return lines


def transcribe(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)  # the paths above, and any message quoting them, are relative
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return {
        "argv": " ".join(argv),
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def test_transcript_covers_the_command_list():
    recorded = json.loads(TRANSCRIPT.read_text())
    assert [entry["argv"] for entry in recorded] == [" ".join(argv) for argv in commands()]


def test_cli_output_matches_the_transcript():
    recorded = json.loads(TRANSCRIPT.read_text())
    mismatched = [entry["argv"] for entry in recorded
                  if transcribe(entry["argv"].split()) != entry]
    assert mismatched == []


if __name__ == "__main__":
    entries = [transcribe(argv) for argv in commands()]
    TRANSCRIPT.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"recorded {len(entries)} command lines to {TRANSCRIPT}")
