"""The README's examples, run as written, so that they cannot go stale."""

import contextlib
import io
import re
import shlex

from jumpnum.cli import main

from conftest import FIXTURES

README = (FIXTURES.parent / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def _cli_examples():
    """(argv, expected stdout) for each ``$ jumpnum ...`` line and the
    lines after it, up to the next prompt or the end of its block."""
    examples = []
    for block in _blocks("sh"):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.startswith("$ jumpnum "):
                command, _, output = chunk.partition("\n")
                examples.append((shlex.split(command)[2:], output))
    return examples


def test_readme_cli_examples_print_what_they_show(monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES.parent)
    examples = _cli_examples()
    assert len(examples) == 2
    for argv, expected in examples:
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


def test_readme_library_snippet_runs():
    (snippet,) = _blocks("python")
    shown = re.findall(r"^print\(.*\)\s+# (.*)$", snippet, re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {})
    lines = out.getvalue().splitlines()
    assert shown and lines[: len(shown)] == shown
