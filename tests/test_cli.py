import argparse
import contextlib
import io
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from jumpnum import ParseError, parse_resolution
from jumpnum.cli import main

from conftest import FIXTURES

ROOT = FIXTURES.parent
CUSP = str(FIXTURES / "cusp.res")
MAXIMAL = str(FIXTURES / "maximal.res")
SAMPLE20 = str(FIXTURES / "sample20.res")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CUSP_JUMPS = ["5/6", "7/6", "4/3", "3/2", "5/3", "11/6", "2"]
USAGE_ERRORS = [
    [],
    ["bogus"],
    ["matrices", CUSP, "--which", "X"],
    ["multiplier", CUSP],
    ["jumping", CUSP, "--bound", "1/0"],
]


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", CUSP)
    assert (code, out) == (0, "OK\n")


def test_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.res"
    bad.write_text("N 4\nP 2 1\nP 3 1\nP 4 2 3\nD 1 0 0 0\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert out.splitlines() == ["intersection form entry 1 between vertices 2 and 3, expected 0 or -1"]


def test_parse_error_goes_to_stderr(tmp_path, capsys):
    bad = tmp_path / "bad.res"
    bad.write_text("N 2\nP 2 3\nD 1 1\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert out == ""
    assert "forward reference at line 2" in err


def test_missing_file(capsys):
    code, out, err = run(capsys, "lct", "no-such-file.res")
    assert code == 1
    assert "cannot read" in err


def test_matrices_p(capsys):
    code, out, _ = run(capsys, "matrices", CUSP, "--which", "P")
    assert code == 0
    assert out == "1 0 0\n-1 1 0\n-1 -1 1\n"


def test_matrices_q(capsys):
    _, out, _ = run(capsys, "matrices", CUSP, "--which", "Q")
    assert out == "1 0 0\n1 1 0\n2 1 1\n"


def test_matrices_v(capsys):
    _, out, _ = run(capsys, "matrices", CUSP, "--which", "V")
    assert out == "1 1 2\n1 2 3\n2 3 6\n"


def test_matrices_k(capsys):
    _, out, _ = run(capsys, "matrices", CUSP, "--which", "K")
    assert out == "1 2 4\n"


def test_semigroup_output(capsys):
    code, out, _ = run(capsys, "semigroup", CUSP, "--vertex", "3")
    assert code == 0
    assert out == (
        "s 3 1 2\n"
        "s 3 2 3\n"
        "M_frobenius 1 -2\n"
        "M_frobenius 2 -3\n"
        "S generators: 2 3 6\n"
    )


def test_lct_outputs(capsys):
    assert run(capsys, "lct", MAXIMAL)[1] == "2\n"
    assert run(capsys, "lct", CUSP)[1] == "5/6\n"
    assert run(capsys, "lct", SAMPLE20)[1] == "5/78\n"


def test_jumping_text_default_bound(capsys):
    code, out, _ = run(capsys, "jumping", CUSP)
    assert code == 0
    assert out.splitlines() == CUSP_JUMPS


def test_jumping_fractions_are_reduced(capsys):
    _, out, _ = run(capsys, "jumping", SAMPLE20, "--vertex", "20", "--bound", "1")
    lines = out.splitlines()
    assert len(lines) == 23
    assert lines[0] == "6/17"
    assert lines[-1] == "1"
    assert all("/1" not in line.partition("/")[2] for line in lines)


def test_jumping_tsv_support(capsys):
    _, out, _ = run(capsys, "jumping", CUSP, "--bound", "1", "--format", "tsv")
    assert out == "5/6\t3\n"


def test_jumping_tsv_multi_support(capsys):
    _, out, _ = run(capsys, "jumping", SAMPLE20, "--bound", "1/2", "--format", "tsv")
    lines = out.splitlines()
    assert lines[0] == "5/78\t3"
    for line in lines:
        xi, _, support = line.partition("\t")
        assert Fraction(xi) <= Fraction(1, 2)
        vertices = [int(v) for v in support.split(",")]
        assert vertices == sorted(vertices)


def test_jumping_prefix_property(capsys):
    _, small, _ = run(capsys, "jumping", CUSP, "--bound", "1")
    _, large, _ = run(capsys, "jumping", CUSP, "--bound", "3")
    assert large.startswith(small)


def test_jumping_deterministic(capsys):
    first = run(capsys, "jumping", SAMPLE20, "--bound", "1")
    second = run(capsys, "jumping", SAMPLE20, "--bound", "1")
    assert first == second


def test_oracle_match(capsys):
    code, out, _ = run(capsys, "oracle", CUSP, "--bound", "1")
    assert code == 0
    assert out == "5/6\nMATCH\n"


def test_oracle_match_maximal(capsys):
    code, out, _ = run(capsys, "oracle", MAXIMAL)
    assert code == 0
    assert out == "2\nMATCH\n"


def test_oracle_match_across_lcms(monkeypatch, capsys):
    # The formula builds its set over the lcm of the valuations it scans, the
    # oracle over the lcm of all of them; MATCH must not depend on that.
    from jumpnum import jumping, oracle
    from jumpnum.ideals import JumpingSet

    built = {}
    for module in (jumping, oracle):
        def record(pairs, lcm=None, name=module.__name__):
            built[name] = lcm
            return JumpingSet(pairs, lcm)

        monkeypatch.setattr(module, "JumpingSet", record)
    code, out, _ = run(capsys, "oracle", SAMPLE20, "--bound", "1")
    assert code == 0 and out.endswith("\nMATCH\n")
    formula, scanned = built["jumpnum.jumping"], built["jumpnum.oracle"]
    assert scanned % formula == 0 and scanned != formula


def test_multiplier_vector(capsys):
    assert run(capsys, "multiplier", CUSP, "--xi", "5/6")[1] == "1 0 0\n"
    assert run(capsys, "multiplier", CUSP, "--xi", "0")[1] == "0 0 0\n"
    assert run(capsys, "multiplier", MAXIMAL, "--xi", "2")[1] == "1\n"


def test_fixture_gen_matches_checked_in_file(capsys):
    code, out, _ = run(capsys, "fixture-gen")
    assert code == 0
    assert out == (FIXTURES / "sample20.res").read_text()


def test_fixture_gen_out_file(tmp_path, capsys):
    target = tmp_path / "regen.res"
    code, _, _ = run(capsys, "fixture-gen", "--out", str(target))
    assert code == 0
    assert target.read_text() == (FIXTURES / "sample20.res").read_text()


@pytest.mark.parametrize("target, reason", [
    ("missing/regen.res", "No such file or directory"),
    (".", "Is a directory"),
])
def test_fixture_gen_to_an_unwritable_path_exits_one(tmp_path, target, reason):
    out = tmp_path / target
    done = subprocess.run([sys.executable, "-m", "jumpnum.cli", "fixture-gen", "--out", str(out)],
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"cannot write {out}: {reason}\n"
    assert "Traceback" not in done.stderr


def test_vertex_out_of_range(capsys):
    code, out, err = run(capsys, "jumping", CUSP, "--vertex", "9")
    assert code == 1
    assert "out of range" in err


@pytest.mark.parametrize("vertex", ["0", "-1", "4"])
def test_semigroup_vertex_out_of_range(capsys, vertex):
    code, out, err = run(capsys, "semigroup", CUSP, "--vertex", vertex)
    assert (code, out, err) == (1, "", f"vertex out of range: {vertex}\n")


def test_negative_xi_exits_one(capsys):
    code, out, err = run(capsys, "multiplier", CUSP, "--xi", "-1")
    assert (code, out, err) == (1, "", "parameter must be nonnegative\n")


def test_invalid_graph_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.res"
    bad.write_text("N 4\nP 2 1\nP 3 1\nP 4 2 3\nD 1 0 0 0\n")
    code, out, err = run(capsys, "jumping", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith(f"{bad}: ")


def test_undecodable_file_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.res"
    bad.write_bytes(b"N 1\n\xff D 1\n")
    code, out, err = run(capsys, "lct", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith(f"{bad}: ")


# Text that looks like a resolution file often enough to reach the library:
# any text, a header over random lines, or a whole file with random entries.
_WORDS = st.lists(st.integers(-1, 3).map(str) | st.sampled_from(["x", "1/2"]), max_size=4)
_LINES = st.builds(lambda key, words: " ".join((key, *words)),
                   st.sampled_from(["P", "D", "X", "#"]), _WORDS)


@st.composite
def _files(draw):
    n = draw(st.integers(1, 5))
    lines = [f"N {n}"]
    for mu in range(2, n + 1):
        targets = draw(st.lists(st.integers(1, mu - 1), min_size=1, max_size=2, unique=True))
        lines.append(" ".join(map(str, ("P", mu, *targets))))
    entries = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    lines.append(" ".join(map(str, ("D", *entries))))
    return "\n".join(lines)


_TEXTS = (
    st.text(st.characters(codec="utf-8"), max_size=60)
    | st.builds(lambda n, lines: "\n".join((f"N {n}", *lines)),
                st.integers(0, 3), st.lists(_LINES, max_size=5))
    | _files()
)


@settings(max_examples=40, deadline=None)
@given(_TEXTS)
def test_arbitrary_text_never_raises(text):
    try:
        parse_resolution(text)
    except ParseError:
        pass
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "fuzz.res"
        path.write_text(text, encoding="utf-8")
        for argv in (["validate"], ["lct"], ["jumping", "--bound", "1"],
                     ["semigroup", "--vertex", "2"]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main([argv[0], str(path), *argv[1:]]) in (0, 1)


def test_bad_bound_exits_one(capsys):
    # the library owns the rule; main maps its ValueError to exit 1
    for argv in (["jumping", CUSP, "--bound", "-1"], ["oracle", CUSP, "--bound", "0"]):
        assert run(capsys, *argv) == (1, "", "bound must be positive\n")


def test_oracle_mismatch_exits_two(monkeypatch, capsys):
    # Force a disagreement to check the reporting path and exit code.
    from jumpnum.ideals import JumpingSet

    monkeypatch.setattr(
        "jumpnum.cli.jumping_numbers",
        lambda ideal, bound: JumpingSet(((Fraction(1, 7), frozenset({1})),)),
    )
    code, out, _ = run(capsys, "oracle", CUSP, "--bound", "1")
    assert code == 2
    assert out.endswith("MISMATCH: oracle only: 5/6; formula only: 1/7\n")


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "lct", CUSP) == run(capsys, "lct", CUSP) == (0, "5/6\n", "")
    assert built == []


def test_reused_parser_carries_nothing_between_calls(capsys):
    code, out, _ = run(capsys, "jumping", CUSP, "--vertex", "3", "--format", "tsv")
    assert (code, out) == (0, "".join(f"{xi}\t3\n" for xi in CUSP_JUMPS))
    with pytest.raises(SystemExit):
        main(USAGE_ERRORS[-1])
    capsys.readouterr()
    assert run(capsys, "jumping", CUSP) == (0, "".join(f"{xi}\n" for xi in CUSP_JUMPS), "")


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_errors_exit_one(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage: jumpnum")
    assert "error:" in captured.err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: jumpnum")


def test_cli_runs_as_a_fresh_process():
    env = {**os.environ, "PYTHONPATH": "src"}

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "jumpnum.cli", *argv], cwd=ROOT,
                              env=env, capture_output=True, text=True)

    done = cli("lct", "fixtures/cusp.res")
    assert (done.returncode, done.stdout, done.stderr) == (0, "5/6\n", "")
    done = cli("bogus")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("usage: jumpnum")
