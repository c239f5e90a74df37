import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cadorder
from cadorder import (
    CellTableError,
    enumerate_orderings,
    format_ordering,
    full_projection,
    load_cell_table,
    parse_system,
)
from cadorder.cli import run

FIXTURES = Path(__file__).parent / "fixtures"
BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark that spreadsheets and some editors write


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "brown_demo.poly"
    path.write_text("vars: x, y, z\nx^4 + y\ny^2*z + 1\n")
    return str(path)


@pytest.fixture()
def bivariate_file(tmp_path):
    path = tmp_path / "demo.poly"
    path.write_text("x^2 + y\n")
    return str(path)


class TestAnalyze:
    def test_brown_demo(self, demo_file):
        code, out, err = invoke(["analyze", demo_file, "--heuristic", "brown"])
        assert code == 0 and err == ""
        assert "chosen: x>y>z" in out

    def test_all_heuristics_default(self, bivariate_file):
        code, out, _ = invoke(["analyze", bivariate_file])
        assert code == 0
        assert out.index("heuristic brown") < out.index("heuristic sotd") < out.index("heuristic ndrr")

    def test_json_format(self, bivariate_file):
        code, out, _ = invoke(["analyze", bivariate_file, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        by_name = {h["heuristic"]: h for h in payload["heuristics"]}
        assert by_name["sotd"]["per_ordering"] == {"x>y": 5, "y>x": 4}
        assert by_name["sotd"]["chosen"] == "y>x"
        assert by_name["ndrr"]["chosen"] == "x>y"
        assert by_name["brown"]["per_ordering"] is None

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.poly"
        bad.write_text("x^-1\n")
        code, out, err = invoke(["analyze", str(bad)])
        assert code == 2
        assert "parse error" in err and out == ""

    def test_non_ascii_digit_exit_2(self, tmp_path):
        bad = tmp_path / "bad.poly"
        bad.write_text("x^\u0663 - 1\n", encoding="utf-8")
        code, out, err = invoke(["analyze", str(bad)])
        assert code == 2 and out == ""
        assert err == f"cadorder: parse error: line 1, column 3: {bad}: unexpected character '\u0663'\n"

    def test_undecodable_byte_exit_2(self, tmp_path):
        bad = tmp_path / "bad.poly"
        bad.write_bytes(b"x + y\n# caf\xc3\xa9\nx^2 - caf\xe9\n")
        code, out, err = invoke(["analyze", str(bad)])
        assert code == 2 and out == ""
        assert err == f"cadorder: parse error: line 3, column 10: {bad}: invalid UTF-8 byte 0xe9\n"

    def test_leading_byte_order_mark_ignored(self, tmp_path):
        path = tmp_path / "p2.poly"
        path.write_bytes(BOM + (FIXTURES / "problems" / "p2.poly").read_bytes())
        code, out, err = invoke(["analyze", str(path), "--format", "json"])
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (FIXTURES / "cli" / "p2.analyze.json").read_bytes()

    @pytest.mark.parametrize("mark", [b"", BOM], ids=["plain", "byte-order-mark"])
    def test_undecodable_byte_after_a_byte_order_mark(self, tmp_path, mark):
        # positions count from after the mark, as if it were not there
        bad = tmp_path / "bad.poly"
        bad.write_bytes(mark + b"x^2 - 2\xff\n")
        code, out, err = invoke(["analyze", str(bad)])
        assert (code, out) == (2, "")
        assert err == f"cadorder: parse error: line 1, column 8: {bad}: invalid UTF-8 byte 0xff\n"

    @pytest.mark.parametrize(
        "data, line", [(b"x^2 - 2\n" + BOM + b"y - 1\n", 2), (BOM + BOM + b"x - 1\n", 1)],
        ids=["start-of-line-2", "second-mark"],
    )
    def test_byte_order_mark_elsewhere_exit_2(self, tmp_path, data, line):
        bad = tmp_path / "bad.poly"
        bad.write_bytes(data)
        code, out, err = invoke(["analyze", str(bad)])
        assert (code, out) == (2, "")
        assert err == f"cadorder: parse error: line {line}, column 1: {bad}: unexpected character '\\ufeff'\n"

    @pytest.mark.parametrize(
        "text, message",
        [("x^2 - 2\u2028y\n", "line 1, column 8: {}: unexpected character '\\u2028'"),
         ("x^2 - 2\f\ny -\n", "line 1, column 8: {}: unexpected character '\\x0c'")],
        ids=["line-separator", "form-feed"],
    )
    def test_line_ends_only_at_a_newline(self, tmp_path, text, message):
        # str.splitlines would end a line at U+2028 and at a form feed too
        bad = tmp_path / "bad.poly"
        bad.write_bytes(text.encode("utf-8"))
        code, out, err = invoke(["analyze", str(bad)])
        assert (code, out) == (2, "")
        assert err == "cadorder: parse error: " + message.format(bad) + "\n"

    def test_coefficients_of_any_length(self, tmp_path):
        # products of 3000-digit coefficients pass 4300 digits, and the
        # lowest limit Python accepts must not trip the conversions either
        c = "7" * 3000
        path = tmp_path / "long.poly"
        path.write_text(f"x^2 + {c}*y\nx*y^2 + {c}*x + {c}\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cadorder.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=640", "-m", "cadorder.cli",
             "analyze", str(path), "--format", "json"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert invoke(["analyze", str(path), "--format", "json"]) == (0, proc.stdout, "")

    def test_deep_nesting_exit_2(self, tmp_path):
        bad = tmp_path / "deep.poly"
        bad.write_text("(" * 1000 + "x" + ")" * 1000 + "\n")
        code, out, err = invoke(["analyze", str(bad)])
        assert code == 2 and out == ""
        assert err == f"cadorder: parse error: line 1, column 101: {bad}: parentheses nested deeper than 100\n"

    def test_exponent_too_large_exit_2(self, tmp_path):
        bad = tmp_path / "big_exponent.poly"
        bad.write_text("x + y\nx^" + "1" * 5000 + "\n")
        code, out, err = invoke(["analyze", str(bad)])
        assert code == 2 and out == ""
        assert err == f"cadorder: parse error: line 2, column 3: {bad}: exponent too large\n"

    def test_exponent_of_400_digits(self, tmp_path):
        big, plain = tmp_path / "big.poly", tmp_path / "plain.poly"
        big.write_text("x + 1^" + "9" * 400 + "\n")
        plain.write_text("x + 1\n")
        code, out, err = invoke(["analyze", str(big)])
        assert (code, err) == (0, "")
        assert out == invoke(["analyze", str(plain)])[1]

    def test_usage_error_exit_1(self, bivariate_file):
        code, _, err = invoke(["analyze", bivariate_file, "--heuristic", "nope"])
        assert code == 1 and "usage error" in err

    def test_missing_file_exit_2(self):
        code, out, err = invoke(["analyze", "no_such_file.poly"])
        assert (code, out, err) == (2, "", "cadorder: parse error: cannot read no_such_file.poly: No such file or directory\n")

    def test_no_variables_exit_1(self, tmp_path):
        constant = tmp_path / "constant.poly"
        constant.write_text("5\n")
        for heuristic in ("brown", "sotd", "ndrr", "all"):
            code, out, err = invoke(["analyze", str(constant), "--heuristic", heuristic])
            assert (code, out, err) == (1, "", f"cadorder: error: {constant}: no variables to order\n")


class TestOrderings:
    def test_lists_metrics(self, bivariate_file):
        code, out, _ = invoke(["orderings", bivariate_file])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["ordering", "sotd", "ndrr"]
        assert lines[1].split() == ["x>y", "5", "1"]
        assert lines[2].split() == ["y>x", "4", "1"]

    @pytest.mark.parametrize("path", [
        *(FIXTURES / "problems" / f"p{i}.poly" for i in range(1, 5)),
        Path(__file__).parents[1] / "perfbench" / "data" / "corpus" / "r4v2p_000.poly",
    ], ids=["p1", "p2", "p3", "p4", "r4v2p_000"])
    def test_columns_line_up(self, path):
        # the name column is as wide as the header's word or the longest
        # ordering, whichever is wider: 1 to 4 variables print shorter ones
        code, out, err = invoke(["orderings", str(path)])
        assert (code, err) == (0, "")
        assert len({len(line) for line in out.splitlines()}) == 1

    @pytest.mark.parametrize("text, reason", [
        ("5\n", "no variables to order"),
        (" + ".join("abcdefgh") + "\n", "8 variables exceed the enumeration cap of 7"),
    ], ids=["constant", "eight-variables"])
    def test_error_names_file_exit_1(self, tmp_path, text, reason):
        path = tmp_path / "p.poly"
        path.write_text(text)
        assert invoke(["orderings", str(path)]) == (1, "", f"cadorder: error: {path}: {reason}\n")


class TestProject:
    def test_levels(self, bivariate_file):
        code, out, _ = invoke(["project", bivariate_file, "--order", "y>x"])
        assert code == 0
        assert out == "level 2:\nx^2 + y\nlevel 1:\ny\n"

    def test_bad_ordering_exit_1(self, bivariate_file):
        code, _, err = invoke(["project", bivariate_file, "--order", "x>z"])
        assert code == 1 and "usage error" in err


class TestRoots:
    def test_counts_per_line(self, tmp_path):
        path = tmp_path / "u.poly"
        path.write_text("x^2 - 2\nx^2 + 1\nx^2 - 2*x + 1\n")
        code, out, _ = invoke(["roots", str(path)])
        assert code == 0
        assert out == "2\n0\n1\n"

    def test_multivariate_rejected(self, bivariate_file):
        code, _, err = invoke(["roots", bivariate_file])
        assert code == 2 and "not univariate" in err

    def test_multivariate_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "mixed.poly"
        path.write_text("x^2 - 2\n# a comment\nx*y + 1\n")
        code, out, err = invoke(["roots", str(path)])
        assert code == 2 and out == ""
        assert err == f"cadorder: parse error: line 3, column 1: {path}: polynomial is not univariate: x*y + 1\n"

    @pytest.mark.parametrize(
        "text, line, col, poly",
        [
            ("x^2 - 2\nx*y + 1\ny^2 - 3\nx*y + 1\n", 2, 1, "x*y + 1"),
            ("x^2 - 2\n   y*x - 3  # indented\n", 2, 4, "x*y - 3"),
            ("# head\n\nvars: x, y\n# c\n5\nx^2 - 1\n\t x*y + 1\n", 7, 3, "x*y + 1"),
            ("y^3 - y\nx^2 - 1\n2*x*y\nx*y - 1\n", 3, 1, "2*x*y"),
        ],
        ids=["repeated-first-wins", "indented", "after-vars-and-comments", "not-first"],
    )
    def test_multivariate_position(self, tmp_path, text, line, col, poly):
        path = tmp_path / "mixed.poly"
        path.write_text(text)
        code, out, err = invoke(["roots", str(path)])
        assert code == 2 and out == ""
        assert err == f"cadorder: parse error: line {line}, column {col}: {path}: polynomial is not univariate: {poly}\n"

    def test_constants_count_zero(self, tmp_path):
        path = tmp_path / "c.poly"
        path.write_text("5\n-3\nx^2 - 2\n")
        assert invoke(["roots", str(path)]) == (0, "0\n0\n2\n", "")


class TestBench:
    ARGS = [
        "bench",
        "--problems", str(FIXTURES / "problems"),
        "--cells", str(FIXTURES / "bench_cells.csv"),
    ]

    def test_text_report(self):
        code, out, err = invoke(self.ARGS)
        assert code == 0 and err == ""
        assert "problems: 4" in out

    @pytest.mark.parametrize("newline", [b"\n", b"\r", b"\r\n"], ids=["lf", "bare-cr", "crlf"])
    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json"), ("csv", "csv")])
    def test_pinned_report_bytes(self, tmp_path, fmt, suffix, newline):
        # csv reads the table whatever its line endings
        table = tmp_path / "cells.csv"
        table.write_bytes((FIXTURES / "bench_cells.csv").read_bytes().replace(b"\n", newline))
        code, out, err = invoke(self.ARGS[:-1] + [str(table), "--format", fmt])
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (FIXTURES / "cli" / f"bench.{suffix}").read_bytes()

    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json"), ("csv", "csv")])
    def test_leading_byte_order_mark_ignored(self, tmp_path, fmt, suffix):
        # as a spreadsheet saves "CSV UTF-8"
        table = tmp_path / "cells.csv"
        table.write_bytes(BOM + (FIXTURES / "bench_cells.csv").read_bytes())
        code, out, err = invoke(self.ARGS[:-1] + [str(table), "--format", fmt])
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (FIXTURES / "cli" / f"bench.{suffix}").read_bytes()

    def test_json_report(self):
        code, out, _ = invoke(self.ARGS + ["--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["totals"] == {
            "n_problems": 4, "n_no_timeout": 3, "n_some_timeout": 1,
        }
        # p2's brown pick is x>y>z (120 cells), avoiding both timeouts
        assert payload["per_heuristic"]["brown"]["timeout_avoidance_count"] == 1

    def test_problems_not_a_directory_exit_1(self):
        cells = str(FIXTURES / "bench_cells.csv")
        code, out, err = invoke(["bench", "--problems", cells, "--cells", cells])
        assert (code, out, err) == (1, "", f"cadorder: usage error: not a directory: {cells}\n")

    def test_no_poly_files_exit_1(self, tmp_path):
        (tmp_path / "p1.txt").write_text("x + 1\n")
        code, out, err = invoke(["bench", "--problems", str(tmp_path), "--cells", self.ARGS[-1]])
        assert (code, out, err) == (1, "", f"cadorder: usage error: no .poly files in {tmp_path}\n")

    def test_missing_csv_exit_3(self):
        code, _, err = invoke(self.ARGS[:-1] + ["missing.csv"])
        assert code == 3 and "cell table error" in err

    def test_invalid_table_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("problem,ordering,cells,timeout\np1,x>y,5,0\n")
        code, _, err = invoke(self.ARGS[:-1] + [str(bad)])
        assert code == 3

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("p1,x>x,5,0", "repeated variable in ordering 'x>x'"),
            ("p1,x,\u00b2,0", "cells must be a positive integer"),
        ],
        ids=["repeated-variable", "superscript-two-cells"],
    )
    def test_bad_row_names_line_exit_3(self, tmp_path, row, reason):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"problem,ordering,cells,timeout\n{row}\n", encoding="utf-8")
        code, out, err = invoke(self.ARGS[:-1] + [str(bad)])
        assert code == 3 and out == ""
        assert err == f"cadorder: cell table error: line 2: {reason}\n"

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"problem,ordering,cells,timeout\np1,x,5\x00,0\n", 2),
            (b"problem,ordering,cells,timeout\np1,x," + b"9" * 131073 + b",0\n", 2),
        ],
        ids=["nul-byte", "cells-over-csv-field-limit"],
    )
    def test_malformed_csv_names_line_exit_3(self, tmp_path, data, line):
        # csv's own errors (which of them a NUL byte raises depends on the
        # Python version) are cell table errors that name the line
        bad = tmp_path / "bad.csv"
        bad.write_bytes(data)
        code, out, err = invoke(self.ARGS[:-1] + [str(bad)])
        assert (code, out) == (3, "")
        assert err.startswith(f"cadorder: cell table error: line {line}: ") and err.count("\n") == 1

    def problems_with(self, tmp_path, name):
        problems = tmp_path / "problems"
        shutil.copytree(FIXTURES / "problems", problems)
        return problems, problems / name

    def test_parse_error_names_file_exit_2(self, tmp_path):
        problems, bad = self.problems_with(tmp_path, "bad.poly")
        bad.write_text("x^2 +\n")
        code, out, err = invoke(["bench", "--problems", str(problems)] + self.ARGS[3:])
        assert code == 2 and out == ""
        assert f"{bad}: unexpected end of line" in err

    def test_undecodable_poly_names_file_exit_2(self, tmp_path):
        problems, bad = self.problems_with(tmp_path, "bad.poly")
        bad.write_bytes(b"\xff\n")
        code, out, err = invoke(["bench", "--problems", str(problems)] + self.ARGS[3:])
        assert (code, out) == (2, "")
        assert err == f"cadorder: parse error: line 1, column 1: {bad}: invalid UTF-8 byte 0xff\n"

    def test_undecodable_csv_names_line_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"problem,ordering,cells,timeout\np1,x>y,5\xe9,0\n")
        code, out, err = invoke(self.ARGS[:-1] + [str(bad)])
        assert (code, out) == (3, "")
        assert err == "cadorder: cell table error: line 2: invalid UTF-8 byte 0xe9\n"

    @pytest.mark.parametrize("newline", [b"\r", b"\r\n"], ids=["bare-cr", "crlf"])
    def test_undecodable_csv_line_after_other_line_endings(self, tmp_path, newline):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"problem,ordering,cells,timeout" + newline + b"p1,x>y,5\xe9,0" + newline)
        code, out, err = invoke(self.ARGS[:-1] + [str(bad)])
        assert (code, out, err) == (3, "", "cadorder: cell table error: line 2: invalid UTF-8 byte 0xe9\n")

    def test_unreadable_poly_entry_exit_2(self, tmp_path):
        problems, entry = self.problems_with(tmp_path, "dir.poly")
        entry.mkdir()
        code, out, err = invoke(["bench", "--problems", str(problems)] + self.ARGS[3:])
        assert (code, out, err) == (2, "", f"cadorder: parse error: cannot read {entry}: Is a directory\n")

    def test_no_variables_names_file_exit_1(self, tmp_path):
        problems, constant = self.problems_with(tmp_path, "constant.poly")
        constant.write_text("5\n")
        code, out, err = invoke(["bench", "--problems", str(problems)] + self.ARGS[3:])
        assert (code, out) == (1, "")
        assert err == f"cadorder: error: {constant}: no variables to order\n"

    def test_missing_table_fails_before_any_problem(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("a problem was analysed before the table was read")
        monkeypatch.setattr(cadorder.cli, "choose", refuse)
        missing = tmp_path / "missing.csv"
        code, out, err = invoke(self.ARGS[:-1] + [str(missing)])
        assert (code, out) == (3, "")
        assert err == f"cadorder: cell table error: cannot read {missing}: No such file or directory\n"

    def test_broken_table_reported_before_a_broken_problem(self, tmp_path):
        problems, bad = self.problems_with(tmp_path, "bad.poly")
        bad.write_text("x^2 +\n")
        missing = tmp_path / "missing.csv"
        code, out, err = invoke(["bench", "--problems", str(problems), "--cells", str(missing)])
        assert (code, out) == (3, "")
        assert err.startswith("cadorder: cell table error: cannot read ")

    def test_byte_determinism(self):
        for fmt in ("text", "json", "csv"):
            first = invoke(self.ARGS + ["--format", fmt])
            second = invoke(self.ARGS + ["--format", fmt])
            assert first == second
            assert first[0] == 0


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "bare-cr"])
def test_undecodable_byte_named_at_one_line_by_both_readers(tmp_path, newline):
    """A .poly file and a cell table are decoded one way, so the same bytes
    put a bad byte on the same line for both."""
    data = newline.join([b"problem,ordering,cells,timeout", b"p1,x>y,5,0", b"p1,y>x,7\xff,0", b""])
    bad = tmp_path / "bad.poly"
    bad.write_bytes(data)
    code, out, err = invoke(["analyze", str(bad)])
    assert (code, out, err) == (2, "", f"cadorder: parse error: line 3, column 9: {bad}: invalid UTF-8 byte 0xff\n")
    with pytest.raises(CellTableError, match=r"^line 3: invalid UTF-8 byte 0xff$"):
        load_cell_table(data)


def test_module_entry_point(demo_file):
    env = dict(os.environ, PYTHONPATH=str(Path(cadorder.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "cadorder.cli", "analyze", demo_file, "--heuristic", "brown"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert "chosen: x>y>z" in proc.stdout


@pytest.mark.parametrize("argv, code, message", [
    (["bench", "--problems", "{bad}", "--cells", "{missing}"], 1, "usage error: not a directory: {bad}"),
    (["analyze", "{bad}"], 2, "parse error: line 1, column 6: {bad}: unexpected end of line"),
    (["bench", "--problems", "{problems}", "--cells", "{missing}"],
     3, "cell table error: cannot read {missing}: No such file or directory"),
], ids=["usage-1", "parse-2", "cell-table-3"])
def test_exit_status_leaves_the_process(tmp_path, argv, code, message):
    """main hands run's status to sys.exit, so the process exits with it."""
    bad = tmp_path / "bad.poly"
    bad.write_text("x^2 +\n")
    names = {"bad": bad, "problems": FIXTURES / "problems", "missing": tmp_path / "missing.csv"}
    env = dict(os.environ, PYTHONPATH=str(Path(cadorder.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "cadorder.cli", *(a.format(**names) for a in argv)],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", f"cadorder: {message.format(**names)}\n")


@pytest.mark.parametrize("seed", ["0", "1"])
def test_outputs_do_not_depend_on_the_hash_seed(seed):
    """Levels, orderings and reports come out in the same order whatever
    Python's string hashes are."""
    env = dict(os.environ, PYTHONPATH=str(Path(cadorder.__file__).parents[1]), PYTHONHASHSEED=seed)
    p2 = str(FIXTURES / "problems" / "p2.poly")
    bench = ["bench", "--problems", str(FIXTURES / "problems"), "--cells", str(FIXTURES / "bench_cells.csv")]
    # p2.project.txt holds every ordering's block in tuple order, x>y>z first
    first_block = (FIXTURES / "cli" / "p2.project.txt").read_bytes().split(b"level 3:\n")[1]
    for args, golden in [
        (["analyze", p2, "--format", "json"], (FIXTURES / "cli" / "p2.analyze.json").read_bytes()),
        (bench + ["--format", "json"], (FIXTURES / "cli" / "bench.json").read_bytes()),
        (["project", p2, "--order", "x>y>z"], b"level 3:\n" + first_block),
    ]:
        proc = subprocess.run([sys.executable, "-m", "cadorder.cli", *args], capture_output=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == golden


def test_parser_built_on_first_run_only():
    """Importing the CLI builds no argparse parser; the first run builds the
    tree (the root and one per subcommand) and later runs reuse it."""
    script = textwrap.dedent("""
        import argparse, io
        built = []
        init = argparse.ArgumentParser.__init__
        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counting_init
        import cadorder.cli
        counts = [len(built)]
        for _ in range(2):
            cadorder.cli.run(["roots"], out=io.StringIO(), err=io.StringIO())
            counts.append(len(built))
        print(counts)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(cadorder.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[0, 6, 6]\n"


@pytest.mark.parametrize("heuristic", ["brown", "all"])
def test_brown_candidate_cap_exit_1(tmp_path, heuristic):
    # 12 variables with equal Brown triples: 12! candidates, refused unenumerated
    path = tmp_path / "twelve.poly"
    path.write_text(" + ".join("abcdefghijkl") + "\n")
    code, out, err = invoke(["analyze", str(path), "--heuristic", heuristic])
    assert (code, out) == (1, "")
    assert err == f"cadorder: error: {path}: 479001600 Brown candidates exceed the enumeration cap of 5040\n"


def test_orderings_rows_match_the_corpus_goldens():
    """Each `orderings` row of every benchmark corpus system reads the sotd and
    ndrr values that the system's golden `analyze --heuristic all --format
    json` output gives that ordering: both commands walk the orderings of
    `heuristics.projections`.  All 164 files, about 3 s on 2 cores."""
    corpus = Path(__file__).parents[1] / "perfbench" / "data" / "corpus"
    golden = json.loads((corpus.parent / "golden" / "corpus.json").read_text())
    paths = sorted(corpus.glob("*.poly"))
    assert len(paths) == len(golden)
    for path in paths:
        values = {r["heuristic"]: r["per_ordering"] for r in json.loads(golden[path.stem])["heuristics"]}
        code, out, err = invoke(["orderings", str(path)])
        assert (code, err) == (0, "")
        header, *rows = [line.split() for line in out.splitlines()]
        assert header == ["ordering", "sotd", "ndrr"]
        assert {o: (int(s), int(n)) for o, s, n in rows} == {
            o: (v, values["ndrr"][o]) for o, v in values["sotd"].items()
        }, path.name


@pytest.mark.parametrize("command", [["analyze"], ["orderings"], ["project", "--order", "x>y"], ["roots"]])
@pytest.mark.parametrize("kind, reason", [("missing", "No such file or directory"), ("directory", "Is a directory")])
def test_unreadable_file_has_no_position(tmp_path, command, kind, reason):
    """A file that cannot be read is a parse error (exit 2) without a line
    and column, since it has no text to point into."""
    path = tmp_path / f"{kind}.poly"
    if kind == "directory":
        path.mkdir()
    argv = [command[0], str(path), *command[1:]]
    assert invoke(argv) == (2, "", f"cadorder: parse error: cannot read {path}: {reason}\n")


@pytest.mark.parametrize("data", [b"", b"# only a comment\n\n  # and another\n"], ids=["0-byte", "comments-only"])
def test_empty_system_has_no_position(tmp_path, data):
    """A file without a polynomial is a parse error (exit 2) that names the
    file but no line or column."""
    path = tmp_path / "empty.poly"
    path.write_bytes(data)
    assert invoke(["analyze", str(path)]) == (2, "", f"cadorder: parse error: {path}: empty system\n")


def test_pinned_close_roots_bytes():
    """roots on Mignotte polynomials, clustered and repeated factors prints
    exactly the counts under fixtures/cli.  The file stays out of
    fixtures/problems, whose every .poly file bench and CI read."""
    path = FIXTURES / "roots" / "close_roots.poly"
    code, out, err = invoke(["roots", str(path)])
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (FIXTURES / "cli" / "close_roots.roots.txt").read_bytes()


@pytest.mark.parametrize("problem", ["p1", "p2", "p3", "p4"])
def test_pinned_output_bytes(problem):
    """analyze --format text and json, orderings, project at every ordering
    in lexicographic order, concatenated, and roots on the one univariate
    fixture print exactly the bytes under fixtures/cli; the text files were
    written before Polynomial stopped caching its text and before the
    projection stopped sorting its levels (project sorts each level it
    prints by text), and the json files before analyze built one record
    per heuristic for both formats."""
    path = FIXTURES / "problems" / f"{problem}.poly"
    orderings = enumerate_orderings(parse_system(path.read_text()).variables)
    argvs = {
        "analyze.txt": [["analyze", str(path), "--format", "text"]],
        "analyze.json": [["analyze", str(path), "--format", "json"]],
        "orderings.txt": [["orderings", str(path)]],
        "project.txt": [["project", str(path), "--order", format_ordering(o)] for o in orderings],
    }
    if problem == "p4":
        argvs["roots.txt"] = [["roots", str(path)]]
    for name, runs in argvs.items():
        results = [invoke(argv) for argv in runs]
        assert all(code == 0 and err == "" for code, _, err in results)
        text = "".join(out for _, out, _ in results)
        assert text.encode("utf-8") == (FIXTURES / "cli" / f"{problem}.{name}").read_bytes()


@st.composite
def system_lines(draw):
    """2-3 lines over x, y and maybe z: each a sum of 1 or 2 distinct terms, so
    never zero, with coefficients in [-4, 4] and exponents at most 2."""
    names = "xyz"[:draw(st.integers(2, 3))]
    terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(names)), st.integers(-4, 4).filter(bool),
                            min_size=1, max_size=2)
    lines = [
        " + ".join("*".join([str(c), *(f"{v}^{e}" for v, e in zip(names, exps) if e)]) for exps, c in line.items())
        for line in draw(st.lists(terms, min_size=2, max_size=3))
    ]
    assume(any("^" in line for line in lines))
    return lines


@settings(max_examples=30, deadline=None)
@given(lines=system_lines(), data=st.data())
def test_line_order_changes_no_output(tmp_path_factory, lines, data):
    """A system is a set of polynomials: the same lines reversed or shuffled
    give the same analyze, orderings and project (every ordering) bytes, and
    every projection level holds the same set."""
    reordered = data.draw(st.one_of(st.just(lines[::-1]), st.permutations(lines)))
    folder = tmp_path_factory.mktemp("line-order")
    paths = [folder / "given.poly", folder / "reordered.poly"]
    for path, text in zip(paths, (lines, reordered)):
        path.write_text("".join(f"{line}\n" for line in text))
    systems = [parse_system(path.read_text()) for path in paths]
    orderings = enumerate_orderings(systems[0].variables)
    argvs = [["analyze", "{}", "--format", "json"], ["orderings", "{}"],
             *(["project", "{}", "--order", format_ordering(o)] for o in orderings)]
    for argv in argvs:
        given_run, reordered_run = (invoke([arg.format(path) for arg in argv]) for path in paths)
        assert given_run == reordered_run and given_run[0] == 0, argv
    for ordering in orderings:
        given_levels, reordered_levels = (full_projection(s, ordering).levels for s in systems)
        assert [set(level) for level in given_levels] == [set(level) for level in reordered_levels]


# the pieces of a short .poly text: names, digits, operators, comments,
# declarations, separators and blanks
_POLY_PIECES = ("x", "y", "z", *"0123456789", *"+-*^()#", "vars:", ",", " ", "\t", "\n")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_POLY_PIECES), max_size=16).map("".join))
def test_any_short_text_exits_0_1_or_2(tmp_path_factory, text):
    """Whatever a short text holds, each command on it exits 0, 1 or 2 and
    raises nothing; it writes nothing to stderr on success and one line
    naming the program otherwise."""
    # nothing bounds the work yet: x^99+y+z with y^99+z+x ran over 10 minutes
    # and (x*y+z)^16+1 takes seconds
    assume(math.prod(int(e) for e in re.findall(r"\^[ \t]*([0-9]+)", text)) <= 4)
    path = tmp_path_factory.mktemp("any") / "any.poly"
    path.write_text(text)
    for argv in (["analyze", str(path), "--format", "json"], ["roots", str(path)],
                 ["orderings", str(path)], ["project", str(path), "--order", "x>y>z"]):
        code, out, err = invoke(argv)
        assert code in (0, 1, 2), (argv, err)
        if code == 0:
            assert err == ""
        else:
            assert out == "" and err.startswith("cadorder: ") and err.count("\n") == 1 and err.endswith("\n")
