import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cadorder
from cadorder import enumerate_orderings, format_ordering, parse_system
from cadorder.cli import run

FIXTURES = Path(__file__).parent / "fixtures"


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
        code, _, err = invoke(["analyze", "no_such_file.poly"])
        assert code == 2

    def test_no_variables_exit_1(self, tmp_path):
        constant = tmp_path / "constant.poly"
        constant.write_text("5\n")
        for heuristic in ("brown", "sotd", "ndrr", "all"):
            code, out, err = invoke(["analyze", str(constant), "--heuristic", heuristic])
            assert (code, out, err) == (1, "", "cadorder: error: no variables to order\n")


class TestOrderings:
    def test_lists_metrics(self, bivariate_file):
        code, out, _ = invoke(["orderings", bivariate_file])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["ordering", "sotd", "ndrr"]
        assert lines[1].split() == ["x>y", "5", "1"]
        assert lines[2].split() == ["y>x", "4", "1"]


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

    def test_unreadable_poly_entry_exit_2(self, tmp_path):
        problems, entry = self.problems_with(tmp_path, "dir.poly")
        entry.mkdir()
        code, out, err = invoke(["bench", "--problems", str(problems)] + self.ARGS[3:])
        assert code == 2 and out == ""
        assert f"cannot read {entry}" in err

    def test_no_variables_names_file_exit_1(self, tmp_path):
        problems, constant = self.problems_with(tmp_path, "constant.poly")
        constant.write_text("5\n")
        code, out, err = invoke(["bench", "--problems", str(problems)] + self.ARGS[3:])
        assert (code, out) == (1, "")
        assert err == f"cadorder: error: {constant}: no variables to order\n"

    def test_byte_determinism(self):
        for fmt in ("text", "json", "csv"):
            first = invoke(self.ARGS + ["--format", fmt])
            second = invoke(self.ARGS + ["--format", fmt])
            assert first == second
            assert first[0] == 0


def test_module_entry_point(demo_file):
    env = dict(os.environ, PYTHONPATH=str(Path(cadorder.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "cadorder.cli", "analyze", demo_file, "--heuristic", "brown"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert "chosen: x>y>z" in proc.stdout


@pytest.mark.parametrize("heuristic", ["brown", "all"])
def test_brown_candidate_cap_exit_1(tmp_path, heuristic):
    # 12 variables with equal Brown triples: 12! candidates, refused unenumerated
    path = tmp_path / "twelve.poly"
    path.write_text(" + ".join("abcdefghijkl") + "\n")
    code, out, err = invoke(["analyze", str(path), "--heuristic", heuristic])
    assert (code, out) == (1, "")
    assert err == "cadorder: error: 479001600 Brown candidates exceed the enumeration cap of 5040\n"


@pytest.mark.parametrize("problem", ["p1", "p2", "p3", "p4"])
def test_pinned_output_bytes(problem):
    """analyze --format text, orderings, and project at every ordering in
    lexicographic order, concatenated, print exactly the bytes under
    fixtures/cli; those were written before Polynomial stopped caching its
    text, which reduce_level sorts each projection level by."""
    path = FIXTURES / "problems" / f"{problem}.poly"
    orderings = enumerate_orderings(parse_system(path.read_text()).variables)
    argvs = {
        "analyze": [["analyze", str(path), "--format", "text"]],
        "orderings": [["orderings", str(path)]],
        "project": [["project", str(path), "--order", format_ordering(o)] for o in orderings],
    }
    for command, runs in argvs.items():
        results = [invoke(argv) for argv in runs]
        assert all(code == 0 and err == "" for code, _, err in results)
        text = "".join(out for _, out, _ in results)
        assert text.encode("utf-8") == (FIXTURES / "cli" / f"{problem}.{command}.txt").read_bytes()
