import csv
import io
import json
import statistics
from fractions import Fraction
from itertools import permutations
from math import floor
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cadorder import (
    CellCountTable,
    CellTableError,
    SavingsSummary,
    Variable,
    compute_report,
    emit_report,
    load_cell_table,
    summarize,
)
from cadorder.stats import BenchReport, CellCountRow, HeuristicStats

FIXTURES = Path(__file__).parent / "fixtures"

# Picks used against the stats_cells.csv fixture; see the expected-value
# comments in TestFixtureRegression.
FIXTURE_PICKS = {
    "brown": {
        "q01": ("x", "y"), "q02": ("y", "x"), "q03": ("x", "y"),
        "q04": ("x", "y"), "q05": ("x", "y"), "q06": ("y", "x"),
        "q07": ("y", "x"), "q08": ("x", "y"),
        "q09": ("x", "y", "z"), "q10": ("y", "x", "z"),
        "q11": ("x", "y", "z"), "q12": ("z", "y", "x"),
    },
    "sotd": {
        "q01": ("x", "y"), "q02": ("x", "y"), "q03": ("y", "x"),
        "q04": ("y", "x"), "q05": ("x", "y"), "q06": ("y", "x"),
        "q07": ("y", "x"), "q08": ("y", "x"),
        "q09": ("x", "z", "y"), "q10": ("y", "x", "z"),
        "q11": ("y", "x", "z"), "q12": ("x", "z", "y"),
    },
    "ndrr": {
        "q01": ("y", "x"), "q02": ("x", "y"), "q03": ("x", "y"),
        "q04": ("y", "x"), "q05": ("x", "y"), "q06": ("x", "y"),
        "q07": ("y", "x"), "q08": ("x", "y"),
        "q09": ("z", "y", "x"), "q10": ("y", "z", "x"),
        "q11": ("z", "x", "y"), "q12": ("y", "x", "z"),
    },
}


def small_table(rows):
    lines = ["problem,ordering,cells,timeout"]
    lines += [",".join(str(f) for f in row) for row in rows]
    return load_cell_table("\n".join(lines) + "\n")


SIX = small_table(
    [("p1", "x>y>z", 10, 0), ("p1", "x>z>y", 20, 0), ("p1", "y>x>z", 30, 0),
     ("p1", "y>z>x", 40, 0), ("p1", "z>x>y", 50, 0), ("p1", "z>y>x", 60, 0)]
)
SIX_ORDERINGS = list(permutations("xyz"))


def best_counts(table, picks):
    """Each heuristic's best-pick count, as compute_report counts it."""
    return {h: s.best_pick_count for h, s in compute_report(table, picks).per_heuristic.items()}


def savings_of(table, pick):
    """The savings summary of one heuristic's picks, problem -> ordering."""
    return compute_report(table, {"brown": pick}).per_heuristic["brown"].savings


def avoidance(table, pick):
    """How many of one heuristic's picks avoid a timeout, as compute_report counts them."""
    return compute_report(table, {"brown": pick}).per_heuristic["brown"].timeout_avoidance_count


class TestLoad:
    def test_six_rows_one_problem(self):
        assert list(SIX.index) == ["p1"]
        assert len(SIX.rows) == 6

    def test_table_from_index(self):
        # the constructor takes the index alone; the per-problem totals follow from it
        table = small_table([("p1", "x>y", 5, 0), ("p1", "y>x", "", 1), ("p2", "x", 7, 0)])
        built = CellCountTable(table.index)
        assert built == table
        assert built.index == {"p1": {("x", "y"): 5, ("y", "x"): None}, "p2": {("x",): 7}}
        assert built.totals == {"p1": (2, None), "p2": (1, 7)}

    def test_timeout_row_with_empty_cells(self):
        table = small_table([("p1", "x>y", 5, 0), ("p1", "y>x", "", 1)])
        assert table.lookup("p1", ("y", "x")) is None

    def test_incomplete_orderings(self):
        with pytest.raises(CellTableError, match="incomplete orderings"):
            small_table(
                [("p1", "x>y>z", 10, 0), ("p1", "x>z>y", 20, 0),
                 ("p1", "y>x>z", 30, 0), ("p1", "y>z>x", 40, 0),
                 ("p1", "z>x>y", 50, 0)]
            )

    def test_missing_header(self):
        with pytest.raises(CellTableError, match="header"):
            load_cell_table("")
        with pytest.raises(CellTableError, match="header"):
            load_cell_table("a,b,c,d\n")

    def test_duplicate_row(self):
        with pytest.raises(CellTableError, match="duplicate"):
            small_table([("p1", "x", 5, 0), ("p1", "x", 6, 0)])

    def test_blank_line_skipped(self):
        table = load_cell_table("problem,ordering,cells,timeout\np1,x>y,5,0\n\np1,y>x,7,0\n")
        assert [(r.ordering, r.cells) for r in table.rows] == [(("x", "y"), 5), (("y", "x"), 7)]

    def test_wrong_field_count(self):
        with pytest.raises(CellTableError, match=r"^line 3: expected 4 fields$"):
            load_cell_table("problem,ordering,cells,timeout\np1,x>y,5,0\np1,y>x,5\n")

    def test_line_number_after_multiline_field(self):
        # each quoted problem name holds a newline, so rows 2 and 3 take two lines each
        data = 'problem,ordering,cells,timeout\n"p\n1",x>y,5,0\n"p\n1",y>x,7,0\np2,x,5,2\n'
        with pytest.raises(CellTableError, match=r"^line 6: timeout must be 0 or 1$"):
            load_cell_table(data)

    def test_timeout_not_a_flag(self):
        with pytest.raises(CellTableError, match=r"^line 2: timeout must be 0 or 1$"):
            small_table([("p1", "x", 5, 2)])

    def test_cells_present_on_timeout(self):
        with pytest.raises(CellTableError, match="timed-out"):
            small_table([("p1", "x", 5, 1)])

    def test_cells_absent_without_timeout(self):
        with pytest.raises(CellTableError, match="positive integer"):
            small_table([("p1", "x", "", 0)])

    def test_cells_of_any_length(self):
        # 5000 digits, past Python's default str-to-int limit of 4300
        cells = "1" + "0" * 4998 + "7"
        table = load_cell_table(f"problem,ordering,cells,timeout\np1,x,{cells},0\n")
        assert table.lookup("p1", ("x",)) == 10**4999 + 7

    def test_undecodable_byte_names_line(self):
        with pytest.raises(CellTableError, match=r"^line 3: invalid UTF-8 byte 0xe9$"):
            load_cell_table(b"problem,ordering,cells,timeout\np1,x>y,5,0\np1,y>x,5\xe9,0\n")

    def test_undecodable_byte_after_a_byte_order_mark_names_line(self):
        with pytest.raises(CellTableError, match=r"^line 3: invalid UTF-8 byte 0xe9$"):
            load_cell_table(b"\xef\xbb\xbfproblem,ordering,cells,timeout\np1,x>y,5,0\np1,y>x,5\xe9,0\n")

    def test_leading_byte_order_mark_dropped_from_bytes_only(self):
        # as a spreadsheet saves "CSV UTF-8"; text is read as it is
        data = "problem,ordering,cells,timeout\np1,x>y,5,0\np1,y>x,7,0\n"
        assert load_cell_table(b"\xef\xbb\xbf" + data.encode("utf-8")) == load_cell_table(data)
        with pytest.raises(CellTableError, match=r"^bad header '\\ufeffproblem,ordering,cells,timeout'"):
            load_cell_table("\ufeff" + data)

    @pytest.mark.parametrize("line", [1, 4], ids=["header", "after-valid-rows"])
    def test_csv_error_names_line(self, line):
        # csv's own error, here a field one character over its limit, names
        # the line it stopped at, whether in the header or after valid rows
        rows = ["problem,ordering,cells,timeout", "p1,x>y,5,0", "p1,y>x,7,0", "p2,x,5,0"]
        rows[line - 1] = "x" * (csv.field_size_limit() + 1) + ",x,5,0"
        with pytest.raises(CellTableError, match=f"^line {line}: "):
            load_cell_table("\n".join(rows) + "\n")

    def test_interleaved_problems_grouped_once(self):
        # rows are the index flattened: each row once, grouped by problem in
        # the order each problem first appears, a timeout's cells None
        table = small_table([("p2", "x", 3, 0), ("p1", "y>x", "", 1), ("p3", "x>y", 4, 0),
                             ("p1", "x>y", 5, 0), ("p3", "y>x", "", 1)])
        assert table.rows == (
            CellCountRow("p2", ("x",), 3, False),
            CellCountRow("p1", ("y", "x"), None, True), CellCountRow("p1", ("x", "y"), 5, False),
            CellCountRow("p3", ("x", "y"), 4, False), CellCountRow("p3", ("y", "x"), None, True),
        )
        assert CellCountTable(table.index) == table

    def test_nonpositive_cells(self):
        with pytest.raises(CellTableError, match="positive integer"):
            small_table([("p1", "x", 0, 0)])

    @pytest.mark.parametrize("problem, ordering", [("p1", "x>"), ("p1", ">x"), ("", "x"), ("p1", "")])
    def test_empty_problem_or_ordering_name(self, problem, ordering):
        with pytest.raises(CellTableError, match="line 2: empty problem or ordering field"):
            small_table([(problem, ordering, 5, 0)])

    def test_repeated_variable_in_ordering(self):
        # the permutations of [x, x] are just {(x, x)}, so this row alone
        # would pass the completeness check
        with pytest.raises(CellTableError, match="line 2: repeated variable in ordering 'x>x'"):
            small_table([("p1", "x>x", 5, 0)])

    @pytest.mark.parametrize("row, message", [
        (("", "x>y", 6, 0), "line 3: empty problem or ordering field"),
        (("p2", "x>y", 6, 2), "line 3: timeout must be 0 or 1"),
        (("p2", "x>y", "", 0), "line 3: cells must be a positive integer"),
        (("p1", "x>y", 6, 0), "line 3: duplicate row for problem 'p1', ordering 'x>y'"),
        (("p2", "y>y", 6, 0), "line 3: repeated variable in ordering 'y>y'"),
        (("p2", "y>", 6, 0), "line 3: empty problem or ordering field"),
    ], ids=["seen-empty-problem", "seen-bad-timeout", "seen-no-cells", "seen-duplicate",
            "new-repeated", "new-empty"])
    def test_bad_row_after_valid_rows(self, row, message):
        # line 2 is valid, so x>y was already checked once when line 3 is read
        with pytest.raises(CellTableError, match=f"^{message}$"):
            small_table([("p1", "x>y", 5, 0), row])

    @pytest.mark.parametrize("cells", ["\u00b2", "\u0663"], ids=["superscript-two", "arabic-indic-three"])
    def test_non_ascii_digit_cells(self, cells):
        with pytest.raises(CellTableError, match="line 3: cells must be a positive integer"):
            small_table([("p1", "x>y", 5, 0), ("p1", "y>x", cells, 0)])


class TestTableContract:
    """The table stores one index of cell counts; its rows, the counter a
    traced benchmark run reads, are built from that index."""

    def test_lookup_returns_the_cell_count_or_none(self):
        table = small_table([("p1", "x>y", 5, 0), ("p1", "y>x", "", 1)])
        assert table.lookup("p1", ("x", "y")) == 5
        assert type(table.lookup("p1", ("x", "y"))) is int
        assert table.lookup("p1", ("y", "x")) is None

    @pytest.mark.parametrize("problem, ordering, text", [
        ("p2", ("x", "y"), "problem 'p2', ordering x>y"),
        ("p1", ("x", "z"), "problem 'p1', ordering x>z"),
    ], ids=["unknown-problem", "unknown-ordering"])
    def test_missing_row_names_problem_and_ordering(self, problem, ordering, text):
        table = small_table([("p1", "x>y", 5, 0), ("p1", "y>x", "", 1)])
        with pytest.raises(CellTableError, match=f"^no cell-count row for {text}$"):
            table.lookup(problem, ordering)

    @pytest.mark.parametrize("name", ["stats_cells.csv", "bench_cells.csv"])
    def test_one_row_per_data_line(self, name):
        data = (FIXTURES / name).read_text(encoding="utf-8")
        table = load_cell_table(data)
        assert len(table.rows) == sum(1 for line in data.splitlines()[1:] if line)
        assert all(r.timeout == (r.cells is None) == (table.lookup(r.problem_id, r.ordering) is None)
                   for r in table.rows)


class TestBestPick:
    def test_two_way_tie(self):
        table = small_table([("p1", "x>y", 20, 0), ("p1", "y>x", 30, 0)])
        picks = {
            "brown": {"p1": ("x", "y")},
            "sotd": {"p1": ("x", "y")},
            "ndrr": {"p1": ("y", "x")},
        }
        assert best_counts(table, picks) == {"brown": 1, "sotd": 1, "ndrr": 0}

    def test_single_winner(self):
        table = small_table(
            [("p1", "x>y>z", 10, 0), ("p1", "x>z>y", 20, 0), ("p1", "y>x>z", 30, 0),
             ("p1", "y>z>x", 40, 0), ("p1", "z>x>y", 50, 0), ("p1", "z>y>x", 60, 0)]
        )
        picks = {
            "brown": {"p1": ("x", "y", "z")},
            "sotd": {"p1": ("x", "z", "y")},
            "ndrr": {"p1": ("y", "x", "z")},
        }
        assert best_counts(table, picks) == {"brown": 1, "sotd": 0, "ndrr": 0}

    def test_total_tie_credits_all(self):
        table = small_table([("p1", "x>y", 20, 0), ("p1", "y>x", 20, 0)])
        picks = {h: {"p1": o} for h, o in
                 [("brown", ("x", "y")), ("sotd", ("y", "x")), ("ndrr", ("x", "y"))]}
        assert best_counts(table, picks) == {"brown": 1, "sotd": 1, "ndrr": 1}

    def test_dangling_pick(self):
        with pytest.raises(CellTableError, match="^no cell-count row for problem 'p1', ordering y$"):
            compute_report(
                small_table([("p1", "x", 5, 0)]),
                {"brown": {"p1": ("y",)}, "sotd": {"p1": ("x",)}, "ndrr": {"p1": ("x",)}},
            )

    def test_missing_pick_raises_beside_a_timed_out_one(self):
        # brown's pick timed out; sotd's pick has no row and is looked up all the same
        table = small_table([("p1", "x>y", "", 1), ("p1", "y>x", 30, 0)])
        picks = {"brown": {"p1": ("x", "y")}, "ndrr": {"p1": ("y", "x")}, "sotd": {"p1": ("y", "z")}}
        with pytest.raises(CellTableError, match="^no cell-count row for problem 'p1', ordering y>z$"):
            compute_report(table, picks)

    def test_timed_out_pick_credits_no_one(self):
        # p1: brown's pick timed out, so nothing is compared; p2 is compared
        table = small_table([("p1", "x>y", "", 1), ("p1", "y>x", 30, 0),
                             ("p2", "x>y", "", 1), ("p2", "y>x", 30, 0)])
        picks = {"brown": {"p1": ("x", "y"), "p2": ("y", "x")},
                 "sotd": {"p1": ("y", "x"), "p2": ("y", "x")}}
        assert best_counts(table, picks) == {"brown": 1, "sotd": 1}


def old_saving(table, problem, ordering):
    """The saving as first written, (avg - cells) / avg * 100 for avg the
    mean cell count over all orderings: the reference for compute_report's savings."""
    cells = table.index[problem].values()
    avg = Fraction(sum(cells), len(cells))
    return (avg - table.index[problem][ordering]) / avg * 100


@st.composite
def tables_and_picks(draw, n_picks=1):
    """A cell table of up to four problems over one to three variables, with
    occasional timeouts, and n_picks picks per problem: (table, *picks)."""
    orderings = list(permutations("xyz"[: draw(st.integers(1, 3))]))
    rows, picks = [], [{} for _ in range(n_picks)]
    for i in range(draw(st.integers(1, 4))):
        for o in orderings:
            if draw(st.integers(0, 9)):
                rows.append((f"p{i}", ">".join(o), draw(st.integers(1, 2**70)), 0))
            else:
                rows.append((f"p{i}", ">".join(o), "", 1))
        for pick in picks:
            pick[f"p{i}"] = draw(st.sampled_from(orderings))
    return small_table(rows), *picks


def plain_quantile(values, q):
    """Linear interpolation at (n-1)*q of sorted(values), the reference for
    summarize's exact sort key."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def scan_report(table, picks):
    """compute_report as a scan of each problem's rows and a plain sort."""
    problems = sorted(set.intersection(*map(set, picks.values())))
    timed_out = {p for p in problems if None in table.index[p].values()}
    cells = {h: {p: table.index[p][picks[h][p]] for p in problems} for h in picks}
    finished = [p for p in problems if all(cells[h][p] is not None for h in picks)]
    per = {}
    for h in picks:
        best = sum(cells[h][p] == min(cells[g][p] for g in picks) for p in finished)
        savings = [old_saving(table, p, picks[h][p]) for p in problems if p not in timed_out]
        summary = savings and SavingsSummary(
            sum(savings, Fraction(0)) / len(savings),
            *(plain_quantile(savings, Fraction(k, 4)) for k in (2, 1, 3)),
            len(savings),
        )
        avoided = sum(p in timed_out and cells[h][p] is not None for p in problems)
        per[h] = HeuristicStats(best, Fraction(100 * best, len(problems)), summary or None, avoided)
    return BenchReport(per, len(problems), len(problems) - len(timed_out), len(timed_out))


class TestSavings:
    def test_worked_example(self):
        saving = savings_of(SIX, {"p1": ("x", "z", "y")})  # pick = 20
        assert saving.mean_pct == Fraction(15 * 100, 35)  # 42.857...%
        assert saving.n_problems == 1

    def test_pick_equal_to_average(self):
        table = small_table([("p1", "x>y", 30, 0), ("p1", "y>x", 30, 0)])
        assert savings_of(table, {"p1": ("x", "y")}).mean_pct == 0

    def test_worst_pick_is_negative(self):
        saving = savings_of(SIX, {"p1": ("z", "y", "x")})  # pick = 60
        assert saving.mean_pct == Fraction(-25 * 100, 35)  # -71.428...%

    def test_timeout_problems_skipped(self):
        table = small_table([("p1", "x>y", 5, 0), ("p1", "y>x", "", 1),
                             ("p2", "x>y", 30, 0), ("p2", "y>x", 10, 0)])
        assert savings_of(table, {"p1": ("x", "y")}) is None
        saving = savings_of(table, {"p1": ("x", "y"), "p2": ("y", "x")})
        assert (saving.n_problems, saving.mean_pct) == (1, 50)  # p2 alone: 10 against 20

    def test_best_ordering_dominates_any_pick(self):
        savings = [savings_of(SIX, {"p1": o}).mean_pct for o in SIX_ORDERINGS]
        for saving in savings:
            assert saving <= max(savings)
            assert saving < 100

    def test_unknown_problem(self):
        with pytest.raises(CellTableError, match="^no cell-count row for problem 'p2', ordering x>y>z$"):
            savings_of(SIX, {"p2": ("x", "y", "z")})

    def test_matches_the_old_formula_on_the_fixture(self):
        table = load_cell_table((FIXTURES / "stats_cells.csv").read_bytes())
        finished = [p for p in table.index if table.totals[p][1] is not None]
        for pick in FIXTURE_PICKS.values():
            saving = savings_of(table, pick)
            assert saving.n_problems == len(finished) == 8
            assert saving == summarize([old_saving(table, p, pick[p]) for p in finished])

    @given(tables_and_picks())
    def test_matches_the_old_formula(self, table_and_pick):
        table, pick = table_and_pick
        expected = [old_saving(table, p, o) for p, o in pick.items() if None not in table.index[p].values()]
        saving = savings_of(table, pick)
        assert saving == (summarize(expected) if expected else None)
        if saving:
            assert all(type(v) is Fraction for v in (saving.mean_pct, saving.median_pct,
                                                     saving.q1_pct, saving.q3_pct))

    def test_mean_over_all_orderings_is_zero(self):
        assert sum(savings_of(SIX, {"p1": o}).mean_pct for o in SIX_ORDERINGS) == 0


class TestComputeReport:
    def test_picks_as_variable_tuples(self):
        names = {h: {"p1": ("x", "z", "y")} for h in ("brown", "sotd", "ndrr")}
        variables = {h: {"p1": (Variable("x"), Variable("z"), Variable("y"))} for h in names}
        report = compute_report(SIX, variables)
        assert report == compute_report(SIX, names)
        assert report.per_heuristic["sotd"].savings.mean_pct == Fraction(15 * 100, 35)

    def test_pick_for_absent_problem(self):
        picks = {h: {"p2": ("x", "y", "z")} for h in ("brown", "sotd", "ndrr")}
        with pytest.raises(CellTableError, match="no cell-count row"):
            compute_report(SIX, picks)

    def test_no_common_problem(self):
        picks = {"brown": {"p1": ("x", "y", "z")}, "sotd": {"p2": ("x", "y", "z")}}
        with pytest.raises(CellTableError, match="^no problems to report on$"):
            compute_report(SIX, picks)

    def test_no_heuristics(self):
        with pytest.raises(CellTableError, match="^no problems to report on$"):
            compute_report(SIX, {})

    @given(tables_and_picks(n_picks=3))
    def test_matches_a_scan_of_the_rows(self, table_and_picks):
        table, *picks = table_and_picks
        picks = dict(zip(("brown", "sotd", "ndrr"), picks))
        assert compute_report(table, picks) == scan_report(table, picks)


class TestSummarize:
    def test_interpolation_at_integer_positions(self):
        s = summarize([Fraction(v) for v in (0, 10, 20, 30, 40)])
        assert (s.mean_pct, s.median_pct, s.q1_pct, s.q3_pct) == (20, 20, 10, 30)

    def test_singleton(self):
        s = summarize([Fraction(5)])
        assert (s.mean_pct, s.median_pct, s.q1_pct, s.q3_pct) == (5, 5, 5, 5)

    def test_midpoint_interpolation(self):
        s = summarize([Fraction(0), Fraction(100)])
        assert (s.mean_pct, s.median_pct, s.q1_pct, s.q3_pct) == (50, 50, 25, 75)

    def test_constant_list(self):
        s = summarize([Fraction(7)] * 9)
        assert (s.mean_pct, s.median_pct, s.q1_pct, s.q3_pct) == (7, 7, 7, 7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            summarize([])

    def test_ints_as_fractions(self):
        ints = [40, -3, 10, 7, 7, 0]
        s = summarize(ints)
        assert s == summarize([Fraction(v) for v in ints])
        assert all(type(v) is Fraction for v in (s.mean_pct, s.median_pct, s.q1_pct, s.q3_pct))

    def test_float_ties_sort_exactly(self):
        # the three values near 1 share the float key 1.0
        eps = Fraction(1, 2**70)
        values = [1 + eps, 2, Fraction(1), -1, 1 - eps, 0, 1 + eps, 1]
        s = summarize(values)
        assert (s.median_pct, s.q1_pct, s.q3_pct) == tuple(
            plain_quantile(values, Fraction(k, 4)) for k in (2, 1, 3))
        assert (s.q1_pct, s.q3_pct) == (Fraction(3, 4) * (1 - eps), 1 + eps)

    def test_floats_sort_plainly(self):
        # a float has no numerator, so it takes the plain sort
        assert summarize([2.5, 1.5]) == SavingsSummary(2.0, 2.0, 1.75, 2.25, 2)

    def test_beyond_the_float_range(self):
        s = summarize([Fraction(10**400), Fraction(-1), 3])
        assert (s.median_pct, s.q1_pct, s.q3_pct) == (3, 1, Fraction(10**400 + 3, 2))

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-2**20, 2**20), st.integers(60, 80)),
                    min_size=1, max_size=40))
    def test_clustered_values_match_plain_sort(self, parts):
        # c + d/2^k: large numerators whose floats often tie at c
        values = [Fraction(c * 2**k + d, 2**k) for c, d, k in parts]
        s = summarize(values)
        assert (s.median_pct, s.q1_pct, s.q3_pct) == tuple(
            plain_quantile(values, Fraction(k, 4)) for k in (2, 1, 3))
        assert s.mean_pct == sum(values, Fraction(0)) / len(values)

    def test_matches_statistics_module(self):
        data = [Fraction(3, 7), Fraction(-5), Fraction(12), Fraction(1, 3),
                Fraction(8), Fraction(-2, 9), Fraction(4)]
        s = summarize(data)
        floats = sorted(float(v) for v in data)
        q1, med, q3 = statistics.quantiles(floats, n=4, method="inclusive")
        assert float(s.mean_pct) == pytest.approx(statistics.mean(floats), rel=1e-12)
        assert float(s.median_pct) == pytest.approx(med, rel=1e-12)
        assert float(s.q1_pct) == pytest.approx(q1, rel=1e-12)
        assert float(s.q3_pct) == pytest.approx(q3, rel=1e-12)


class TestTimeoutAvoidance:
    TABLE_ROWS = [
        ("p1", "x>y", 5, 0), ("p1", "y>x", "", 1),   # one timeout
        ("p2", "x>y", 5, 0), ("p2", "y>x", 6, 0),    # no timeouts
    ]

    def test_pick_on_finished_ordering_counted(self):
        table = small_table(self.TABLE_ROWS)
        assert avoidance(table, {"p1": ("x", "y"), "p2": ("x", "y")}) == 1

    def test_pick_on_timed_out_ordering_not_counted(self):
        table = small_table(self.TABLE_ROWS)
        assert avoidance(table, {"p1": ("y", "x"), "p2": ("x", "y")}) == 0

    def test_no_timeout_problems_excluded(self):
        table = small_table(self.TABLE_ROWS[2:])
        assert avoidance(table, {"p2": ("x", "y")}) == 0

    def test_problem_absent_from_picks(self):
        # p1 timed out somewhere but no heuristic picked for it: it counts nowhere
        report = compute_report(small_table(self.TABLE_ROWS), {"brown": {"p2": ("x", "y")}})
        assert (report.n_problems, report.n_no_timeout, report.n_some_timeout) == (1, 1, 0)
        assert report.per_heuristic["brown"].timeout_avoidance_count == 0


class TestFixtureRegression:
    """Frozen expectations for the committed synthetic cell-count CSV.

    All values below were computed by hand from the fixture rows:
    12 problems, 8 of them timeout-free, ties on q01/q02/q03/q05/q07/q08/q10,
    timeouts on q09..q12 (q11 times out on every ordering).
    """

    @pytest.fixture()
    def table(self):
        return load_cell_table((FIXTURES / "stats_cells.csv").read_bytes())

    def test_best_pick_counts(self, table):
        counts = best_counts(table, FIXTURE_PICKS)
        # Comparable problems: q01..q08 and q10 (q09/q12 have a timed-out
        # pick, q11 times out everywhere).
        assert counts == {"brown": 7, "sotd": 6, "ndrr": 6}
        # Tie crediting pushes the percentage sum past 100%.
        assert sum(counts.values()) > 12

    def test_savings_summaries(self, table):
        report = compute_report(table, FIXTURE_PICKS)
        assert report.n_problems == 12
        assert report.n_no_timeout == 8
        assert report.n_some_timeout == 4

        expected = {
            # (mean, median, q1, q3) over the eight timeout-free problems
            "brown": (Fraction(430, 24), Fraction(100, 3), Fraction(-25, 3), Fraction(50)),
            "sotd": (Fraction(130, 24), Fraction(50, 3), Fraction(-75, 2), Fraction(75, 2)),
            "ndrr": (Fraction(430, 24), Fraction(100, 3), Fraction(-25, 3), Fraction(50)),
        }
        for h, (mean, median, q1, q3) in expected.items():
            s = report.per_heuristic[h].savings
            assert s.n_problems == 8
            assert abs(float(s.mean_pct) / float(mean) - 1) < 1e-9
            assert abs(float(s.median_pct) / float(median) - 1) < 1e-9
            assert abs(float(s.q1_pct) / float(q1) - 1) < 1e-9
            assert abs(float(s.q3_pct) / float(q3) - 1) < 1e-9

    def test_savings_match_statistics_oracle(self, table):
        report = compute_report(table, FIXTURE_PICKS)
        finished = [p for p in table.index if table.totals[p][1] is not None]
        for h, pick in FIXTURE_PICKS.items():
            values = sorted(float(old_saving(table, p, pick[p])) for p in finished)
            s = report.per_heuristic[h].savings
            q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
            assert float(s.mean_pct) == pytest.approx(statistics.mean(values), rel=1e-9)
            assert float(s.median_pct) == pytest.approx(med, rel=1e-9)
            assert float(s.q1_pct) == pytest.approx(q1, rel=1e-9)
            assert float(s.q3_pct) == pytest.approx(q3, rel=1e-9)

    def test_timeout_avoidance(self, table):
        per = compute_report(table, FIXTURE_PICKS).per_heuristic
        assert {h: s.timeout_avoidance_count for h, s in per.items()} == {"brown": 2, "sotd": 3, "ndrr": 2}


class TestEmitReport:
    @pytest.fixture()
    def report(self):
        table = load_cell_table((FIXTURES / "stats_cells.csv").read_bytes())
        return compute_report(table, FIXTURE_PICKS)

    def test_json_schema(self, report):
        payload = json.loads(emit_report(report, "json"))
        assert set(payload) == {"per_heuristic", "totals"}
        assert set(payload["per_heuristic"]) == {"brown", "sotd", "ndrr"}
        for stats_obj in payload["per_heuristic"].values():
            assert set(stats_obj) == {
                "best_pick_count", "best_pick_pct", "mean_saving_pct",
                "median_saving_pct", "q1_pct", "q3_pct",
                "timeout_avoidance_count",
            }
        assert payload["totals"] == {
            "n_problems": 12, "n_no_timeout": 8, "n_some_timeout": 4,
        }

    def test_text_two_decimal_percentages(self, report):
        text = emit_report(report, "text").decode()
        assert "58.33%" in text  # brown best-pick: 7 of 12
        assert "50.00%" in text

    def test_csv_round_trips(self, report):
        rows = list(csv.reader(io.StringIO(emit_report(report, "csv").decode())))
        assert rows[0][0] == "heuristic"
        assert [r[0] for r in rows[1:]] == ["brown", "sotd", "ndrr"]
        assert all(len(r) == len(rows[0]) for r in rows)

    def test_byte_determinism(self, report):
        for fmt in ("text", "json", "csv"):
            assert emit_report(report, fmt) == emit_report(report, fmt)

    @pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json"), ("csv", "csv")])
    def test_bytes_match_pinned_files(self, report, fmt, ext):
        # stats_report.* are frozen bytes: regenerate them only for an
        # intended change of the report format
        assert emit_report(report, fmt) == (FIXTURES / f"stats_report.{ext}").read_bytes()

    def test_bytes_without_savings(self):
        table = small_table([("p1", "x>y", 5, 0), ("p1", "y>x", "", 1)])
        report = compute_report(table, {"sotd": {"p1": ("y", "x")}, "brown": {"p1": ("x", "y")}})
        saving_rows = [f"  {label:<22}{'n/a':>10}{'n/a':>10}" for label in ("mean", "median", "q1", "q3")]
        header = " " * 24 + f"{'brown':>10}{'sotd':>10}"
        assert emit_report(report, "text").decode().splitlines() == [
            "problems: 1 (no timeout: 0, some timeout: 1)", "",
            "best pick", header,
            "  count                          0         0",
            "  percent                    0.00%     0.00%", "",
            "cell count saving vs average (over 0 timeout-free problems)", header,
            *saving_rows, "",
            "timeout avoidance (over 1 problems with a timeout)", header,
            "  count                          1         0",
        ]
        assert emit_report(report, "csv").decode().splitlines()[1:] == [
            "brown,0,0.000000,,,,,1", "sotd,0,0.000000,,,,,0",
        ]
        payload = json.loads(emit_report(report, "json"))
        assert payload["per_heuristic"]["sotd"] == {
            "best_pick_count": 0, "best_pick_pct": 0.0, "mean_saving_pct": None,
            "median_saving_pct": None, "q1_pct": None, "q3_pct": None,
            "timeout_avoidance_count": 0,
        }

    def test_unknown_format(self, report):
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(report, "xml")
