import csv
import io
import json
import statistics
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cadorder import (
    CellTableError,
    Variable,
    best_pick_counts,
    compute_report,
    emit_report,
    load_cell_table,
    savings_percent,
    summarize,
    timeout_avoidance,
)

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


class TestLoad:
    def test_six_rows_one_problem(self):
        assert SIX.problems() == ["p1"]
        assert len(SIX.rows) == 6

    def test_timeout_row_with_empty_cells(self):
        table = small_table([("p1", "x>y", 5, 0), ("p1", "y>x", "", 1)])
        assert table.lookup("p1", ("y", "x")).timeout

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
        assert table.lookup("p1", ("x",)).cells == 10**4999 + 7

    def test_undecodable_byte_names_line(self):
        with pytest.raises(CellTableError, match=r"^line 3: invalid UTF-8 byte 0xe9$"):
            load_cell_table(b"problem,ordering,cells,timeout\np1,x>y,5,0\np1,y>x,5\xe9,0\n")

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

    @pytest.mark.parametrize("cells", ["\u00b2", "\u0663"], ids=["superscript-two", "arabic-indic-three"])
    def test_non_ascii_digit_cells(self, cells):
        with pytest.raises(CellTableError, match="line 3: cells must be a positive integer"):
            small_table([("p1", "x>y", 5, 0), ("p1", "y>x", cells, 0)])


class TestBestPick:
    def pick_table(self):
        return small_table(
            [("p1", "x>y", 20, 0), ("p1", "y>x", 30, 0)]
        )

    def test_no_heuristics(self):
        assert best_pick_counts(self.pick_table(), {}) == {}

    def test_two_way_tie(self):
        table = small_table([("p1", "x>y", 20, 0), ("p1", "y>x", 30, 0)])
        picks = {
            "brown": {"p1": ("x", "y")},
            "sotd": {"p1": ("x", "y")},
            "ndrr": {"p1": ("y", "x")},
        }
        assert best_pick_counts(table, picks) == {"brown": 1, "sotd": 1, "ndrr": 0}

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
        assert best_pick_counts(table, picks) == {"brown": 1, "sotd": 0, "ndrr": 0}

    def test_total_tie_credits_all(self):
        table = small_table([("p1", "x>y", 20, 0), ("p1", "y>x", 20, 0)])
        picks = {h: {"p1": o} for h, o in
                 [("brown", ("x", "y")), ("sotd", ("y", "x")), ("ndrr", ("x", "y"))]}
        assert best_pick_counts(table, picks) == {"brown": 1, "sotd": 1, "ndrr": 1}

    def test_dangling_pick(self):
        with pytest.raises(CellTableError, match="no cell-count row"):
            best_pick_counts(
                small_table([("p1", "x", 5, 0)]),
                {"brown": {"p1": ("y",)}, "sotd": {"p1": ("x",)}, "ndrr": {"p1": ("x",)}},
            )

    def test_missing_pick_raises_beside_a_timed_out_one(self):
        # brown's pick timed out; sotd's pick has no row and is looked up all the same
        table = small_table([("p1", "x>y", "", 1), ("p1", "y>x", 30, 0)])
        picks = {"brown": {"p1": ("x", "y")}, "ndrr": {"p1": ("y", "x")}, "sotd": {"p1": ("y", "z")}}
        with pytest.raises(CellTableError, match="no cell-count row"):
            best_pick_counts(table, picks)


def old_saving(table, problem, ordering):
    """The saving as first written, (avg - cells) / avg * 100 for avg the
    mean cell count over all orderings: the reference for `savings_percent`."""
    prows = table.rows_for(problem)
    avg = Fraction(sum(r.cells for r in prows), len(prows))
    return (avg - table.lookup(problem, ordering).cells) / avg * 100


@st.composite
def tables_and_picks(draw):
    """A cell table of up to four problems over one to three variables, with
    occasional timeouts, and one pick per problem."""
    orderings = list(permutations("xyz"[: draw(st.integers(1, 3))]))
    rows, pick = [], {}
    for i in range(draw(st.integers(1, 4))):
        for o in orderings:
            if draw(st.integers(0, 9)):
                rows.append((f"p{i}", ">".join(o), draw(st.integers(1, 2**70)), 0))
            else:
                rows.append((f"p{i}", ">".join(o), "", 1))
        pick[f"p{i}"] = draw(st.sampled_from(orderings))
    return small_table(rows), pick


class TestSavings:
    def test_worked_example(self):
        saving = savings_percent(SIX, {"p1": ("x", "z", "y")})  # pick = 20
        assert saving["p1"] == Fraction(15 * 100, 35)  # 42.857...%

    def test_pick_equal_to_average(self):
        table = small_table([("p1", "x>y", 30, 0), ("p1", "y>x", 30, 0)])
        assert savings_percent(table, {"p1": ("x", "y")}) == {"p1": Fraction(0)}

    def test_worst_pick_is_negative(self):
        saving = savings_percent(SIX, {"p1": ("z", "y", "x")})  # pick = 60
        assert saving["p1"] == Fraction(-25 * 100, 35)  # -71.428...%

    def test_timeout_problems_skipped(self):
        table = small_table([("p1", "x>y", 5, 0), ("p1", "y>x", "", 1)])
        assert savings_percent(table, {"p1": ("x", "y")}) == {}

    def test_best_ordering_dominates_any_pick(self):
        orderings = [("x", "y", "z"), ("x", "z", "y"), ("y", "x", "z"),
                     ("y", "z", "x"), ("z", "x", "y"), ("z", "y", "x")]
        best = max(
            savings_percent(SIX, {"p1": o})["p1"] for o in orderings
        )
        for o in orderings:
            assert savings_percent(SIX, {"p1": o})["p1"] <= best
            assert savings_percent(SIX, {"p1": o})["p1"] < 100

    def test_unknown_problem(self):
        with pytest.raises(CellTableError, match="unknown problem"):
            savings_percent(SIX, {"p2": ("x", "y", "z")})

    def test_matches_the_old_formula_on_the_fixture(self):
        table = load_cell_table((FIXTURES / "stats_cells.csv").read_bytes())
        for pick in FIXTURE_PICKS.values():
            saving = savings_percent(table, pick)
            assert len(saving) == 8
            assert saving == {p: old_saving(table, p, pick[p]) for p in saving}

    @given(tables_and_picks())
    def test_matches_the_old_formula(self, table_and_pick):
        table, pick = table_and_pick
        expected = {p: old_saving(table, p, o) for p, o in pick.items() if not table.has_timeout(p)}
        saving = savings_percent(table, pick)
        assert saving == expected
        assert all(type(v) is Fraction for v in saving.values())

    def test_mean_over_all_orderings_is_zero(self):
        orderings = [("x", "y", "z"), ("x", "z", "y"), ("y", "x", "z"),
                     ("y", "z", "x"), ("z", "x", "y"), ("z", "y", "x")]
        total = sum(savings_percent(SIX, {"p1": o})["p1"] for o in orderings)
        assert total == 0


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
        assert timeout_avoidance(table, {"p1": ("x", "y"), "p2": ("x", "y")}) == 1

    def test_pick_on_timed_out_ordering_not_counted(self):
        table = small_table(self.TABLE_ROWS)
        assert timeout_avoidance(table, {"p1": ("y", "x"), "p2": ("x", "y")}) == 0

    def test_no_timeout_problems_excluded(self):
        table = small_table(self.TABLE_ROWS[2:])
        assert timeout_avoidance(table, {"p2": ("x", "y")}) == 0


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
        counts = best_pick_counts(table, FIXTURE_PICKS)
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
        for h in FIXTURE_PICKS:
            values = sorted(
                float(v) for v in savings_percent(table, FIXTURE_PICKS[h]).values()
            )
            s = summarize(list(savings_percent(table, FIXTURE_PICKS[h]).values()))
            q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
            assert float(s.mean_pct) == pytest.approx(statistics.mean(values), rel=1e-9)
            assert float(s.median_pct) == pytest.approx(med, rel=1e-9)
            assert float(s.q1_pct) == pytest.approx(q1, rel=1e-9)
            assert float(s.q3_pct) == pytest.approx(q3, rel=1e-9)

    def test_timeout_avoidance(self, table):
        assert timeout_avoidance(table, FIXTURE_PICKS["brown"]) == 2
        assert timeout_avoidance(table, FIXTURE_PICKS["sotd"]) == 3
        assert timeout_avoidance(table, FIXTURE_PICKS["ndrr"]) == 2


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
