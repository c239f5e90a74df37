"""Benchmark statistics over externally supplied per-ordering cell counts.

The cell counts themselves come from an external CAD implementation and are
ingested as CSV.  This module reproduces the comparison methodology: how often
each heuristic picks the most competitive ordering, the percentage cell-count
saving of each pick relative to the per-problem average over all orderings
(on problems where nothing timed out), and how often a pick avoids a timeout
(on problems where some ordering timed out).

Orderings are handled as tuples of variable names here (a ``Variable`` is its
name, so a chosen ordering joins as it is); the CSV wire format joins them
with '>' in reverse-projection order (``x>y>z``).  A table is read in one
pass into one index, problem -> ordering -> cell count (None for a timeout),
which is all it stores; its per-problem totals are computed once, and its
rows are built from the index on demand.  ``compute_report`` makes one pass
over the problems every heuristic picked for, and ``summarize`` sorts by an
exact float key.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import floor
from typing import Mapping, NamedTuple, Sequence

from .heuristics import HEURISTICS
from .parsing import ParseError, _decode
from .poly import _int_of_digits

CSV_HEADER = ["problem", "ordering", "cells", "timeout"]

Ordering = tuple[str, ...]
Picks = Mapping[str, Ordering]  # problem_id -> ordering


class CellTableError(ValueError):
    """Cell-count table fails validation or a pick does not join against it."""


class CellCountRow(NamedTuple):
    problem_id: str
    ordering: Ordering
    cells: int | None  # None iff timeout
    timeout: bool


@dataclass(frozen=True)
class CellCountTable:
    # problem_id -> ordering -> cell count, None for a timeout; problems and
    # their orderings in order of first appearance
    index: Mapping[str, Mapping[Ordering, int | None]]

    @property
    def rows(self) -> tuple[CellCountRow, ...]:
        """The index flattened, grouped by problem; built anew on each access."""
        return tuple(CellCountRow(p, o, c, c is None) for p, prows in self.index.items()
                     for o, c in prows.items())

    @cached_property
    def totals(self) -> dict[str, tuple[int, int | None]]:
        """problem_id -> (number of orderings, total cells or None if one timed out)."""
        return {p: (len(c), None if None in c.values() else sum(c.values()))
                for p, c in self.index.items()}

    def lookup(self, problem_id: str, ordering: Ordering) -> int | None:
        """The cell count of one row, None if it timed out."""
        try:
            return self.index[problem_id][ordering]
        except KeyError:
            raise CellTableError(
                f"no cell-count row for problem {problem_id!r}, "
                f"ordering {'>'.join(ordering)}"
            ) from None


def load_cell_table(data: bytes | str) -> CellCountTable:
    """Parse and validate the cell-count CSV into one index of cell counts.

    Requires the exact header ``problem,ordering,cells,timeout``; per problem,
    every permutation of its variable set must appear exactly once, and a
    cell count is present exactly when timeout is 0.
    """
    if isinstance(data, bytes):
        try:
            data = _decode(data)
        except ParseError as exc:  # its lines are the lines csv counts
            raise CellTableError(f"line {exc.line}: {exc.reason}") from None
    reader = csv.reader(io.StringIO(data, newline=""))
    index: dict[str, dict[Ordering, int | None]] = {}
    checked: dict[str, Ordering] = {}  # ordering text -> its tuple, checked once
    try:  # csv's own errors: a NUL byte or an overlong field
        header = next(reader, None)
        if header != CSV_HEADER:
            raise CellTableError("missing header" if header is None else
                                 f"bad header {','.join(header)!r}; expected {','.join(CSV_HEADER)!r}")
        for record in reader:
            if not record:
                continue
            lineno = reader.line_num  # the record's last physical line
            if len(record) != 4:
                raise CellTableError(f"line {lineno}: expected 4 fields")
            problem, ordering_text, cells_text, timeout_text = record
            ordering = checked.get(ordering_text)
            if ordering is None or not problem:  # a new text, or a row that fails anyway
                ordering = checked[ordering_text] = tuple(ordering_text.split(">"))
                if not problem or "" in ordering:
                    raise CellTableError(f"line {lineno}: empty problem or ordering field")
                if len(set(ordering)) != len(ordering):
                    raise CellTableError(f"line {lineno}: repeated variable in ordering {ordering_text!r}")
            if timeout_text not in ("0", "1"):
                raise CellTableError(f"line {lineno}: timeout must be 0 or 1")
            if timeout_text == "1":
                if cells_text != "":
                    raise CellTableError(f"line {lineno}: cell count present on a timed-out row")
                cells = None
            else:
                digits = cells_text.isascii() and cells_text.isdigit()
                cells = _int_of_digits(cells_text) if digits else 0
                if cells <= 0:
                    raise CellTableError(f"line {lineno}: cells must be a positive integer")
            prows = index.setdefault(problem, {})
            if ordering in prows:
                raise CellTableError(
                    f"line {lineno}: duplicate row for problem {problem!r}, "
                    f"ordering {ordering_text!r}"
                )
            prows[ordering] = cells
    except csv.Error as exc:
        raise CellTableError(f"line {reader.line_num}: {exc}") from None

    expected: dict[Ordering, set[Ordering]] = {}  # sorted variables -> their permutations
    for problem, prows in index.items():
        variables = tuple(sorted(next(iter(prows))))
        if variables not in expected:
            expected[variables] = set(permutations(variables))
        if prows.keys() != expected[variables]:
            raise CellTableError(f"incomplete orderings for problem {problem!r}")
    return CellCountTable(index)


@dataclass(frozen=True)
class SavingsSummary:
    mean_pct: Fraction
    median_pct: Fraction
    q1_pct: Fraction
    q3_pct: Fraction
    n_problems: int


def _quantile(sorted_values: Sequence[Fraction], q: Fraction) -> Fraction:
    """Linear interpolation at position (n-1)*q of the sorted sample."""
    pos = (len(sorted_values) - 1) * q
    lo = floor(pos)
    frac = pos - lo
    if frac == 0:
        return Fraction(sorted_values[lo])
    return sorted_values[lo] + (sorted_values[lo + 1] - sorted_values[lo]) * frac


def summarize(values: Sequence[Fraction]) -> SavingsSummary:
    """Exact mean, median and quartiles of a nonempty sample."""
    if not values:
        raise ValueError("empty input")
    try:  # int true division rounds correctly: a monotone float, exact on ties
        ordered = sorted(values, key=lambda x: (x.numerator / x.denominator, x))
    except (OverflowError, AttributeError):  # beyond the float range, or not rational
        ordered = sorted(values)
    mean = sum(ordered, Fraction(0)) / len(ordered)
    return SavingsSummary(
        mean_pct=mean,
        median_pct=_quantile(ordered, Fraction(1, 2)),
        q1_pct=_quantile(ordered, Fraction(1, 4)),
        q3_pct=_quantile(ordered, Fraction(3, 4)),
        n_problems=len(ordered),
    )


# -- report assembly ---------------------------------------------------------


@dataclass(frozen=True)
class HeuristicStats:
    best_pick_count: int
    best_pick_pct: Fraction
    savings: SavingsSummary | None  # None when no problem is timeout-free
    timeout_avoidance_count: int


@dataclass(frozen=True)
class BenchReport:
    per_heuristic: dict[str, HeuristicStats]
    n_problems: int
    n_no_timeout: int
    n_some_timeout: int


def _heuristic_order(names) -> list[str]:
    return [h for h in HEURISTICS if h in names] + sorted(
        h for h in names if h not in HEURISTICS
    )


def compute_report(table: CellCountTable, picks: Mapping[str, Picks]) -> BenchReport:
    """Join heuristic picks against the cell table and compute all statistics
    in one pass over the problems every heuristic picked for."""
    heuristics = sorted(picks)  # the order in which picks are looked up
    problems = sorted(set.intersection(*map(set, picks.values()))) if picks else []
    if not problems:
        raise CellTableError("no problems to report on")
    best, avoided = dict.fromkeys(heuristics, 0), dict.fromkeys(heuristics, 0)
    savings: dict[str, list[Fraction]] = {h: [] for h in heuristics}
    n_some_timeout = 0
    for problem in problems:
        cells = [table.lookup(problem, picks[h][problem]) for h in heuristics]
        n, total = table.totals[problem]  # a known problem once its picks are found
        n_some_timeout += total is None
        low = 0 if None in cells else min(cells)  # cells are positive: 0 is no one's best
        for h, c in zip(heuristics, cells):
            best[h] += c == low  # ties credit every tying heuristic
            if total is None:
                avoided[h] += c is not None
            else:
                savings[h].append(Fraction(100 * (total - n * c), total))
    per = {h: HeuristicStats(best[h], Fraction(best[h] * 100, len(problems)),
                             summarize(savings[h]) if savings[h] else None, avoided[h])
           for h in _heuristic_order(picks)}
    return BenchReport(per, len(problems), len(problems) - n_some_timeout, n_some_timeout)


# The seven figures per heuristic: JSON keys, CSV columns and text rows.
_FIGURES = (
    "best_pick_count", "best_pick_pct", "mean_saving_pct", "median_saving_pct",
    "q1_pct", "q3_pct", "timeout_avoidance_count",
)


def _figures(st: HeuristicStats) -> tuple:
    """Values of _FIGURES: ints for counts, Fractions (None without savings)."""
    s = st.savings
    saving = (s.mean_pct, s.median_pct, s.q1_pct, s.q3_pct) if s else (None,) * 4
    return (st.best_pick_count, st.best_pick_pct, *saving, st.timeout_avoidance_count)


def _pct(x: Fraction | None) -> str:
    return "n/a" if x is None else f"{float(x):.2f}%"


def emit_report(report: BenchReport, format: str = "text") -> bytes:
    """Serialize a report as aligned text, JSON, or one CSV row per heuristic."""
    heuristics = _heuristic_order(report.per_heuristic)
    values = {h: _figures(report.per_heuristic[h]) for h in heuristics}
    if format == "text":
        lines = [
            f"problems: {report.n_problems} "
            f"(no timeout: {report.n_no_timeout}, "
            f"some timeout: {report.n_some_timeout})",
        ]
        width = max(max(len(h) for h in heuristics) + 2, 10)
        header = " " * 24 + "".join(f"{h:>{width}}" for h in heuristics)
        for title, first, labels in (
            ("best pick", 0, ("count", "percent")),
            (f"cell count saving vs average (over {report.n_no_timeout} timeout-free problems)",
             2, ("mean", "median", "q1", "q3")),
            (f"timeout avoidance (over {report.n_some_timeout} problems with a timeout)",
             6, ("count",)),
        ):
            lines += ["", title, header]
            for i, label in enumerate(labels, first):
                cells = (values[h][i] for h in heuristics)
                lines.append(f"  {label:<22}" + "".join(
                    f"{str(v) if isinstance(v, int) else _pct(v):>{width}}" for v in cells
                ))
        return ("\n".join(lines) + "\n").encode("utf-8")

    if format == "json":
        payload = {
            "per_heuristic": {
                h: {
                    name: v if v is None or isinstance(v, int) else float(v)
                    for name, v in zip(_FIGURES, values[h])
                }
                for h in heuristics
            },
            "totals": {
                "n_problems": report.n_problems,
                "n_no_timeout": report.n_no_timeout,
                "n_some_timeout": report.n_some_timeout,
            },
        }
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")

    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["heuristic", *_FIGURES])
        for h in heuristics:
            writer.writerow([h, *(
                "" if v is None else v if isinstance(v, int) else f"{float(v):.6f}"
                for v in values[h]
            )])
        return buf.getvalue().encode("utf-8")

    raise ValueError(f"unknown report format {format!r}")
