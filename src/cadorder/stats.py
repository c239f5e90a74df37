"""Benchmark statistics over externally supplied per-ordering cell counts.

The cell counts themselves come from an external CAD implementation and are
ingested as CSV.  This module reproduces the comparison methodology: how often
each heuristic picks the most competitive ordering, the percentage cell-count
saving of each pick relative to the per-problem average over all orderings
(on problems where nothing timed out), and how often a pick avoids a timeout
(on problems where some ordering timed out).

Orderings are handled as tuples of variable names here (a ``Variable`` is its
name, so a chosen ordering joins as it is); the CSV wire format joins them
with '>' in reverse-projection order (``x>y>z``).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from math import floor
from typing import Mapping, Sequence

from .poly import _int_of_digits

CSV_HEADER = ["problem", "ordering", "cells", "timeout"]

Ordering = tuple[str, ...]
Picks = Mapping[str, Ordering]  # problem_id -> ordering


class CellTableError(ValueError):
    """Cell-count table fails validation or a pick does not join against it."""


@dataclass(frozen=True)
class CellCountRow:
    problem_id: str
    ordering: Ordering
    cells: int | None  # None iff timeout
    timeout: bool


@dataclass(frozen=True)
class CellCountTable:
    rows: tuple[CellCountRow, ...]
    # problem_id -> ordering -> row, built once by load_cell_table
    index: Mapping[str, Mapping[Ordering, CellCountRow]] = field(repr=False, compare=False)

    def problems(self) -> list[str]:
        return sorted(self.index)

    def rows_for(self, problem_id: str) -> list[CellCountRow]:
        return list(self.index.get(problem_id, {}).values())

    def lookup(self, problem_id: str, ordering: Ordering) -> CellCountRow:
        row = self.index.get(problem_id, {}).get(ordering)
        if row is None:
            raise CellTableError(
                f"no cell-count row for problem {problem_id!r}, "
                f"ordering {'>'.join(ordering)}"
            )
        return row

    def has_timeout(self, problem_id: str) -> bool:
        return any(r.timeout for r in self.rows_for(problem_id))


def load_cell_table(data: bytes | str) -> CellCountTable:
    """Parse and validate the cell-count CSV.

    Requires the exact header ``problem,ordering,cells,timeout``; per problem,
    every permutation of its variable set must appear exactly once, and a
    cell count is present exactly when timeout is 0.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise CellTableError(f"line {line}: invalid UTF-8 byte 0x{data[exc.start]:02x}") from None
    reader = csv.reader(io.StringIO(data))
    try:
        header = next(reader)
    except StopIteration:
        raise CellTableError("missing header")
    if header != CSV_HEADER:
        raise CellTableError(
            f"bad header {','.join(header)!r}; expected {','.join(CSV_HEADER)!r}"
        )
    rows: list[CellCountRow] = []
    index: dict[str, dict[Ordering, CellCountRow]] = {}
    for lineno, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != 4:
            raise CellTableError(f"line {lineno}: expected 4 fields")
        problem, ordering_text, cells_text, timeout_text = record
        ordering = tuple(ordering_text.split(">"))
        if not problem or "" in ordering:
            raise CellTableError(f"line {lineno}: empty problem or ordering field")
        if len(set(ordering)) != len(ordering):
            raise CellTableError(f"line {lineno}: repeated variable in ordering {ordering_text!r}")
        if timeout_text not in ("0", "1"):
            raise CellTableError(f"line {lineno}: timeout must be 0 or 1")
        timeout = timeout_text == "1"
        if timeout:
            if cells_text != "":
                raise CellTableError(
                    f"line {lineno}: cell count present on a timed-out row"
                )
            cells = None
        else:
            digits = cells_text.isascii() and cells_text.isdigit()
            cells = _int_of_digits(cells_text) if digits else 0
            if cells <= 0:
                raise CellTableError(
                    f"line {lineno}: cells must be a positive integer"
                )
        prows = index.setdefault(problem, {})
        if ordering in prows:
            raise CellTableError(
                f"line {lineno}: duplicate row for problem {problem!r}, "
                f"ordering {ordering_text!r}"
            )
        prows[ordering] = CellCountRow(problem, ordering, cells, timeout)
        rows.append(prows[ordering])

    for problem, prows in index.items():
        variables = sorted(next(iter(prows)))
        if set(prows) != {tuple(p) for p in permutations(variables)}:
            raise CellTableError(f"incomplete orderings for problem {problem!r}")
    return CellCountTable(tuple(rows), index)


def best_pick_counts(
    table: CellCountTable, picks: Mapping[str, Picks]
) -> dict[str, int]:
    """How often each heuristic's pick is the most competitive of them all.

    Only problems where every heuristic's pick finished are compared; ties
    credit every tying heuristic, so counts may sum to more than the number
    of problems.
    """
    heuristics = sorted(picks)
    problems = sorted(set.intersection(*map(set, picks.values()))) if picks else []
    counts = {h: 0 for h in heuristics}
    for problem in problems:
        cells = [table.lookup(problem, picks[h][problem]).cells for h in heuristics]
        if None in cells:  # a pick timed out
            continue
        best = min(cells)
        for h, c in zip(heuristics, cells):
            counts[h] += c == best
    return counts


def savings_percent(table: CellCountTable, pick: Picks) -> dict[str, Fraction]:
    """Per-problem saving of the pick against the all-orderings average.

    Only problems where no ordering timed out are evaluated.  Positive means
    the pick beat the average.
    """
    out: dict[str, Fraction] = {}
    for problem in sorted(pick):
        prows = table.rows_for(problem)
        if not prows:
            raise CellTableError(f"unknown problem {problem!r}")
        if any(r.timeout for r in prows):
            continue
        total, cells = sum(r.cells for r in prows), table.lookup(problem, pick[problem]).cells
        out[problem] = Fraction(100 * (total - len(prows) * cells), total)
    return out


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
    ordered = sorted(values)
    mean = sum(ordered, Fraction(0)) / len(ordered)
    return SavingsSummary(
        mean_pct=mean,
        median_pct=_quantile(ordered, Fraction(1, 2)),
        q1_pct=_quantile(ordered, Fraction(1, 4)),
        q3_pct=_quantile(ordered, Fraction(3, 4)),
        n_problems=len(ordered),
    )


def timeout_avoidance(table: CellCountTable, pick: Picks) -> int:
    """Among problems where some ordering timed out, how many picks finished."""
    count = 0
    for problem in sorted(pick):
        if not table.has_timeout(problem):
            continue
        if not table.lookup(problem, pick[problem]).timeout:
            count += 1
    return count


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
    canonical = ["brown", "sotd", "ndrr"]
    return [h for h in canonical if h in names] + sorted(
        h for h in names if h not in canonical
    )


def compute_report(table: CellCountTable, picks: Mapping[str, Picks]) -> BenchReport:
    """Join heuristic picks against the cell table and compute all statistics."""
    heuristics = _heuristic_order(picks)
    problems = sorted(set.intersection(*map(set, picks.values()))) if picks else []
    if not problems:
        raise CellTableError("no problems to report on")
    for h in heuristics:
        for problem in problems:
            table.lookup(problem, picks[h][problem])  # validates the join
    n_some_timeout = sum(1 for p in problems if table.has_timeout(p))
    n_no_timeout = len(problems) - n_some_timeout
    best = best_pick_counts(table, picks)
    per: dict[str, HeuristicStats] = {}
    for h in heuristics:
        pick = {p: picks[h][p] for p in problems}
        savings = savings_percent(table, pick)
        per[h] = HeuristicStats(
            best_pick_count=best[h],
            best_pick_pct=Fraction(best[h] * 100, len(problems)),
            savings=summarize(list(savings.values())) if savings else None,
            timeout_avoidance_count=timeout_avoidance(table, pick),
        )
    return BenchReport(per, len(problems), n_no_timeout, n_some_timeout)


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
