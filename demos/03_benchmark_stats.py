"""Run the benchmark harness end to end on the committed fixtures.

Cell counts come from an external CAD implementation; this package only
selects orderings and computes the comparison statistics.  Equivalent to:

    cadorder bench --problems tests/fixtures/problems \\
                   --cells tests/fixtures/bench_cells.csv
"""

from pathlib import Path

from cadorder import choose, compute_report, emit_report, load_cell_table, parse_system

fixtures = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

picks = {h: {} for h in ("brown", "sotd", "ndrr")}
for path in sorted((fixtures / "problems").glob("*.poly")):
    system = parse_system(path.read_text())
    for heuristic in picks:
        # a Variable is its name, so the chosen tuple joins the table as it is
        picks[heuristic][path.stem] = choose(system, heuristic).chosen

table = load_cell_table((fixtures / "bench_cells.csv").read_bytes())
report = compute_report(table, picks)
print(emit_report(report, "text").decode(), end="")
