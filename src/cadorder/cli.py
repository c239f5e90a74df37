"""Command-line front end.

Subcommands: analyze, orderings, project, roots, bench.  Exit codes: 0 on
success, 1 for usage errors, 2 for parse errors, 3 for data-consistency
errors in the cell-count table; `run` sets every one of them.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from .heuristics import HEURISTICS, choose, ndrr_value, projections, sotd_value
from .parsing import ParseError, _decode, parse_system
from .poly import PolySystem
from .projection import format_ordering, full_projection, parse_ordering
from .stats import CellTableError, compute_report, emit_report, load_cell_table
from .univariate import count_distinct_real_roots, to_univariate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_DATA = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


def _read_system(path: str) -> PolySystem:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")
    try:
        return parse_system(_decode(data))
    except ParseError as exc:
        raise ParseError(f"{path}: {exc.reason}", exc.line, exc.col) from None


def _cmd_analyze(args, out) -> None:
    system = _read_system(args.file)
    names = HEURISTICS if args.heuristic == "all" else (args.heuristic,)
    records = []
    for h in names:
        r = choose(system, h)  # per_ordering, if any, is in tuple order
        records.append({
            "heuristic": r.heuristic,
            "per_ordering": (
                None
                if r.per_ordering is None
                else {format_ordering(o): v for o, v in r.per_ordering.items()}
            ),
            "candidates": [format_ordering(c) for c in r.candidates],
            "chosen": format_ordering(r.chosen),
        })
    if args.format == "json":
        out.write(json.dumps({"heuristics": records}, indent=2, sort_keys=True) + "\n")
    else:
        for r in records:
            out.write(f"heuristic {r['heuristic']}\n")
            if r["per_ordering"] is not None:
                out.write("  per-ordering:\n")
                for o, v in r["per_ordering"].items():
                    out.write(f"    {o}: {v}\n")
            out.write("  candidates: " + ", ".join(r["candidates"]) + "\n")
            out.write(f"  chosen: {r['chosen']}\n")


def _cmd_orderings(args, out) -> None:
    system = _read_system(args.file)
    rows = [(format_ordering(ps.ordering), sotd_value(ps), ndrr_value(ps)) for ps in projections(system)]
    width = max(len("ordering"), *(len(r[0]) for r in rows))
    for name, sotd, ndrr in [("ordering", "sotd", "ndrr"), *rows]:
        out.write(f"{name:<{width}}  {sotd:>6}  {ndrr:>6}\n")


def _cmd_project(args, out) -> None:
    system = _read_system(args.file)
    try:
        ordering = parse_ordering(args.order)
        ps = full_projection(system, ordering)
    except ValueError as exc:
        raise _UsageError(str(exc))
    for i, level in enumerate(ps.levels):
        out.write(f"level {len(ps.levels) - i}:\n")
        out.writelines(f"{text}\n" for text in sorted(map(str, level)))  # a set, shown in text order


def _cmd_roots(args, out) -> None:
    system = _read_system(args.file)
    for p, position in zip(system.polynomials, system.positions):
        if len(p.variables()) > 1:
            raise ParseError(f"{args.file}: polynomial is not univariate: {p}", *position)
    for p in system.polynomials:
        vs = p.variables()  # a constant has no roots
        out.write(f"{count_distinct_real_roots(to_univariate(p, *vs)) if vs else 0}\n")


def _cmd_bench(args, out) -> None:
    problems_dir = Path(args.problems)
    if not problems_dir.is_dir():
        raise _UsageError(f"not a directory: {args.problems}")
    poly_files = sorted(problems_dir.glob("*.poly"))
    if not poly_files:
        raise _UsageError(f"no .poly files in {args.problems}")
    try:  # the table is checked before any problem is analysed
        table = load_cell_table(Path(args.cells).read_bytes())
    except OSError as exc:
        raise CellTableError(f"cannot read {args.cells}: {exc.strerror}")
    picks: dict[str, dict[str, tuple[str, ...]]] = {h: {} for h in HEURISTICS}
    for path in poly_files:
        args.file = str(path)  # so that run names it in an error
        system = _read_system(args.file)
        for h in HEURISTICS:
            picks[h][path.stem] = choose(system, h).chosen
    report = compute_report(table, picks)
    out.write(emit_report(report, args.format).decode("utf-8"))


@cache  # built on the first run, so importing the module builds no parser
def _build_parser() -> _Parser:
    parser = _Parser(prog="cadorder", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run ordering heuristics on a .poly file")
    p.add_argument("file")
    p.add_argument("--heuristic", choices=list(HEURISTICS) + ["all"], default="all")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("orderings", help="list all orderings with sotd and ndrr values")
    p.add_argument("file")
    p.set_defaults(func=_cmd_orderings)

    p = sub.add_parser("project", help="dump the full projection set for one ordering")
    p.add_argument("file")
    p.add_argument("--order", required=True, metavar="v1>v2>...>vn")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("roots", help="count distinct real roots of univariate inputs")
    p.add_argument("file")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("bench", help="benchmark heuristics against a cell-count CSV")
    p.add_argument("--problems", required=True, metavar="DIR")
    p.add_argument("--cells", required=True, metavar="CSV")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=_cmd_bench)

    return parser


def run(argv: list[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _build_parser().parse_args(argv)
        args.func(args, out)
        return EXIT_OK
    except _UsageError as exc:
        err.write(f"cadorder: usage error: {exc}\n")
        return EXIT_USAGE
    except ParseError as exc:
        err.write(f"cadorder: parse error: {exc}\n")
        return EXIT_PARSE
    except CellTableError as exc:
        err.write(f"cadorder: cell table error: {exc}\n")
        return EXIT_DATA
    except ValueError as exc:  # about the input in args.file, which bench sets per problem
        err.write(f"cadorder: error: {args.file}: {exc}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
