"""Outside-in tracing of ``cadorder``: wraps public functions where their
callers look them up, records one span per call and the counters the
benchmark reports per layer.

A span is (name, start, end, parent span index, item id).  Self time is a
span's duration minus the time covered by its direct children and by the
tracer's own bookkeeping done for them.  Nothing in ``cadorder`` is modified
on disk; ``uninstall`` restores every attribute it replaced.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter


def _max_coeff_bits(coeffs) -> int:
    bits = 0
    for c in coeffs:
        n = getattr(c, "numerator", c)
        d = getattr(c, "denominator", 1)
        bits = max(bits, abs(n).bit_length(), d.bit_length())
    return bits


def _poly_key(p):
    return frozenset(p.terms.items())


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent, item)
        self.self_time: dict[str, float] = defaultdict(float)
        self.total_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(int)
        self.item_counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.item: str | None = None
        self.observe_s = 0.0  # time spent in observers, outside every span
        self._distinct: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._covered: list[float] = []
        self._installed: list[tuple] = []

    # -- wrapping --------------------------------------------------------

    def wrap(self, fn, name, observe=None):
        """Wrap fn so each call records a span; ``name`` is a string or a
        function of the call arguments; ``observe(args, result)`` updates
        counters outside the span and outside its parent's self time."""
        spans, stack, covered = self.spans, self._stack, self._covered
        self_time, total_time, calls = self.self_time, self.total_time, self.calls

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            covered.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                children = covered.pop()
                spans[index] = (span_name, start, end, parent, self.item)
                self_time[span_name] += end - start - children
                total_time[span_name] += end - start
                calls[span_name] += 1
                if covered:
                    covered[-1] += end - start
            if observe is not None:
                observe(args, result)
                spent = perf_counter() - end
                self.observe_s += spent
                if covered:
                    covered[-1] += spent
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, cadorder) -> None:
        """Wrap the layer functions of a freshly imported cadorder package,
        in the modules whose code calls them during the workloads."""
        cli, heuristics = cadorder.cli, cadorder.heuristics
        poly, projection = cadorder.poly, cadorder.projection
        stats, univariate = cadorder.stats, cadorder.univariate
        roots = "univariate.count_distinct_real_roots"
        table = [
            (cli, "run", "cli.run", None),
            (cli, "parse_system", "parsing.parse_system", None),
            (cli, "choose", lambda system, heuristic, *a, **k: f"heuristics.choose.{heuristic}", None),
            (heuristics, "full_projection", "projection.full_projection", self._observe_projection),
            (projection, "resultant", "poly.resultant", self._observe_resultant),
            (poly, "resultant", "poly.resultant", self._observe_resultant),
            (projection, "discriminant", "poly.discriminant", self._observe_discriminant),
            (poly, "exact_div", "poly.exact_div", None),
            (projection, "canonicalize", "poly.canonicalize", None),
            (heuristics, "count_distinct_real_roots", roots, self._observe_roots),
            (cli, "count_distinct_real_roots", roots, self._observe_roots),
            (univariate, "squarefree_part", "univariate.squarefree_part", None),
            (stats, "load_cell_table", "stats.load_cell_table", self._observe_table),
            (stats, "compute_report", "stats.compute_report", None),
            (stats, "emit_report", "stats.emit_report", None),
        ]
        for module, attr, name, observe in table:
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, observe))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # -- observers -------------------------------------------------------

    def _count_distinct(self, name: str, key) -> None:
        seen = self._distinct[name]
        if key not in seen:
            seen.add(key)
            self.counters[f"{name}.distinct"] += 1
            self.item_counters[self.item][f"{name}.distinct"] += 1
        self.item_counters[self.item][f"{name}.calls"] += 1

    def _observe_resultant(self, args, result) -> None:
        p, q, v = args
        self._count_distinct("poly.resultant", (self.item, v.name, _poly_key(p), _poly_key(q)))
        c = self.counters
        c["poly.resultant.max_coeff_bits"] = max(
            c["poly.resultant.max_coeff_bits"], _max_coeff_bits(result.terms.values())
        )
        c["poly.resultant.max_out_terms"] = max(c["poly.resultant.max_out_terms"], len(result.terms))

    def _observe_discriminant(self, args, result) -> None:
        p, v = args
        self._count_distinct("poly.discriminant", (self.item, v.name, _poly_key(p)))

    def _observe_projection(self, args, result) -> None:
        c = self.counters
        c["projection.steps"] += len(result.levels) - 1
        c["projection.level_polys"] += sum(len(level) for level in result.levels)
        c["projection.level_terms"] += sum(len(p.terms) for level in result.levels for p in level)
        c["projection.max_degree"] = max(
            [c["projection.max_degree"]]
            + [p.total_degree() for level in result.levels for p in level]
        )

    def _observe_roots(self, args, result) -> None:
        (p,) = args
        c = self.counters
        c["univariate.count_distinct_real_roots.max_degree"] = max(
            c["univariate.count_distinct_real_roots.max_degree"], p.degree
        )
        c["univariate.count_distinct_real_roots.max_coeff_bits"] = max(
            c["univariate.count_distinct_real_roots.max_coeff_bits"], _max_coeff_bits(p.coefficients)
        )

    def _observe_table(self, args, result) -> None:
        self.counters["stats.load_cell_table.rows"] += len(result.rows)

    # -- overhead ----------------------------------------------------------

    def overhead_s(self, per_call: float) -> float:
        """Estimated time the tracer has added so far: ``per_call`` (see
        ``wrapper_cost``) for every span, plus the time spent in observers."""
        return sum(self.calls.values()) * per_call + self.observe_s

    # -- output ----------------------------------------------------------

    def write(self, path, origin: float, extra: dict) -> None:
        """Write every span, times in seconds from ``origin``, plus
        per-item counters and ``extra``, as one JSON document."""
        doc = dict(extra)
        doc["fields"] = ["name", "start", "end", "parent", "item"]
        doc["spans"] = [
            [name, start - origin, end - origin, parent, item]
            for name, start, end, parent, item in self.spans
        ]
        doc["items"] = {item: dict(c) for item, c in self.item_counters.items()}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


def wrapper_cost(calls: int = 20000, rounds: int = 7) -> float:
    """Seconds one traced call takes beyond the call itself, without an
    observer: the median over ``rounds`` of timing a no-op bare and wrapped."""

    def noop():
        return None

    costs = []
    for _ in range(rounds):
        traced = Tracer().wrap(noop, "noop")
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)
