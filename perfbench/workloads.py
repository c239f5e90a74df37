"""The benchmark's workloads: how each pass's inputs are presented to the
program, how one item runs, and what its output must be.

``corpus``, ``hard`` and ``roots`` read the committed ``.poly`` pools under
``data/``.  Seed ``DEFAULT_SEED`` presents the committed files unchanged, and
their outputs must equal ``data/golden`` byte for byte.  Any other seed
presents every problem afresh: variables renamed to other
letters in the same alphabetical order, polynomials and terms shuffled, each
polynomial scaled by a small nonzero integer (univariate ones also mirrored,
x -> -x).  The program's work is the same under such a presentation, so
timings stay comparable across seeds, and the expected output is the golden
one with the variables renamed.  ``stats`` makes fresh cell tables per seed and
checks the report against an independent reference.
"""

from __future__ import annotations

import io
import json
import random
import string
from fractions import Fraction
from math import floor
from pathlib import Path

import inputs

DATA = Path(__file__).resolve().parent / "data"
FORMATS = ("text", "json", "csv")


class ItemFailed(Exception):
    """The program returned a nonzero exit code for an item."""


def run_cli(cadorder, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = cadorder.cli.run(argv, out=out, err=err)
    if code != 0:
        raise ItemFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _golden(name: str) -> dict:
    return json.loads((DATA / "golden" / f"{name}.json").read_text(encoding="utf-8"))


# -- presentation -----------------------------------------------------------


def _present_poly(p, names: dict[str, str], rng: random.Random, mirror: bool = False) -> str:
    scale = rng.choice((-3, -2, -1, 1, 2, 3))
    terms = []
    for m, c in p.terms.items():
        factors = [(names[v.name], e) for v, e in m.exps]
        rng.shuffle(factors)
        sign = -1 if mirror and m.total_degree % 2 else 1
        terms.append((factors, c * scale * sign))
    rng.shuffle(terms)
    return inputs.render_terms(terms)


def _renaming(variables, rng: random.Random) -> dict[str, str]:
    """Map the variable names to as many fresh letters, keeping their order."""
    letters = sorted(rng.sample(string.ascii_lowercase, len(variables)))
    return dict(zip(sorted(v.name for v in variables), letters))


def _rename_ordering(text: str, names: dict[str, str]) -> str:
    return ">".join(names[n] for n in text.split(">"))


def _renamed_analysis(golden: str, names: dict[str, str]) -> str:
    """The ``analyze --format json`` output expected after renaming."""
    doc = json.loads(golden)
    for h in doc["heuristics"]:
        if h["per_ordering"] is not None:
            h["per_ordering"] = {_rename_ordering(o, names): v for o, v in h["per_ordering"].items()}
        h["candidates"] = sorted((_rename_ordering(c, names) for c in h["candidates"]),
                                 key=lambda o: o.split(">"))
        h["chosen"] = h["candidates"][0]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- items --------------------------------------------------------------------


class AnalyzeItem:
    def __init__(self, item_id: str, path: Path, golden: str, names: dict[str, str] | None):
        self.id, self.path, self.golden, self.names = item_id, path, golden, names

    def run(self, cadorder) -> str:
        return run_cli(cadorder, ["analyze", str(self.path), "--heuristic", "all", "--format", "json"])

    def expected(self, cadorder) -> str:
        return self.golden if self.names is None else _renamed_analysis(self.golden, self.names)


class RootsItem:
    def __init__(self, item_id: str, path: Path, golden: str):
        self.id, self.path, self.golden = item_id, path, golden

    def run(self, cadorder) -> str:
        return run_cli(cadorder, ["roots", str(self.path)])

    def expected(self, cadorder) -> str:
        return self.golden


class StatsItem:
    def __init__(self, item_id: str, data: bytes, picks: dict, golden: dict | None):
        self.id, self.data, self.picks, self.golden = item_id, data, picks, golden

    def run(self, cadorder):
        stats = cadorder.stats
        report = stats.compute_report(stats.load_cell_table(self.data), self.picks)
        return report, {f: stats.emit_report(report, f).decode("utf-8") for f in FORMATS}

    def expected(self, cadorder):
        report = reference_report(cadorder, self.data, self.picks)
        if self.golden is not None:
            return report, self.golden
        return report, {f: cadorder.stats.emit_report(report, f).decode("utf-8") for f in FORMATS}


# -- preparing a run's inputs -------------------------------------------------


def _prepare_polys(name: str, cadorder, seed: int, workdir: Path):
    golden = _golden(name)
    identity = seed == inputs.DEFAULT_SEED
    rng = random.Random(f"{name}:{seed}")
    items = []
    for src in sorted((DATA / name).glob("*.poly")):
        text = src.read_text(encoding="utf-8")
        system = cadorder.parsing.parse_system(text)
        dest = workdir / f"{name}-{src.name}"
        names = None
        if not identity:
            names = _renaming(system.variables, rng)
            if name == "roots":
                (p,) = system.polynomials
                text = _present_poly(p, names, rng, mirror=rng.random() < 0.5) + "\n"
            else:
                order = [names[v.name] for v in system.variables]
                rng.shuffle(order)
                polys = list(system.polynomials)
                rng.shuffle(polys)
                text = f"vars: {', '.join(order)}\n" + "".join(
                    _present_poly(p, names, rng) + "\n" for p in polys
                )
        dest.write_text(text, encoding="utf-8")
        if name == "roots":
            items.append(RootsItem(src.stem, dest, golden[src.stem]))
        else:
            items.append(AnalyzeItem(src.stem, dest, golden[src.stem], names))
    if not identity:
        rng.shuffle(items)
    return items


def _prepare_stats(seed: int):
    golden = _golden("stats") if seed == inputs.DEFAULT_SEED else {}
    return [
        StatsItem(item_id, data, picks, golden.get(item_id))
        for item_id, (data, picks) in inputs.stats_tables(seed).items()
    ]


def prepare(workload: str, cadorder, seed: int, workdir: Path):
    """The workload's inputs at ``seed``, as items ready to run."""
    if workload == "stats":
        return _prepare_stats(seed)
    return _prepare_polys(workload, cadorder, seed, workdir)


WORKLOADS = ("corpus", "hard", "roots", "stats")


# The kind of item each workload runs.
KINDS = {"corpus": "analyze", "hard": "analyze", "roots": "roots", "stats": "stats"}

# How strongly a workload's CPU time follows the host's slowdown (see
# ``clock.py``), read off two sweeps of ten seeds each as the power of the
# slowdown that left the least spread.  ``roots`` spends its time in
# big-integer arithmetic and slows down less than the reference kernels;
# ``stats`` scans thousands of row objects and slows down more.
HOST_SENSITIVITY = {"corpus": 1.2, "hard": 1.0, "roots": 0.6, "stats": 1.3}


def smoke_items(workload: str | None = None, golden: dict | None = None):
    """One small item of every kind that ``workload`` does not run (of every
    kind if it is None): ``analyze`` on the test fixture p2, ``roots`` on a
    quartic and a 40-problem cell table.  A traced run runs them first so
    that every traced layer is entered; none of them is in the workload's
    own inputs."""
    if golden is None:
        golden = _golden("smoke")
    data, picks = inputs.cell_table(random.Random("smoke"), 40)
    items = {
        "analyze": AnalyzeItem("smoke_p2", DATA / "smoke" / "p2.poly", golden.get("smoke_p2"), None),
        "roots": RootsItem("smoke_roots", DATA / "smoke" / "roots.poly", golden.get("smoke_roots")),
        "stats": StatsItem("smoke_stats", data, picks, golden.get("smoke_stats")),
    }
    return [item for kind, item in items.items() if kind != KINDS.get(workload)]


# -- independent reference for the statistics --------------------------------


def _quantile(xs: list[Fraction], q: Fraction) -> Fraction:
    pos = (len(xs) - 1) * q
    lo = floor(pos)
    if pos == lo:
        return xs[lo]
    return xs[lo] + (xs[lo + 1] - xs[lo]) * (pos - lo)


def reference_report(cadorder, data: bytes, picks: dict):
    """The statistics of README's definitions, computed from a dict index of
    the CSV, as a ``cadorder.stats.BenchReport``."""
    st = cadorder.stats
    rows: dict[str, dict[tuple, tuple]] = {}
    for line in data.decode("utf-8").splitlines()[1:]:
        problem, ordering, cells, timeout = line.split(",")
        rows.setdefault(problem, {})[tuple(ordering.split(">"))] = (
            int(cells) if cells else None, timeout == "1")
    heuristics = [h for h in ("brown", "sotd", "ndrr") if h in picks]
    problems = sorted(set.intersection(*(set(picks[h]) for h in heuristics)))
    some_timeout = {p for p in problems if any(t for _, t in rows[p].values())}
    best = dict.fromkeys(heuristics, 0)
    for p in problems:
        picked = [rows[p][picks[h][p]] for h in heuristics]
        if any(t for _, t in picked):
            continue
        low = min(c for c, _ in picked)
        for h, (c, _) in zip(heuristics, picked):
            best[h] += c == low
    per = {}
    for h in heuristics:
        savings = []
        for p in problems:
            if p not in some_timeout:
                cells = [c for c, _ in rows[p].values()]
                avg = Fraction(sum(cells), len(cells))
                savings.append((avg - rows[p][picks[h][p]][0]) / avg * 100)
        savings.sort()
        summary = None
        if savings:
            summary = st.SavingsSummary(
                mean_pct=sum(savings, Fraction(0)) / len(savings),
                median_pct=_quantile(savings, Fraction(1, 2)),
                q1_pct=_quantile(savings, Fraction(1, 4)),
                q3_pct=_quantile(savings, Fraction(3, 4)),
                n_problems=len(savings),
            )
        avoided = sum(1 for p in problems if p in some_timeout and not rows[p][picks[h][p]][1])
        per[h] = st.HeuristicStats(best[h], Fraction(best[h] * 100, len(problems)), summary, avoided)
    return st.BenchReport(per, len(problems), len(problems) - len(some_timeout), len(some_timeout))
