"""Checks of the benchmark itself: its inputs regenerate, its expected
outputs agree with an independent oracle for any seed, and the traced
counters are pinned and repeat exactly.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

sympy = pytest.importorskip("sympy")

import clock  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DATA = workloads.DATA
SEEDS = (inputs.DEFAULT_SEED, 1, 2, 31)
# sympy.resultant takes minutes on the largest projection pairs.
MAX_ORACLE_TERMS = 16


@pytest.fixture(scope="module")
def cadorder():
    return run.load_cadorder()


def _sym(p):
    return sympy.sympify(str(p).replace("^", "**"))


def _pool(name: str) -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted((DATA / name).glob("*.poly"))}


# -- inputs --------------------------------------------------------------------


def test_committed_pools_regenerate_from_default_seed():
    seed = inputs.DEFAULT_SEED
    corpus = _pool("corpus")
    assert {k: v for k, v in corpus.items() if not k.startswith("fixture_")} == inputs.corpus_systems(seed)
    assert _pool("hard") == inputs.hard_systems()
    roots = _pool("roots")
    for k, text in inputs.dense_roots_polys(random.Random(f"dense:{seed}")).items():
        assert roots[k] == text + "\n"
    for k, (text, _) in inputs.factored_roots_polys(random.Random(f"factored:{seed}")).items():
        assert roots[k] == text + "\n"


def test_golden_covers_every_input():
    for name in ("corpus", "hard", "roots"):
        golden = json.loads((DATA / "golden" / f"{name}.json").read_text(encoding="utf-8"))
        assert set(golden) == set(_pool(name))


# -- independent oracles, for any seed -----------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_projection_resultants_match_sympy(cadorder, seed):
    """A sample of the resultants projection takes, on the corpus generated
    from any seed.  sympy's sign convention differs from the Sylvester
    determinant's in some degree cases, so they are compared up to sign;
    projection canonicalizes the sign away."""
    rng = random.Random(seed)
    systems = inputs.corpus_systems(seed)
    checked = 0
    for item_id in rng.sample(sorted(systems), 6):
        system = cadorder.parse_system(systems[item_id])
        ordering = rng.choice(cadorder.enumerate_orderings(system.variables))
        ps = cadorder.full_projection(system, ordering)
        for depth, level in enumerate(ps.levels[:-1]):
            v = ordering[len(ordering) - 1 - depth]
            pairs = [
                (p, q) for p, q in combinations(level, 2)
                if p.degree_in(v) and q.degree_in(v) and len(p.terms) + len(q.terms) <= MAX_ORACLE_TERMS
            ]
            for p, q in rng.sample(pairs, min(2, len(pairs))):
                ours = _sym(cadorder.resultant(p, q, v))
                theirs = sympy.resultant(_sym(p), _sym(q), sympy.Symbol(v.name))
                assert sympy.expand(ours - theirs) == 0 or sympy.expand(ours + theirs) == 0
                checked += 1
    assert checked >= 3


def _sympy_count(text: str) -> int:
    x = sympy.Symbol("x")
    return sympy.Poly(sympy.sympify(text.replace("^", "**")), x).sqf_part().count_roots()


@pytest.mark.parametrize("seed", SEEDS)
def test_constructed_root_counts_match_sympy(cadorder, seed):
    for item_id, (text, count) in inputs.factored_roots_polys(random.Random(f"factored:{seed}")).items():
        assert _sympy_count(text) == count, item_id
        system = cadorder.parse_system(text)
        (p,) = system.polynomials
        assert cadorder.count_distinct_real_roots(cadorder.to_univariate(p, system.variables[0])) == count


@pytest.mark.parametrize("seed", SEEDS)
def test_level1_root_counts_match_sympy(cadorder, seed):
    """ndrr's root counts on the level-1 polynomials of corpus systems."""
    rng = random.Random(seed)
    systems = inputs.corpus_systems(seed)
    for item_id in rng.sample(sorted(systems), 5):
        system = cadorder.parse_system(systems[item_id])
        ordering = rng.choice(cadorder.enumerate_orderings(system.variables))
        for p in cadorder.full_projection(system, ordering).levels[-1]:
            u = cadorder.to_univariate(p, ordering[0])
            expr = sympy.Poly(_sym(p), sympy.Symbol(ordering[0].name))
            assert cadorder.count_distinct_real_roots(u) == expr.sqf_part().count_roots()


def test_golden_root_counts_match_sympy():
    """Every committed roots item.  count_roots did not finish in two minutes
    on the degree-121 item, so this uses sympy's real-root isolation."""
    golden = json.loads((DATA / "golden" / "roots.json").read_text(encoding="utf-8"))
    x = sympy.Symbol("x")
    for item_id, text in _pool("roots").items():
        sqf = sympy.Poly(sympy.sympify(text.replace("^", "**")), x).sqf_part()
        assert golden[item_id] == f"{len(sqf.intervals())}\n", item_id


@pytest.mark.parametrize("seed", SEEDS)
def test_stats_reference_matches_program(cadorder, seed):
    data, picks = inputs.cell_table(random.Random(seed), 60)
    report = cadorder.stats.compute_report(cadorder.stats.load_cell_table(data), picks)
    assert report == workloads.reference_report(cadorder, data, picks)


# -- presentations ------------------------------------------------------------


@pytest.mark.parametrize("seed", (1, 31))
def test_presented_items_give_expected_outputs(cadorder, seed, tmp_path):
    """Renamed, shuffled and scaled inputs give the renamed golden output."""
    for name, cheap in (("corpus", "fixture_"), ("roots", "level1_")):
        items = workloads.prepare(name, cadorder, seed, tmp_path)
        chosen = [item for item in items if item.id.startswith(cheap)][:8]
        assert chosen
        for item in chosen:
            assert item.path.read_text() != (DATA / name / f"{item.id}.poly").read_text()
            assert item.run(cadorder) == item.expected(cadorder), item.id


def test_default_seed_presents_committed_files(cadorder, tmp_path):
    items = workloads.prepare("hard", cadorder, inputs.DEFAULT_SEED, tmp_path)
    for item in items:
        assert item.path.read_text() == (DATA / "hard" / f"{item.id}.poly").read_text()
        assert item.expected(cadorder) == json.loads((DATA / "golden" / "hard.json").read_text())[item.id]


# -- tracing --------------------------------------------------------------------

P2_COUNTERS = {
    "calls": {
        "cli.run": 1,
        "parsing.parse_system": 1,
        "heuristics.choose.brown": 1,
        "heuristics.choose.sotd": 1,
        "heuristics.choose.ndrr": 1,
        "projection.full_projection": 12,
        "poly.resultant": 42,
        "poly.discriminant": 22,
        "poly.exact_div": 94,
        "poly.canonicalize": 218,
        "univariate.count_distinct_real_roots": 15,
        "univariate.squarefree_part": 15,
    },
    "poly.resultant.distinct": 16,
    "poly.discriminant.distinct": 7,
}


def _trace_p2() -> dict:
    cadorder = run.load_cadorder()
    tracer = spans.Tracer()
    tracer.install(cadorder)
    try:
        tracer.item = "p2"
        workloads.run_cli(cadorder, ["analyze", str(DATA / "smoke" / "p2.poly"), "--format", "json"])
    finally:
        tracer.uninstall()
    assert not hasattr(cadorder.cli.run, "__wrapped__")
    return {
        "calls": dict(tracer.calls),
        "poly.resultant.distinct": tracer.counters["poly.resultant.distinct"],
        "poly.discriminant.distinct": tracer.counters["poly.discriminant.distinct"],
    }


def test_p2_counters_are_pinned_and_repeat():
    first, second = _trace_p2(), _trace_p2()
    assert first == second
    assert first == P2_COUNTERS


def test_smoke_items_are_not_in_the_workload():
    """A traced run runs its smoke items first; none may repeat an input."""
    every = {item.id: item for item in workloads.smoke_items()}
    for workload in workloads.WORKLOADS:
        ran = [every[item.id] for item in workloads.smoke_items(workload)]
        assert len(ran) == len(every) - 1  # all but the workload's own kind
        if workload != "stats":
            pool = {p.read_text() for p in (DATA / workload).glob("*.poly")}
            assert not any(item.path.read_text() in pool for item in ran if hasattr(item, "path"))


def test_host_clock_leaves_out_its_samples():
    host = clock.HostClock()
    host.sample()
    host.start()
    try:
        t0, c0 = host.cpu(), host.sampling_s
        while host.cpu() - t0 < 0.5:
            pass
    finally:
        host.stop()
    assert len(host.samples) >= 3
    assert host.sampling_s > c0
    assert host.slowdown() > 0


def test_self_times_add_up():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    (o,) = [s for s in tracer.spans if s[0] == "outer"]
    assert tracer.calls == {"inner": 3, "outer": 1}
    assert abs(tracer.self_time["outer"] + tracer.self_time["inner"] - (o[2] - o[1])) < 1e-6
    assert all(s[3] == tracer.spans.index(o) for s in tracer.spans if s[0] == "inner")


# -- the contract ----------------------------------------------------------------


def test_benchmark_json_lists_what_run_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.HOST_SENSITIVITY) == set(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    """Run with only BENCHMARK.json and the benchmark's files present."""
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    for path in BENCH.rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            dest = tmp_path / "perfbench" / path.relative_to(BENCH)
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
