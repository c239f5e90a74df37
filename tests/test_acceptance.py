"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

import io
import random
from fractions import Fraction
from pathlib import Path

from cadorder import (
    BrownTriple,
    Polynomial,
    PolySystem,
    Variable,
    brown_candidates,
    brown_triple,
    choose,
    compute_report,
    count_distinct_real_roots,
    enumerate_orderings,
    full_projection,
    ndrr_value,
    parse_system,
    sotd_value,
    load_cell_table,
)
from cadorder.cli import run
from conftest import random_polynomial, random_system, rename
from oracles import sylvester_resultant
from test_stats import FIXTURE_PICKS
from test_univariate import from_roots

FIXTURES = Path(__file__).parent / "fixtures"

x, y, z = Variable("x"), Variable("y"), Variable("z")
X, Y, Z = Polynomial.variable(x), Polynomial.variable(y), Polynomial.variable(z)


def report(criterion: int, description: str):
    print(f"ACCEPTANCE {criterion}: {description} ... PASS")


def test_c1_sturm_oracle_equivalence():
    """>= 500 polynomials with root counts known by construction."""
    rng = random.Random(101)
    checked = 0
    while checked < 500:
        k = rng.randint(0, 4)
        roots = rng.sample(range(-9, 10), k)
        quads = []
        for _ in range(rng.randint(0, 2)):
            b = rng.randint(-9, 9)
            c = rng.randint(b * b // 4 + 1, b * b // 4 + 9)
            quads.append((b, c))
        p = from_roots(roots, quads)
        if p.degree == 0:
            continue
        assert count_distinct_real_roots(p) == k
        checked += 1
    report(1, "Sturm count matches construction on 500 polynomials")


def test_c2_resultant_oracle_equivalence():
    """>= 200 random bivariate pairs, degree <= 4, against the Sylvester determinant."""
    rng = random.Random(102)
    checked = 0
    while checked < 200:
        p = random_polynomial(rng, [x, y], max_degree=4, max_terms=4)
        q = random_polynomial(rng, [x, y], max_degree=4, max_terms=4)
        if p.degree_in(x) < 1 or q.degree_in(x) < 1:
            continue
        from cadorder import resultant

        assert resultant(p, q, x) == sylvester_resultant(p, q, x)
        checked += 1
    report(2, "subresultant PRS equals Sylvester determinant on 200 pairs")


def test_c3_brown_worked_example():
    system = PolySystem.make([X**4 + Y, Y**2 * Z + 1])
    assert brown_triple(system, x) == BrownTriple(4, 4, 1)
    assert brown_triple(system, y) == BrownTriple(2, 3, 2)
    assert brown_triple(system, z) == BrownTriple(1, 3, 1)
    assert choose(system, "brown").chosen == (x, y, z)
    report(3, "Brown triples (4,4,1)/(2,3,2)/(1,3,1), chosen x>y>z")


def test_c4_sotd_ndrr_worked_example():
    system = PolySystem.make([X**2 + Y])
    sotd = choose(system, "sotd")
    assert sotd.per_ordering == {(y, x): 4, (x, y): 5}
    assert sotd.chosen == (y, x)
    ndrr = choose(system, "ndrr")
    assert ndrr.per_ordering == {(y, x): 1, (x, y): 1}
    assert ndrr.chosen == (x, y)
    report(4, "sotd values {y>x: 4, x>y: 5}; ndrr ties broken to x>y")


def test_c5_ordering_enumeration():
    assert len(enumerate_orderings([x, y, z])) == 6
    report(5, "three variables produce exactly six orderings")


def test_c6_stats_fixture_regression():
    table = load_cell_table((FIXTURES / "stats_cells.csv").read_bytes())
    rep = compute_report(table, FIXTURE_PICKS)
    counts = {h: s.best_pick_count for h, s in rep.per_heuristic.items()}
    assert counts == {"brown": 7, "sotd": 6, "ndrr": 6}
    assert sum(counts.values()) > 12  # tie crediting sums past 100%

    expected = {
        "brown": (Fraction(430, 24), Fraction(100, 3), Fraction(-25, 3), Fraction(50)),
        "sotd": (Fraction(130, 24), Fraction(50, 3), Fraction(-75, 2), Fraction(75, 2)),
        "ndrr": (Fraction(430, 24), Fraction(100, 3), Fraction(-25, 3), Fraction(50)),
    }
    for h, (mean, median, q1, q3) in expected.items():
        s = rep.per_heuristic[h].savings
        for got, want in ((s.mean_pct, mean), (s.median_pct, median),
                          (s.q1_pct, q1), (s.q3_pct, q3)):
            assert abs(float(got) / float(want) - 1) < 1e-9

    avoided = {h: s.timeout_avoidance_count for h, s in rep.per_heuristic.items()}
    assert avoided == {"brown": 2, "sotd": 3, "ndrr": 2}
    report(6, "stats fixture reproduces hand-computed best-pick/savings/timeouts")


def test_c7_invariance_suite():
    """100 randomized systems, <= 3 variables, degree <= 4."""
    rng = random.Random(107)
    fresh = [Variable("a"), Variable("b"), Variable("c")]
    for _ in range(100):
        n = rng.randint(1, 3)
        system = random_system(rng, n, rng.randint(1, 2), max_degree=4)

        # Brown scaling invariance
        factor = rng.choice([-5, -1, 2, 9])
        scaled = PolySystem.make(
            [p * factor for p in system.polynomials], variables=system.variables
        )
        for v in system.variables:
            assert brown_triple(system, v) == brown_triple(scaled, v)
        assert brown_candidates(system) == brown_candidates(scaled)

        # input-permutation invariance for all heuristics
        shuffled = list(system.polynomials)
        rng.shuffle(shuffled)
        permuted = PolySystem.make(shuffled, variables=system.variables)
        for h in ("brown", "sotd", "ndrr"):
            assert choose(system, h) == choose(permuted, h)

        # renaming equivariance of the metrics, plus level containment
        mapping = dict(zip(system.variables, rng.sample(fresh, n)))
        renamed = PolySystem.make(
            [rename(p, mapping) for p in system.polynomials],
            variables=mapping.values(),
        )
        for ordering in enumerate_orderings(system.variables):
            ps = full_projection(system, ordering)
            for i, level in enumerate(ps.levels):
                allowed = set(ordering[: n - i])
                for p in level:
                    assert p.variables() <= allowed
            mapped = tuple(mapping[v] for v in ordering)
            ps_renamed = full_projection(renamed, mapped)
            assert sotd_value(ps) == sotd_value(ps_renamed)
            assert ndrr_value(ps) == ndrr_value(ps_renamed)
    report(7, "invariance suite holds on 100 randomized systems")


def test_c8_parser_round_trip():
    rng = random.Random(108)
    for _ in range(500):
        n_vars = rng.randint(1, 3)
        p = random_polynomial(rng, [x, y, z][:n_vars], max_degree=5, max_terms=6)
        assert parse_system(str(p)).polynomials == (p,)
    report(8, "parser round-trips 500 random polynomials exactly")


def test_c9_cli_bench_determinism():
    argv = [
        "bench",
        "--problems", str(FIXTURES / "problems"),
        "--cells", str(FIXTURES / "bench_cells.csv"),
    ]
    runs = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, out=out, err=err)
        assert code == 0
        runs.append((out.getvalue().encode(), err.getvalue().encode()))
    assert runs[0] == runs[1]
    report(9, "two consecutive bench runs are byte-identical")
