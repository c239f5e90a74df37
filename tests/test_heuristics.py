import random

import pytest

from cadorder import (
    BrownTriple,
    Polynomial,
    PolySystem,
    ProjectionSet,
    Variable,
    brown_candidates,
    brown_triple,
    choose,
    enumerate_orderings,
    full_projection,
    lex_tiebreak,
    ndrr_value,
    sotd_value,
)
from conftest import random_system, rename

w, x, y, z = Variable("w"), Variable("x"), Variable("y"), Variable("z")
X, Y, Z = Polynomial.variable(x), Polynomial.variable(y), Polynomial.variable(z)

DEMO = PolySystem.make([X**4 + Y, Y**2 * Z + 1])


class TestEnumerateOrderings:
    def test_three_variables_give_six(self):
        orderings = enumerate_orderings([x, y, z])
        assert len(orderings) == 6
        assert orderings[0] == (x, y, z)
        assert orderings[-1] == (z, y, x)

    def test_singleton(self):
        assert enumerate_orderings([x]) == [(x,)]

    def test_empty(self):
        with pytest.raises(ValueError, match="^no variables to order$"):
            enumerate_orderings([])

    def test_four_variables(self):
        assert len(enumerate_orderings([w, x, y, z])) == 24

    def test_cap(self):
        many = [Variable(f"v{i}") for i in range(8)]
        with pytest.raises(ValueError, match="cap of 7"):
            enumerate_orderings(many)


class TestBrown:
    def test_triples(self):
        assert brown_triple(DEMO, x) == BrownTriple(4, 4, 1)
        assert brown_triple(DEMO, y) == BrownTriple(2, 3, 2)
        assert brown_triple(DEMO, z) == BrownTriple(1, 3, 1)

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            brown_triple(DEMO, w)

    def test_candidates_no_ties(self):
        assert brown_candidates(DEMO) == [(x, y, z)]

    def test_candidates_full_tie(self):
        system = PolySystem.make([X * Y + 1])
        assert brown_candidates(system) == [(x, y), (y, x)]

    def test_single_variable(self):
        assert brown_candidates(PolySystem.make([X**2 + 1])) == [(x,)]

    def test_candidate_cap(self):
        def tied(n):  # v0 + ... + v(n-1): every triple equal, n! candidates
            vs = [Polynomial.variable(Variable(f"v{i}")) for i in range(n)]
            return PolySystem.make([sum(vs[1:], vs[0])])

        assert len(brown_candidates(tied(7))) == 5040
        with pytest.raises(ValueError, match="^40320 Brown candidates exceed the enumeration cap of 5040$"):
            brown_candidates(tied(8))

    def test_scaling_invariance(self):
        rng = random.Random(41)
        for _ in range(50):
            system = random_system(rng, rng.randint(1, 3), rng.randint(1, 3))
            factor = rng.choice([-7, -2, 3, 11])
            scaled = PolySystem.make(
                [p * factor for p in system.polynomials], variables=system.variables
            )
            for v in system.variables:
                assert brown_triple(system, v) == brown_triple(scaled, v)
            assert brown_candidates(system) == brown_candidates(scaled)


class TestMetrics:
    def test_sotd_worked_example(self):
        system = PolySystem.make([X**2 + Y])
        assert sotd_value(full_projection(system, (y, x))) == 4
        assert sotd_value(full_projection(system, (x, y))) == 5

    def test_sotd_single_variable(self):
        system = PolySystem.make([X])
        assert sotd_value(full_projection(system, (x,))) == 1

    def test_ndrr_worked_example(self):
        system = PolySystem.make([X**2 + Y])
        assert ndrr_value(full_projection(system, (y, x))) == 1
        assert ndrr_value(full_projection(system, (x, y))) == 1

    def test_ndrr_no_real_roots(self):
        system = PolySystem.make([X**2 + 1])
        assert ndrr_value(full_projection(system, (x,))) == 0

    def test_ndrr_without_levels(self):
        assert ndrr_value(ProjectionSet((x,), ())) == 0


class TestLexTiebreak:
    def test_pairs(self):
        assert lex_tiebreak([(y, x), (x, y)]) == (x, y)
        assert lex_tiebreak([(x, z, y), (x, y, z), (z, x, y)]) == (x, y, z)
        assert lex_tiebreak([(z, y, x)]) == (z, y, x)

    def test_empty(self):
        with pytest.raises(ValueError):
            lex_tiebreak([])


class TestChoose:
    def test_brown_demo(self):
        assert choose(DEMO, "brown").chosen == (x, y, z)

    def test_sotd_demo(self):
        report = choose(PolySystem.make([X**2 + Y]), "sotd")
        assert report.per_ordering == {(y, x): 4, (x, y): 5}
        assert report.chosen == (y, x)

    def test_ndrr_demo_tiebreak(self):
        report = choose(PolySystem.make([X**2 + Y]), "ndrr")
        assert report.per_ordering == {(y, x): 1, (x, y): 1}
        assert report.candidates == ((x, y), (y, x))
        assert report.chosen == (x, y)

    def test_empty_system(self):
        empty = PolySystem.make([])
        with pytest.raises(ValueError, match="^empty system$"):
            brown_candidates(empty)
        for heuristic in ("brown", "sotd", "ndrr"):
            with pytest.raises(ValueError, match="^empty system$"):
                choose(empty, heuristic)

    def test_unknown_heuristic(self):
        with pytest.raises(ValueError, match="unknown heuristic"):
            choose(DEMO, "sotd2")

    def test_chosen_is_a_candidate_and_permutation(self):
        rng = random.Random(42)
        for _ in range(20):
            system = random_system(rng, rng.randint(1, 3), rng.randint(1, 2))
            for h in ("brown", "sotd", "ndrr"):
                report = choose(system, h)
                assert report.candidates
                assert report.chosen in report.candidates
                for cand in report.candidates:
                    assert sorted(cand) == list(system.variables)

    def test_input_order_invariance(self):
        rng = random.Random(43)
        for _ in range(20):
            system = random_system(rng, rng.randint(1, 3), 3)
            shuffled = list(system.polynomials)
            rng.shuffle(shuffled)
            permuted = PolySystem.make(shuffled, variables=system.variables)
            for h in ("brown", "sotd", "ndrr"):
                a, b = choose(system, h), choose(permuted, h)
                assert a.candidates == b.candidates
                assert a.chosen == b.chosen
                assert a.per_ordering == b.per_ordering

    def test_determinism(self):
        for h in ("brown", "sotd", "ndrr"):
            assert choose(DEMO, h) == choose(DEMO, h)

    def test_metric_renaming_equivariance(self):
        rng = random.Random(44)
        fresh = [Variable("a"), Variable("b"), Variable("c")]
        for _ in range(20):
            n = rng.randint(1, 3)
            system = random_system(rng, n, rng.randint(1, 2))
            mapping = dict(zip(system.variables, rng.sample(fresh, n)))
            renamed = PolySystem.make(
                [rename(p, mapping) for p in system.polynomials],
                variables=mapping.values(),
            )
            for ordering in enumerate_orderings(system.variables):
                mapped = tuple(mapping[v] for v in ordering)
                assert sotd_value(full_projection(system, ordering)) == sotd_value(
                    full_projection(renamed, mapped)
                )
                assert ndrr_value(full_projection(system, ordering)) == ndrr_value(
                    full_projection(renamed, mapped)
                )
