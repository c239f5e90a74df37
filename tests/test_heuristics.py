import random
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cadorder import (
    BrownTriple,
    Monomial,
    Polynomial,
    PolySystem,
    ProjectionSet,
    Variable,
    brown_candidates,
    brown_triple,
    choose,
    enumerate_orderings,
    full_projection,
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


@st.composite
def tied_systems(draw):
    """Systems whose variables fall into tie groups of sizes 1-4, at most 7
    variables in all, named in no particular order.  Every variable of a
    group gets the group's terms v^e with the same coefficients, so its Brown
    triple is the group's; two groups may still tie with each other."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(lambda s: sum(s) <= 7))
    names = draw(st.permutations([f"v{i}" for i in range(sum(sizes))]))
    polys = []
    for size in sizes:
        group, names = names[:size], names[size:]
        exps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True))
        coeffs = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(exps), max_size=len(exps)))
        terms = {Monomial({Variable(v): e}): c for v in group for e, c in zip(exps, coeffs)}
        polys.append(Polynomial(terms))
    return PolySystem.make(polys)


@settings(max_examples=200, deadline=None)
@given(system=tied_systems())
def test_brown_candidates_match_sorted_reversed_eliminations(system):
    """The candidates are exactly the sorted list of every elimination order,
    each group arranged every way, written in reverse."""
    groups: dict[BrownTriple, list[Variable]] = {}
    for v in system.variables:
        groups.setdefault(brown_triple(system, v), []).append(v)
    arrangements = product(*(permutations(groups[t]) for t in sorted(groups)))
    expected = sorted(tuple(reversed([v for g in a for v in g])) for a in arrangements)
    assert brown_candidates(system) == expected


@settings(max_examples=200, deadline=None)
@given(system=tied_systems(), seed=st.integers(0, 2**32 - 1))
def test_brown_triple_matches_two_pass_definition(system, seed):
    """crit1 is the largest degree in v of any polynomial, crit2 and crit3 the
    largest total degree and the number of the terms that contain v; checked
    on a tied system and on a random one."""
    rng = random.Random(seed)
    for case in (system, random_system(rng, rng.randint(1, 4), rng.randint(1, 3))):
        for v in case.variables:
            terms = [m for p in case.polynomials for m in p.terms if dict(m).get(v, 0) > 0]
            assert brown_triple(case, v) == BrownTriple(
                max(p.degree_in(v) for p in case.polynomials),
                max((m.total_degree for m in terms), default=0),
                len(terms),
            )


@st.composite
def small_systems(draw):
    """Systems of one or two polynomials in 2 or 3 variables, each a sum of
    at most two terms of degree at most 2 in each variable and 3 in all.  In a symmetric system every
    term comes with its whole orbit under renaming the variables, so every
    ordering ties under every heuristic."""
    variables = [x, y, z][:draw(st.integers(2, 3))]
    symmetric = draw(st.booleans())
    exponents = st.tuples(*[st.integers(0, 2)] * len(variables)).filter(lambda e: 0 < sum(e) <= 3)
    polys = []
    for _ in range(draw(st.integers(1, 2))):
        terms = draw(st.dictionaries(exponents, st.integers(-3, 3).filter(bool), min_size=1, max_size=2))
        p = Polynomial.zero()
        for exps, c in terms.items():
            orbit = set(permutations(exps)) if symmetric else {exps}
            p = p + Polynomial({Monomial(zip(variables, e)): c for e in orbit})
        if not p.is_zero():
            polys.append(p)
    assume(polys)
    return PolySystem.make(polys, variables=variables), symmetric


@settings(max_examples=50, deadline=None)
@given(case=small_systems())
def test_chosen_is_the_least_of_sorted_candidates(case):
    """choose reports the first candidate, and that is the lexicographic
    tie-break: every heuristic lists its candidates in sorted order."""
    system, symmetric = case
    for h in ("brown", "sotd", "ndrr"):
        report = choose(system, h)
        assert report.candidates == tuple(sorted(report.candidates))
        assert report.chosen == min(report.candidates)
        if symmetric:
            assert len(report.candidates) == factorial(len(system.variables))


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
