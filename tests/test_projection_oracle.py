"""Differential tests of the projection set and the two heuristic values
against ``oracles.sympy_projection``, which builds every step from sympy's
resultant, derivative and primitive part and counts real roots by sympy's
isolation.  Each level is compared as a set, and sotd and ndrr per ordering,
on the fixture problems, on the ``hard`` benchmark pool, on a seeded sample
of the benchmark corpus and on small random 2- and 3-variable systems."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadorder import (
    Monomial,
    Polynomial,
    PolySystem,
    Variable,
    choose,
    enumerate_orderings,
    full_projection,
    ndrr_value,
    parse_system,
    sotd_value,
)

from oracles import polynomial_of, sympy_ndrr, sympy_projection, sympy_sotd

pytest.importorskip("sympy")

ROOT = Path(__file__).parents[1]
FIXTURES = sorted((ROOT / "tests" / "fixtures" / "problems").glob("*.poly"))
# To keep this file near 10 s, h2_w4 and h3_xyz3 are left out: the oracle
# takes about 6 s and 3 s on them, 2 cores, Python 3.11.
HARD = [ROOT / "perfbench" / "data" / "hard" / f"{name}.poly" for name in ("h1_c7_seed107", "h4_xyz3")]
# A seeded sample of the benchmark corpus's random 3- and 4-variable systems
# (its fixture copies are tested above): 24 of 160, about 8 s on 2 cores,
# Python 3.11.  All 164 files took 51 s and matched.
CORPUS = sorted(
    random.Random(2014).sample(
        sorted((ROOT / "perfbench" / "data" / "corpus").glob("r*.poly")), 24
    )
)


def assert_matches_oracle(system: PolySystem) -> dict:
    """Compare every ordering's levels, sotd and ndrr with the oracle's, and
    return the oracle's (sotd, ndrr) per ordering."""
    values = {}
    for ordering in enumerate_orderings(system.variables):
        levels = sympy_projection(system, ordering)
        ps = full_projection(system, ordering)
        assert [set(level) for level in ps.levels] == [
            {polynomial_of(p, system.variables) for p in level} for level in levels
        ], ordering
        values[ordering] = (sympy_sotd(levels), sympy_ndrr(levels))
        assert (sotd_value(ps), ndrr_value(ps)) == values[ordering], ordering
    return values


@pytest.mark.parametrize("path", FIXTURES, ids=[p.stem for p in FIXTURES])
def test_fixture_matches_oracle(path):
    system = parse_system(path.read_text())
    values = assert_matches_oracle(system)
    assert choose(system, "sotd").per_ordering == {o: s for o, (s, _) in values.items()}
    assert choose(system, "ndrr").per_ordering == {o: n for o, (_, n) in values.items()}


@pytest.mark.parametrize("path", HARD, ids=[p.stem for p in HARD])
def test_hard_pool_matches_oracle(path):
    assert_matches_oracle(parse_system(path.read_text()))


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_sample_matches_oracle(path):
    assert_matches_oracle(parse_system(path.read_text()))


@st.composite
def small_systems(draw):
    """1-3 nonconstant polynomials of 1-3 terms over 2 or 3 variables, each
    exponent at most 2 and each coefficient in [-4, 4]."""
    variables = [Variable(n) for n in "xyz"[: draw(st.integers(2, 3))]]
    monomial = st.lists(st.integers(0, 2), min_size=len(variables), max_size=len(variables)).map(
        lambda es: Monomial(zip(variables, es))
    )
    term = st.tuples(monomial, st.integers(-4, 4).filter(bool))
    polys = st.lists(term, min_size=1, max_size=3).map(dict).map(Polynomial)
    return PolySystem.make(
        draw(st.lists(polys.filter(lambda p: not p.is_constant()), min_size=1, max_size=3)),
        variables=variables,
    )


@settings(max_examples=25, deadline=None)
@given(system=small_systems())
def test_random_system_matches_oracle(system):
    assert_matches_oracle(system)
