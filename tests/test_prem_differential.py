"""Differential tests of the dense pseudo-remainder kernel ``poly._prem``
against ``sympy.prem``, which computes lc(b)^(deg a - deg b + 1) * a mod b
and returns a unchanged when deg a < deg b.

Coefficient lists run from the constant term up, with a nonzero leading
entry.  Coefficients are ints, Fractions, or Polynomials in y and z (the
main variable x is the list index), as in the univariate chains and the
resultant's subresultant sequence.  Many operands have zero coefficients
below the leading one, so the remainder's degree often falls by two or more
in one step.
"""

import random
from fractions import Fraction

import pytest

from cadorder import Polynomial, Variable
from cadorder.poly import _prem
from conftest import random_polynomial

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
OTHERS = [Variable("y"), Variable("z")]
SYMBOLS = {v: sympy.Symbol(v) for v in OTHERS}


def coefficient_to_sympy(c):
    if isinstance(c, Polynomial):
        return sympy.Add(
            *[k * sympy.Mul(*[SYMBOLS[v] ** e for v, e in m]) for m, k in c.terms.items()]
        )
    return sympy.Rational(c.numerator, c.denominator)


def to_sympy(coeffs):
    return sympy.Add(*[coefficient_to_sympy(c) * X**i for i, c in enumerate(coeffs)])


def assert_matches_sympy(a, b):
    expected = sympy.prem(to_sympy(a), to_sympy(b), X)
    got = _prem(a, b)
    assert not got or got[-1], "the remainder is not trimmed"
    assert len(got) < len(b)
    assert sympy.expand(to_sympy(got) - expected) == 0


def sparse_list(rng, degree, coefficient, zero):
    """Degree ``degree`` with a nonzero leading entry; about half of the
    lower entries are ``zero``."""
    coeffs = [coefficient() if rng.random() < 0.5 else zero for _ in range(degree)]
    while True:
        lead = coefficient()
        if lead:
            return coeffs + [lead]


def int_coefficient(rng):
    return lambda: rng.randint(-9, 9)


def fraction_coefficient(rng):
    return lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def polynomial_coefficient(rng):
    return lambda: random_polynomial(rng, OTHERS, max_degree=2, max_terms=3, nonzero=False)


class TestAgainstSympy:
    @pytest.mark.parametrize(
        "kind, seed",
        [(int_coefficient, 1), (fraction_coefficient, 2), (polynomial_coefficient, 3)],
    )
    def test_random_operands(self, kind, seed):
        rng = random.Random(seed)
        coefficient = kind(rng)
        zero = Polynomial.zero() if kind is polynomial_coefficient else 0
        for _ in range(60):
            db = rng.randint(0, 4)
            da = rng.randint(0, 8)
            a = sparse_list(rng, da, coefficient, zero)
            b = sparse_list(rng, db, coefficient, zero)
            assert_matches_sympy(a, b)

    def test_degree_gap(self):
        # x^5 + 1 by x^2 + 1: the first step leaves -x^3 + 1, of degree 3,
        # and the next x + 1, of degree 1
        a, b = [1, 0, 0, 0, 0, 1], [1, 0, 1]
        assert_matches_sympy(a, b)
        assert _prem(a, b) == [1, 1]

    def test_degree_gap_with_non_monic_divisor(self):
        a, b = [3, 0, 0, 0, 0, 0, 2], [5, 0, 0, 7]
        assert_matches_sympy(a, b)
        assert _prem(a, b) == [3 * 7**4 + 2 * 5**2 * 7**2]  # x^3 = -5/7

    def test_dividend_of_lower_degree(self):
        assert _prem([2, 3], [1, 0, 4]) == [2, 3]
        assert_matches_sympy([2, 3], [1, 0, 4])
        assert _prem([], [1, 1]) == []

    def test_constant_divisor(self):
        assert _prem([5, 0, 3], [7]) == []
        assert_matches_sympy([5, 0, 3], [7])
        y = Polynomial.variable(OTHERS[0])
        assert _prem([y, y * y + 1], [y - 2]) == []

    def test_polynomial_coefficients_with_gaps(self):
        y, z = (Polynomial.variable(v) for v in OTHERS)
        zero = Polynomial.zero()
        a = [z, zero, zero, y * z - 1, zero, y + 2]
        b = [y, zero, z * z]
        assert_matches_sympy(a, b)

    def test_rational_coefficients_with_gaps(self):
        a = [Fraction(1, 2), 0, 0, 0, Fraction(-3, 4)]
        b = [Fraction(2, 3), 0, Fraction(5, 7)]
        assert_matches_sympy(a, b)
