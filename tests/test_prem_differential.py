"""Differential tests of the dense pseudo-remainder kernel ``poly._prem``
against ``sympy.prem``, which computes lc(b)^(deg a - deg b + 1) * a mod b
and returns a unchanged when deg a < deg b.

Coefficient lists run from the constant term up, with a nonzero leading
entry.  Coefficients are ints, Fractions, or Polynomials in y and z (the
main variable x is the list index), as in the univariate chains and the
resultant's subresultant sequence.  Many operands have zero coefficients
below the leading one, so the remainder's degree often falls by two or more
in one step.

Polynomial operands of more than ``_LOOP_MAX_TERMS`` terms take the
Kronecker-substituted path, ``_kronecker_prem``; the tests call it directly,
or switch it off, so that each path is checked on both sides of the cutoff.
"""

import math
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadorder import Monomial, Polynomial, Variable, poly
from cadorder.poly import _KRONECKER_SLOTS_PER_TERM, _LOOP_MAX_TERMS, _kronecker_prem, _prem
from conftest import random_polynomial

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
OTHERS = [Variable("y"), Variable("z")]
SYMBOLS = {v: sympy.Symbol(v) for v in [*OTHERS, Variable("w")]}


def coefficient_to_sympy(c):
    if isinstance(c, Polynomial):
        return sympy.Add(
            *[k * sympy.Mul(*[SYMBOLS[v] ** e for v, e in m]) for m, k in c.terms.items()]
        )
    return sympy.Rational(c.numerator, c.denominator)


def to_sympy(coeffs):
    return sympy.Add(*[coefficient_to_sympy(c) * X**i for i, c in enumerate(coeffs)])


def loop_prem(a, b):
    """``_prem`` with the Kronecker path switched off."""
    with mock.patch.object(poly, "_LOOP_MAX_TERMS", math.inf):
        return _prem(a, b)


def assert_matches_sympy(a, b, prem=_prem):
    expected = sympy.prem(to_sympy(a), to_sympy(b), X)
    got = prem(a, b)
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


Y, Z, W = (Polynomial.variable(v) for v in SYMBOLS)
ONE = Polynomial.constant(1)
ZERO = Polynomial.zero()


def terms(*lists):
    return sum(len(c.terms) for coeffs in lists for c in coeffs)


def polynomial_lists(rng, max_terms, sizes):
    """(a, b) with Polynomial coefficients in y and z; ``sizes`` bounds the
    lengths (da, db)."""
    coefficient = lambda: random_polynomial(rng, OTHERS, max_degree=3, max_terms=max_terms, nonzero=False)
    return (sparse_list(rng, rng.randint(0, sizes[0]), coefficient, ZERO),
            sparse_list(rng, rng.randint(0, sizes[1]), coefficient, ZERO))


class TestKroneckerPath:
    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_both_paths_on_both_sides_of_the_cutoff(self, seed):
        rng = random.Random(seed)
        sides = set()
        for _ in range(50):
            a, b = polynomial_lists(rng, rng.randint(1, 8), (6, 3))
            sides.add(terms(a, b) > _LOOP_MAX_TERMS)
            for prem in (_prem, _kronecker_prem, loop_prem):
                assert_matches_sympy(a, b, prem)
        assert sides == {False, True}

    def test_prem_substitutes_above_the_cutoff_only(self, monkeypatch):
        calls = []
        monkeypatch.setattr(poly, "_kronecker_prem", lambda a, b, cap: calls.append(cap) or _kronecker_prem(a, b, cap))
        small = ([Y, Z, Y * Z + 1], [Y - 2, Z + 1])
        assert terms(*small) == _LOOP_MAX_TERMS - 2
        assert_matches_sympy(*small)
        assert calls == []
        large = ([Y**2 + Z, Y * Z - 3, Y + Z + 1, Z**2 - Y], [Y * Z + 2, Y - Z + 5])
        assert terms(*large) > _LOOP_MAX_TERMS
        assert_matches_sympy(*large)
        assert calls == [_KRONECKER_SLOTS_PER_TERM * terms(*large)]

    @pytest.mark.parametrize("bits", [7, 8, 15, 16, 63, 64])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_coefficient_at_the_slot_bound(self, bits, sign):
        # one step of a = -+R (y x + y) by b = N x - M puts all of
        # R0 * L = R (N + M) on one slot; with R and L all ones in binary it
        # has bits(R) + bits(L) bits, and the slot needs one more for the sign
        r, l = 2 ** (bits // 2) - 1, 2 ** (bits - bits // 2) - 1
        n = 2 ** (bits - bits // 2 - 1)
        assert (r * l).bit_length() == r.bit_length() + l.bit_length() == bits
        a = [-sign * r * Y, -sign * r * Y]
        b = [Polynomial.constant(n - l), Polynomial.constant(n)]
        assert _kronecker_prem(a, b) == [-sign * r * l * Y]
        assert_matches_sympy(a, b, _kronecker_prem)

    @pytest.mark.parametrize("top", [-1, -7, -(2**64), -(2**64) + 1])
    def test_negative_top_slot(self, top):
        c = 1 + Y - Z + top * Y**2 * Z**2
        a, b = [c, Z - Y, 2 * c], [Y + Z, -3 * Y * Z + 1]
        assert_matches_sympy(a, b, _kronecker_prem)
        assert _kronecker_prem([c, 2 * c], [ZERO, ONE]) == [c]  # by x: c's round trip

    def test_zero_remainder_and_zero_coefficients(self):
        b = [Y - Z, ZERO, 2 * Y * Z + 1]
        q = [Z**2 + 1, ZERO, Y]
        a = [sum((q[i] * b[k - i] for i in range(len(q)) if 0 <= k - i < len(b)), ZERO) for k in range(5)]
        assert _kronecker_prem(a, b) == [] == _prem(a, b)
        a = [ZERO, Y + 1, ZERO, ZERO, Z * Y - 4]
        assert_matches_sympy(a, b, _kronecker_prem)
        assert _kronecker_prem([ZERO, ZERO, Y], [Z, ONE]) == loop_prem([ZERO, ZERO, Y], [Z, ONE])

    def test_variable_present_only_in_b(self):
        a = [Y**2 + 3, Y - 1, 2 * Y, Y**3 + Y]
        b = [W * Z - Y, W**2 + Z]
        assert_matches_sympy(a, b, _kronecker_prem)

    def test_lengths(self):
        a = [Y + Z, Y * Z]
        assert _kronecker_prem(a, [ONE, Y, Z - 1]) == a  # len(a) < len(b): a unchanged
        assert _kronecker_prem([], [ONE, Y]) == []
        assert _kronecker_prem([Y, Z, Y * Z], [Y - Z]) == []  # len(b) == 1
        assert_matches_sympy([Y, Z, Y * Z], [Y - Z], _kronecker_prem)

    @pytest.mark.parametrize("unit", [1, -1])
    def test_unit_leading_coefficient(self, unit):
        a = [Y**2 - Z, 3 * Y * Z, Z - 1, Y + Z**2]
        b = [Y * Z + 2, Z - Y, Polynomial.constant(unit)]
        for prem in (_prem, _kronecker_prem, loop_prem):
            assert_matches_sympy(a, b, prem)

    def test_sparse_high_degree_operand_takes_the_loop(self, monkeypatch):
        results = []
        monkeypatch.setattr(poly, "_kronecker_prem",
                            lambda a, b, cap: results.append(_kronecker_prem(a, b, cap)) or results[-1])
        a = [Y**200 * Z**150 + k * Y + Z**3 - k for k in range(4)]
        b = [Z**90 - Y**100 + 1, Y * Z + 5, Y**40 + Z**40]
        assert terms(a, b) > _LOOP_MAX_TERMS
        assert_matches_sympy(a, b)
        assert results == [None]

    def test_kronecker_equals_the_loop_under_a_low_digit_limit(self):
        # the substituted ints pass 640 decimal digits; no path converts one
        # to or from a string
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("no int digit limit in this Python")
        big = 7**900
        a = [big * Y**3 - Z, Y * Z * big + 1, (Y + Z) ** 3, big * Z**2]
        b = [Y**2 * Z - big, 3 * Z + Y, big * Y - 1]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert _kronecker_prem(a, b) == loop_prem(a, b)
        finally:
            sys.set_int_max_str_digits(limit)
        assert_matches_sympy(a, b, _kronecker_prem)


@st.composite
def coefficient_lists(draw, min_size, max_size):
    """Polynomials in y, z and w with small exponents and coefficients of up
    to 70 bits, about a third of them zero; the last one nonzero."""
    exponents = st.lists(st.integers(0, 3), min_size=3, max_size=3)
    monomial = exponents.map(lambda es: Monomial(zip([Variable(n) for n in "ywz"], es)))
    coefficient = st.one_of(
        st.just(ZERO),
        st.dictionaries(monomial, st.integers(-(2**70), 2**70), min_size=1, max_size=6).map(Polynomial),
    )
    coeffs = draw(st.lists(coefficient, min_size=min_size, max_size=max_size))
    if coeffs and not coeffs[-1]:
        coeffs[-1] = ONE
    return coeffs


class TestKroneckerProperty:
    @settings(max_examples=150, deadline=None)
    @given(a=coefficient_lists(0, 6), b=coefficient_lists(1, 4))
    def test_kronecker_equals_the_loop(self, a, b):
        assert _kronecker_prem(a, b) == loop_prem(a, b)


class TestUnitLeadingCoefficient:
    def test_constant_one_on_the_loop_path(self):
        # x^2 + z x + y by the monic x + y: the remainder is a(-y)
        a, b = [Y, Z, ONE], [Y, ONE]
        assert terms(a, b) <= _LOOP_MAX_TERMS
        assert _prem(a, b) == [Y - Z * Y + Y**2]
        assert_matches_sympy(a, b)

    @pytest.mark.parametrize("b, products", [([ONE], 0), ([Y, ONE], 2)])
    def test_monic_divisor_is_not_rescaled(self, monkeypatch, b, products):
        # the only products are popped coefficients times b's tail: none for
        # a constant b, one per step for x + y
        a = [ONE, ONE, ONE]
        calls = []
        mul = Polynomial.__mul__
        monkeypatch.setattr(Polynomial, "__mul__", lambda p, q: calls.append(1) or mul(p, q))
        got = _prem(a, b)
        monkeypatch.undo()
        assert len(calls) == products
        assert_matches_sympy(a, b)
        assert got == ([] if len(b) == 1 else [ONE - Y + Y**2])
