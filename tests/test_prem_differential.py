"""Differential tests of the dense pseudo-remainder kernel ``poly._prem``
against ``sympy.prem``, which computes lc(b)^(deg a - deg b + 1) * a mod b
and returns a unchanged when deg a < deg b.

Coefficient lists run from the constant term up, with a nonzero leading
entry.  Coefficients are ints, Fractions, or Polynomials in y and z (the
main variable x is the list index), as in the univariate chains and the
resultant's subresultant sequence.  Many operands have zero coefficients
below the leading one, so the remainder's degree often falls by two or more
in one step.

``resultant`` runs its whole subresultant chain on Kronecker images, through
``_kronecker_resultant``, when its operands have more than
``_LOOP_MAX_TERMS`` terms in all, and the chain of ``_subresultants`` on
Polynomials otherwise.  The route's tests call it directly on both sides of
the cutoff and check it against the Polynomial chain and the Sylvester
determinant of ``tests/oracles.py``.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cadorder import Monomial, Polynomial, Variable, poly, resultant
from cadorder.poly import (
    _KRONECKER_BYTES_PER_TERM, _LOOP_MAX_TERMS, _kronecker_resultant, _prem, _subresultants, exact_div,
)
from conftest import random_polynomial
from oracles import sylvester_resultant

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


def assert_matches_sympy(a, b, prem=_prem):
    expected = sympy.prem(to_sympy(a), to_sympy(b), X)
    got = prem(a, b)
    assert not got or got[-1], "the remainder is not trimmed"
    assert len(got) < len(b)
    assert sympy.expand(to_sympy(got) - expected) == 0


def assert_resultant_matches_sympy(a, b):
    """``resultant`` of the polynomials in x with coefficient lists a and b."""
    expected = sympy.resultant(to_sympy(a), to_sympy(b), X)
    assert sympy.expand(coefficient_to_sympy(resultant(in_x(a), in_x(b), X_VAR)) - expected) == 0


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


X_VAR = Variable("x")


def in_x(coeffs):
    """The polynomial in x with coefficient list ``coeffs``."""
    x = Polynomial.variable(X_VAR)
    return sum((c * x**i for i, c in enumerate(coeffs)), ZERO)


def joined(a, b):
    """a and b in one layout, as ``resultant`` passes them to the chain."""
    ab = poly._joint(*a, *b)
    return ab[:len(a)], ab[len(a):]


def route(a, b, max_bytes=sys.maxsize):
    return _kronecker_resultant(*joined(a, b), max_bytes)


def loop(a, b):
    return _subresultants(*joined(a, b), exact_div, ONE)


def assert_route_matches(a, b):
    """The route, the Polynomial chain and the Sylvester determinant agree
    on the resultant in x of a and b, which need len(a) >= len(b) >= 2."""
    got = route(a, b)
    assert got == loop(a, b) == sylvester_resultant(in_x(a), in_x(b), X_VAR)
    assert all(got.terms.values())


class TestKroneckerPath:
    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_both_paths_on_both_sides_of_the_cutoff(self, seed):
        rng = random.Random(seed)
        sides = set()
        for _ in range(50):
            a, b = polynomial_lists(rng, rng.randint(1, 8), (6, 3))
            sides.add(terms(a, b) > _LOOP_MAX_TERMS)
            assert_matches_sympy(a, b)
            if len(a) >= len(b) >= 2:  # as resultant calls the route
                assert_route_matches(a, b)
        assert sides == {False, True}

    def test_prem_substitutes_above_the_cutoff_only(self, monkeypatch):
        # resultant takes the route from _LOOP_MAX_TERMS + 1 terms in all
        results = []
        monkeypatch.setattr(poly, "_kronecker_resultant",
                            lambda a, b, cap: results.append((cap, _kronecker_resultant(a, b, cap))) or results[-1][1])
        at = ([Y, Z, Y * Z + 1], [Y - 2, Z])
        assert terms(*at) == _LOOP_MAX_TERMS
        assert_resultant_matches_sympy(*at)
        assert results == []
        above = ([Y, Z, Y * Z + 1], [Y - 2, Z + 1])
        assert terms(*above) == _LOOP_MAX_TERMS + 1
        assert_resultant_matches_sympy(*above)
        assert [cap for cap, _ in results] == [_KRONECKER_BYTES_PER_TERM * terms(*above)]
        assert results[0][1] == resultant(in_x(above[0]), in_x(above[1]), X_VAR)

    @pytest.mark.parametrize("bits", [7, 8, 15, 16, 63, 64])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_coefficient_at_the_slot_bound(self, bits, sign):
        # Res(-+R y x, x + L - 1) = -+R (L - 1) y.  With R and L all ones in
        # binary it has bits(R) + bits(L) bits, all that the bound R^1 L^1
        # leaves below the sign bit: at 7 mod 8 bits it fills its slot up to
        # the sign bit, and at 0 mod 8 a slot without the sign bit would
        # read it back wrong
        r, l = 2 ** (bits // 2) - 1, 2 ** (bits - bits // 2) - 1
        assert (r * (l - 1)).bit_length() == r.bit_length() + l.bit_length() == bits
        a = [ZERO, -sign * r * Y]
        b = [Polynomial.constant(l - 1), ONE]
        assert route(a, b) == -sign * r * (l - 1) * Y
        assert_route_matches(a, b)

    @pytest.mark.parametrize("top", [-1, -7, -(2**64), -(2**64) + 1])
    def test_negative_top_slot(self, top):
        c = 1 + Y - Z + top * Y**2 * Z**2
        a, b = [c, Z - Y, 2 * c], [Y + Z, -3 * Y * Z + 1]
        assert_route_matches(a, b)
        assert route([c, 2 * c], [ZERO, ONE]) == -c  # Res(2c x + c, x): c's round trip

    def test_zero_remainder_and_zero_coefficients(self):
        b = [Y - Z, ZERO, 2 * Y * Z + 1]
        q = [Z**2 + 1, ZERO, Y]
        a = [sum((q[i] * b[k - i] for i in range(len(q)) if 0 <= k - i < len(b)), ZERO) for k in range(5)]
        assert route(a, b) == ZERO == loop(a, b)  # a = q b: a common factor
        assert route(a, b).is_zero()
        a = [ZERO, Y + 1, ZERO, ZERO, Z * Y - 4]
        assert_route_matches(a, b)
        assert route([ZERO, ZERO, Y], [Z, ONE]) == Y * Z**2 == loop([ZERO, ZERO, Y], [Z, ONE])

    def test_variable_present_only_in_b(self):
        a = [Y**2 + 3, Y - 1, 2 * Y, Y**3 + Y]
        b = [W * Z - Y, W**2 + Z]
        assert_route_matches(a, b)
        assert_route_matches(b + [W * Y], a[:3])  # and only in a

    def test_lengths(self):
        assert route([Y, Z], [Y - Z, ONE]) == Z * (Y - Z) - Y  # the shortest lists the route takes
        assert_route_matches([Y, Z], [Y - Z, ONE])
        assert_route_matches([Y, Z, Y * Z, ONE, Y - 1, Z], [Y - Z, Y])  # five steps of delta 1 in one

    @pytest.mark.parametrize("unit", [1, -1])
    def test_unit_leading_coefficient(self, unit):
        a = [Y**2 - Z, 3 * Y * Z, Z - 1, Y + Z**2]
        b = [Y * Z + 2, Z - Y, Polynomial.constant(unit)]
        assert_matches_sympy(a, b)
        assert_route_matches(a, b)

    def test_sparse_high_degree_operand_takes_the_loop(self, monkeypatch):
        a = [Y**200 * Z**150 + k * Y + Z**3 - k for k in range(4)]
        b = [Z**90 - Y**100 + 1, Y * Z + 5, Y**40 + Z**40]
        assert terms(a, b) > _LOOP_MAX_TERMS
        assert route(a, b, _KRONECKER_BYTES_PER_TERM * terms(a, b)) is None
        assert_matches_sympy(a, b)
        # a pair small enough to substitute anyway: its 200901 slots of 2
        # bytes pass the cap, so resultant falls back to the loop and gives
        # the route's value
        a = [Y**300 * Z**200 + k * Y + Z - k for k in range(3)]
        b = [Z**100 - Y**100 + 1, Y * Z + 5]
        results = []
        monkeypatch.setattr(poly, "_kronecker_resultant",
                            lambda a, b, cap: results.append(_kronecker_resultant(a, b, cap)) or results[-1])
        got = resultant(in_x(a), in_x(b), X_VAR)
        assert results == [None]
        assert got == route(a, b) == sylvester_resultant(in_x(a), in_x(b), X_VAR)

    def test_dense_pair_with_many_slots_per_term_takes_the_route(self, monkeypatch):
        # three terms of degree up to 2 in y, z and w in each coefficient of
        # a cubic and a quadratic in x: 11^3 slots of 4 bytes for 21 terms,
        # over 60 slots per term but within the byte cap, so the route is
        # taken; the resultant fills 30 % of the box
        rng = random.Random(3)

        def coefficient():
            return sum((rng.choice([-3, -2, -1, 1, 2, 3]) * Y ** rng.randint(0, 2) * Z ** rng.randint(0, 2)
                        * W ** rng.randint(0, 2) for _ in range(3)), ZERO)

        a, b = [coefficient() for _ in range(4)], [coefficient() for _ in range(3)]
        assert terms(a, b) == 21
        assert all(max(c.degree_in(v) for c in cs) == 2 for cs in (a, b) for v in map(Variable, "yzw"))
        assert route(a, b, 11**3 * 4) is not None and route(a, b, 11**3 * 4 - 1) is None
        results = []
        monkeypatch.setattr(poly, "_kronecker_resultant",
                            lambda a, b, cap: results.append(_kronecker_resultant(a, b, cap)) or results[-1])
        got = resultant(in_x(a), in_x(b), X_VAR)
        assert len(results) == 1 and results[0] is not None
        assert got == sylvester_resultant(in_x(a), in_x(b), X_VAR)
        assert len(got.terms) > 11**3 / 4

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
            assert route(a, b) == loop(a, b)
        finally:
            sys.set_int_max_str_digits(limit)
        assert_route_matches(a, b)


@st.composite
def coefficient_lists(draw, min_size, max_size, names):
    """Polynomials in ``names`` with exponents up to 2 and coefficients of up
    to 70 bits, about a third of them zero; the last one nonzero."""
    exponents = st.lists(st.integers(0, 2), min_size=len(names), max_size=len(names))
    monomial = exponents.map(lambda es: Monomial(zip([Variable(n) for n in names], es)))
    coefficient = st.one_of(
        st.just(ZERO),
        st.dictionaries(monomial, st.integers(-(2**70), 2**70), min_size=1, max_size=3).map(Polynomial),
    )
    coeffs = draw(st.lists(coefficient, min_size=min_size, max_size=max_size))
    if coeffs and not coeffs[-1]:
        coeffs[-1] = ONE
    return coeffs


@st.composite
def resultant_operands(draw):
    """(p, q) in x, y, w, z with deg_x p >= deg_x q >= 1, each over its own
    variables, so that one may lack a variable the other has.  A common
    factor x + y + k makes the resultant 0, and p may be repacked into a
    wider layout."""
    a = draw(coefficient_lists(2, 4, draw(st.sampled_from(["ywz", "yz", "w"]))))
    b = draw(coefficient_lists(2, 3, draw(st.sampled_from(["ywz", "yz", "z"]))))
    if len(a) < len(b):
        a, b = b, a
    p, q = in_x(a), in_x(b)
    if draw(st.booleans()):
        f = Polynomial.variable(X_VAR) + Y + draw(st.integers(-3, 3))
        p, q = p * f, q * f
    if draw(st.booleans()):
        p = p._repack(poly._layout(p._layout.variables, 32))
    return p, q


class TestKroneckerProperty:
    @settings(max_examples=150, deadline=None)
    @given(operands=resultant_operands())
    @example(operands=(in_x([Y, ZERO, ZERO, ZERO, Z, W]), in_x([Z, ZERO, Y])))  # delta 3, then odd x odd
    @example(operands=(in_x([ONE, Y]), in_x([Z, ONE])))  # 1 x 1 odd degrees, one step
    def test_kronecker_equals_the_loop(self, operands):
        # the route on resultant's own chain inputs and byte cap, under the
        # lowest digit limit Python allows, against the Polynomial chain, the
        # Sylvester determinant and resultant itself; the route declines
        # about 1 % of these pairs, whose images pass the cap
        p, q = operands
        a, b = (c.coefficients_wrt(X_VAR) for c in poly._joint(p, q))
        limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
        if limit is not None:
            sys.set_int_max_str_digits(640)
        try:
            got = _kronecker_resultant(a, b, _KRONECKER_BYTES_PER_TERM * (len(p.terms) + len(q.terms)))
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        expected = sylvester_resultant(p, q, X_VAR)
        assert _subresultants(a, b, exact_div, ONE) == expected == resultant(p, q, X_VAR)
        assert got is None or got == expected and all(got.terms.values())


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
