"""Differential tests of the univariate layer against sympy, and of
sturm_sequence against the textbook long-division oracle, on random sparse
integer polynomials with repeated factors, gaps in degree and negative
leading coefficients.  A gap in degree is where the pseudo-remainder's
leftover lc(b)**e factor enters the integer chains.  Products of
consecutive linear factors, whose values at every integer share a fixed
divisor, are where a gcd computed from values meets spurious common
factors.  The remainder over
GF(_P) of the modular gcd, `_prem` by a monic image reduced mod _P, is
checked against sympy's modular remainder, the gcd over GF(_P) against
sympy's, and its primes against sympy's."""

import random
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

import pytest

from cadorder import (
    UnivariatePolynomial,
    Variable,
    count_distinct_real_roots,
    squarefree_part,
    sturm_sequence,
)
from cadorder.poly import _prem, _trim
from cadorder.univariate import _P, _gcd_cofactor, _gcd_mod, _primes
from oracles import textbook_sturm

sympy = pytest.importorskip("sympy")

x = Variable("x")
X = sympy.Symbol("x")


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def sparse_factor(rng, max_degree=5):
    """Low-to-high integer coefficients with two or three nonzero terms at
    random degrees, so most factors skip degrees."""
    degrees = rng.sample(range(max_degree + 1), rng.randint(2, 3))
    coeffs = [0] * (max(degrees) + 1)
    for d in degrees:
        coeffs[d] = rng.choice([c for c in range(-9, 10) if c])
    return coeffs


def sparse_product(rng, max_factors=3):
    """A product of sparse factors, one of them squared half the time, with
    a leading coefficient of either sign."""
    coeffs = [rng.choice([-1, 1])]
    factors = [sparse_factor(rng) for _ in range(rng.randint(1, max_factors))]
    if rng.random() < 0.5:
        factors.append(factors[0])
    for f in factors:
        coeffs = _mul(coeffs, f)
    return coeffs


def upoly(coeffs):
    return UnivariatePolynomial.make(x, coeffs)


def sym(coeffs):
    return sympy.Poly(list(reversed(coeffs)), X)


def primitive_positive(p):
    """Integer low-to-high coefficients of a sympy Poly's primitive part,
    leading coefficient positive."""
    _, pp = p.primitive()
    coeffs = [int(c) for c in reversed(pp.all_coeffs())]
    return coeffs if coeffs[-1] > 0 else [-c for c in coeffs]


def consecutive(lo, hi):
    """Low-to-high coefficients of (x - lo)(x - lo - 1)...(x - hi), whose
    value at every integer is a multiple of (hi - lo + 1)!."""
    coeffs = [1]
    for i in range(lo, hi + 1):
        coeffs = _mul(coeffs, [-i, 1])
    return coeffs


CASES = [sparse_product(random.Random(seed)) for seed in range(60)]
CASES += [consecutive(1, 24), _mul(consecutive(1, 24), consecutive(1, 24))]


@pytest.mark.parametrize("coeffs", CASES)
def test_root_count_matches_sympy(coeffs):
    assert count_distinct_real_roots(upoly(coeffs)) == sym(coeffs).count_roots()


@pytest.mark.parametrize("coeffs", CASES)
def test_squarefree_part_matches_sympy(coeffs):
    expected = primitive_positive(sympy.Poly(sympy.sqf_part(sym(coeffs).as_expr()), X))
    assert squarefree_part(upoly(coeffs)) == upoly(expected)


@pytest.mark.parametrize("seed", range(40))
def test_gcd_matches_sympy(seed):
    rng = random.Random(1000 + seed)
    shared = sparse_product(rng, max_factors=2)
    p = _mul(shared, sparse_product(rng, max_factors=2))
    q = _mul(shared, sparse_product(rng, max_factors=2))
    expected = primitive_positive(sympy.gcd(sym(p), sym(q)))
    assert _gcd_cofactor(p, q)[0] == expected


def primitive(member):
    """The textbook member, a list of Fractions, times the positive rational
    that makes it an integer list of content 1."""
    denom = lcm(*(c.denominator for c in member))
    ints = [int(c * denom) for c in member]
    return tuple(c // gcd(*ints) for c in ints)


def textbook(coeffs):
    """sturm_sequence's chain as the textbook chain gives it: p itself, then
    each later member made primitive."""
    chain = textbook_sturm([Fraction(c) for c in coeffs])
    return [tuple(coeffs)] + [primitive(m) for m in chain[1:]]


@pytest.mark.parametrize(
    "coeffs",
    [c for c in CASES if len(c) <= 13] + [sparse_product(random.Random(seed), 2) for seed in range(20)],
)
def test_sturm_sequence_matches_textbook(coeffs):
    assert [s.coefficients for s in sturm_sequence(upoly(coeffs))] == textbook(coeffs)


def test_sturm_sequence_of_non_squarefree_input_stops_at_gcd():
    p = [-1, 1, 1, -1]  # -(x - 1)^2 (x + 1)
    chain = sturm_sequence(upoly(p))
    assert [s.coefficients for s in chain] == textbook(p)
    assert chain[-1] == upoly([1, -1])


def test_sturm_sequence_of_constant_is_itself():
    p = upoly([-7])
    assert sturm_sequence(p) == [p]
    assert textbook_sturm([Fraction(-7)]) == [[-7]]


def dense(rng, degree):
    """Low-to-high coefficients of a dense random polynomial with 32- to
    64-bit coefficients, like the dense inputs of the roots benchmark pool;
    squarefree with overwhelming probability, which sympy's sqf_part checks."""
    bound = 2 ** rng.randint(32, 64)
    return [rng.randint(-bound, bound) for _ in range(degree)] + [rng.choice([-1, 1]) * rng.randint(1, bound)]


def real_rooted_quadratic(rng):
    """(x - a)(b*x - c) with distinct rational roots a and c/b."""
    a, b = rng.randint(-9, 9), rng.randint(2, 9)
    c = rng.choice([c for c in range(-9, 10) if c != a * b])
    return _mul([-a, 1], [-c, b])


# (dense, squared factor) at the degrees of the roots pool; roots are counted
# against sympy's continued-fraction isolation, `Poly.intervals`, because its
# Sturm-based `count_roots` takes minutes at these sizes
LARGE = [(dense(random.Random(500 + d), d), real_rooted_quadratic(random.Random(600 + d))) for d in (60, 80, 100)]


@pytest.mark.parametrize("squared", [False, True], ids=["squarefree", "squared-factor"])
@pytest.mark.parametrize("p, f", LARGE, ids=[f"degree-{len(p) - 1}" for p, _ in LARGE])
def test_large_dense_inputs_match_sympy(p, f, squared):
    coeffs = _mul(p, _mul(f, f)) if squared else p
    expected_sf = primitive_positive(sympy.Poly(sympy.sqf_part(sym(coeffs).as_expr()), X))
    assert expected_sf == primitive_positive(sym(_mul(p, f) if squared else p))
    assert squarefree_part(upoly(coeffs)) == upoly(expected_sf)
    assert count_distinct_real_roots(upoly(coeffs)) == len(sym(coeffs).intervals())


@pytest.mark.parametrize("p, f", LARGE[:2], ids=["degree-60", "degree-80"])
def test_large_dense_gcd_matches_sympy(p, f):
    """A coprime pair, proved so modulo a prime, and the same pair times a
    common factor, whose gcd the small-primes loop finds."""
    q = dense(random.Random(len(p)), len(p) - 1)
    assert _gcd_cofactor(p, q)[0] == [1]
    assert primitive_positive(sympy.gcd(sym(p), sym(q))) == [1]
    pf, qf = _mul(p, f), _mul(q, f)
    assert _gcd_cofactor(pf, qf)[0] == primitive_positive(sympy.gcd(sym(pf), sym(qf)))


def near_multiple_of_p(rng):
    """Any residue, or an integer within 2 of a multiple of _P, zero included."""
    if rng.random() < 0.5:
        return rng.randrange(_P)
    return rng.choice([0, 1, 3, 2**40]) * _P + rng.randint(-2, 2)


def mod_p_operand(rng, degree):
    """Low-to-high coefficients with a leading coefficient that _P does not divide."""
    lc = near_multiple_of_p(rng)
    while not lc % _P:
        lc = near_multiple_of_p(rng)
    return [near_multiple_of_p(rng) for _ in range(degree)] + [lc]


# (deg a, deg b): degree gaps from 0 to 100, and deg a < deg b
MOD_P_DEGREES = [(db + gap, db) for gap in (0, 1, 2, 3, 7, 20, 50, 100) for db in (0, 1, 6)] + [(2, 5), (0, 3)]


@pytest.mark.parametrize("seed, da, db", [(i, da, db) for i, (da, db) in enumerate(MOD_P_DEGREES)])
def test_remainder_mod_p_matches_sympy(seed, da, db):
    rng = random.Random(700 + seed)
    a, b = mod_p_operand(rng, da), mod_p_operand(rng, db)
    mod_p = [sympy.Poly(list(reversed(c)), X, modulus=_P) for c in (a, b)]
    expected = [int(c) % _P for c in reversed(mod_p[0].rem(mod_p[1]).all_coeffs())]
    while expected and not expected[-1]:
        expected.pop()
    inv = pow(b[-1], -1, _P)
    assert _trim([c % _P for c in _prem(a, [c * inv % _P for c in b])]) == expected


@pytest.mark.parametrize("seed, da, db", [(i, da, db) for i, (da, db) in enumerate(MOD_P_DEGREES)])
def test_gcd_mod_p_matches_sympy(seed, da, db):
    # a common factor, so that the gcd is not always 1
    rng = random.Random(800 + seed)
    f = mod_p_operand(rng, rng.randint(0, 3))
    a, b = _mul(mod_p_operand(rng, da), f), _mul(mod_p_operand(rng, db), f)
    mod_p = [sympy.Poly(list(reversed(c)), X, modulus=_P) for c in (a, b)]
    expected = [int(c) % _P for c in reversed(mod_p[0].gcd(mod_p[1]).monic().all_coeffs())]
    assert _gcd_mod(a, b, _P) == expected


def test_primes_are_the_primes_below_p():
    primes = [_P]
    while len(primes) < 60:
        primes.append(sympy.prevprime(primes[-1]))
    assert list(islice(_primes(), 60)) == primes
