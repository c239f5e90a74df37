"""Univariate polynomials over the rationals: gcd, squarefree part, Sturm
sequences and exact counting of distinct real roots.

Polynomials hold Fraction coefficients; gcd, squarefree part and root
counting run on integer coefficient lists scaled by positive factors, so root
counts are exact.  The gcd, the integer Sturm chain and the textbook Sturm
chain are one remainder sequence over one pseudo-remainder kernel, the
fixed-step `_prem` that resultants in poly use too; the exact division of the
squarefree part runs the same loop.  Signs at plus or minus infinity are
read off leading coefficients and degree parity, never by evaluating at large
numbers; no chain member is zero, so the sign changes are counted between
neighbours.

The integer gcd of a and b first tries to prove them coprime from one image
modulo the prime _P (Brown, JACM 18, 1971): if _P does not divide lc(a) and
Euclid over GF(_P) ends in a constant, the gcd is 1; each of its remainders
is `_prem` by the monic image of the divisor, reduced.  This is exact: an
integer common factor G has lc(G) | lc(a), so G mod _P keeps its degree and
divides both images.  Otherwise the integer chain decides, so an unlucky
prime costs time, never a wrong answer; a squarefree input to root counting
builds its big-integer chain once, as the Sturm chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .poly import Monomial, Polynomial, Variable, _prem, _render, _trim


@dataclass(frozen=True)
class UnivariatePolynomial:
    """Dense univariate polynomial: coefficients[i] is the coefficient of
    variable**i; the leading stored coefficient is nonzero unless zero."""

    variable: Variable
    coefficients: tuple[Fraction, ...]

    @staticmethod
    def make(variable: Variable, coefficients: Iterable[Fraction | int]) -> "UnivariatePolynomial":
        return UnivariatePolynomial(variable, tuple(_trim([Fraction(c) for c in coefficients])))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coefficients[-1] if self.coefficients else Fraction(0)

    def derivative(self) -> "UnivariatePolynomial":
        return UnivariatePolynomial.make(self.variable, _derivative(self.coefficients))

    def __str__(self) -> str:
        """Exact rational coefficients, e.g. ``-1/3*x + 1/2``; not .poly input."""
        terms = {Monomial([(self.variable, i)]): c for i, c in enumerate(self.coefficients) if c}
        return _render(terms)


def to_univariate(p: Polynomial, v: Variable) -> UnivariatePolynomial:
    """View a multivariate polynomial involving at most ``v`` as univariate."""
    extra = p.variables() - {v}
    if extra:
        names = ", ".join(sorted(extra))
        raise ValueError(f"polynomial is not univariate in {v}: also uses {names}")
    coeffs = [Fraction(0)] * (p.degree_in(v) + 1)
    for m, c in p.terms.items():
        coeffs[m.degree_in(v)] = Fraction(c)
    return UnivariatePolynomial.make(v, coeffs)


# Coefficient-list kernels.  Integer chains take primitive parts to keep
# coefficient growth under control.


def _int_coeffs(p: UnivariatePolynomial) -> list[int]:
    """Coefficients scaled by a positive common denominator."""
    denom = lcm(*(c.denominator for c in p.coefficients))
    return [int(c * denom) for c in p.coefficients]


def _derivative(a) -> list:
    """Coefficients of the derivative."""
    return [i * c for i, c in enumerate(a) if i]


def _pp_ints(a: list[int]) -> list[int]:
    """Primitive part, sign preserved."""
    g = gcd(*a)
    return [c // g for c in a]


def _remainder_sequence(a: list, b: list, step) -> list[list]:
    """a, b, step(a, b), step(b, step(a, b)), ... up to the last nonzero member."""
    seq = [a]
    while b:
        seq.append(b)
        a, b = b, step(a, b)
    return seq


def _negated_prem(a: list, b: list) -> list:
    """Minus the remainder of a by b, times a positive factor (lc(b)^k for b
    made positive-leading, since rem(a, -b) = rem(a, b)); 1 when b is monic."""
    return [-c for c in _prem(a, b if b[-1] > 0 else [-c for c in b])]


def _int_chain_step(a: list[int], b: list[int]) -> list[int]:
    return _pp_ints(_negated_prem(a, b))


_P = 2**31 - 1  # a prime; the images in `_gcd_ints` are taken modulo it


def _rem_mod_p(a: list[int], b: list[int]) -> list[int]:
    """Remainder of a by b over GF(_P): `_prem` by the monic image of b,
    reduced modulo _P.  The remainder by a monic divisor is unique."""
    inv = pow(b[-1], -1, _P)
    return _trim([c % _P for c in _prem(a, [c * inv % _P for c in b])])


def _gcd_ints(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with positive leading coefficient; [1] at once when the
    images modulo _P prove the pair coprime (see the module docstring)."""
    a, b = _pp_ints(a), _pp_ints(b)
    if a and a[-1] % _P:
        images = [_trim([c % _P for c in a]), _trim([c % _P for c in b])]
        if len(_remainder_sequence(*images, _rem_mod_p)[-1]) == 1:
            return [1]
    g = _remainder_sequence(a, b, _int_chain_step)[-1]
    return g if not g or g[-1] > 0 else [-c for c in g]


def _exact_div_ints(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient of integer coefficient lists, by the loop of `_prem`
    without the scaling; raises ArithmeticError when b does not divide a."""
    lc, tail = b[-1], b[:-1]
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        c, rem = divmod(r.pop(), lc)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q[k] = c
        for i, bc in enumerate(tail, k):
            r[i] -= c * bc
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return q


def univariate_gcd(p: UnivariatePolynomial, q: UnivariatePolynomial) -> UnivariatePolynomial:
    """Gcd, normalized to integer-primitive with positive leading coefficient."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd of zeros")
    g = _gcd_ints(_int_coeffs(p), _int_coeffs(q))
    return UnivariatePolynomial.make(p.variable, g)


def squarefree_part(p: UnivariatePolynomial) -> UnivariatePolynomial:
    """p / gcd(p, p'): same distinct real roots, all multiplicities one."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    a = _pp_ints(_int_coeffs(p))
    sf = _exact_div_ints(a, _gcd_ints(a, _derivative(a)))
    if sf[-1] < 0:
        sf = [-c for c in sf]
    return UnivariatePolynomial.make(p.variable, sf)


def sturm_sequence(p: UnivariatePolynomial) -> list[UnivariatePolynomial]:
    """Canonical Sturm chain: s0 = p, s1 = p', then negated Euclidean
    remainders until the last nonzero member.

    Each remainder is the shared pseudo-remainder by the monic divisor, so it
    is exact and no rescaling is applied: signs are exactly those of the
    textbook chain.  A constant p gives [p]; a non-squarefree p gives a chain
    that stops at gcd(p, p') instead of a constant.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    chain = _remainder_sequence(
        p.coefficients, p.derivative().coefficients,
        lambda a, b: _negated_prem(a, [c / b[-1] for c in b]),
    )
    return [UnivariatePolynomial.make(p.variable, s) for s in chain]


def count_distinct_real_roots(p: UnivariatePolynomial) -> int:
    """Number of distinct real roots, by Sturm's theorem on the squarefree part."""
    if p.is_zero():
        raise ValueError("identically zero has infinitely many roots")
    if p.degree == 0:
        return 0
    sf = _int_coeffs(squarefree_part(p))
    # Integer Sturm chain; members are scaled by positive factors only, so
    # sign variations match the canonical chain exactly.  No member is zero:
    # a sign is "positive", flipped at minus infinity for an odd degree.
    chain = _remainder_sequence(sf, _pp_ints(_derivative(sf)), _int_chain_step)
    at_pos = [s[-1] > 0 for s in chain]
    at_neg = [pos ^ (len(s) % 2 == 0) for pos, s in zip(at_pos, chain)]
    return (sum(a != b for a, b in zip(at_neg, at_neg[1:]))
            - sum(a != b for a, b in zip(at_pos, at_pos[1:])))
