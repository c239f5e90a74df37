"""Univariate polynomials over the rationals: gcd, squarefree part, Sturm
sequences and exact counting of distinct real roots.

Polynomials hold Fraction coefficients; gcd, squarefree part and root
counting run on integer coefficient lists scaled by positive factors, so root
counts are exact.  Signs at plus or minus infinity are read off leading
coefficients and degree parity, never by evaluating at large numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd as _int_gcd
from typing import Iterable

from .poly import Monomial, Polynomial, Variable


@dataclass(frozen=True)
class UnivariatePolynomial:
    """Dense univariate polynomial: coefficients[i] is the coefficient of
    variable**i; the leading stored coefficient is nonzero unless zero."""

    variable: Variable
    coefficients: tuple[Fraction, ...]

    @staticmethod
    def make(variable: Variable, coefficients: Iterable[Fraction | int]) -> "UnivariatePolynomial":
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return UnivariatePolynomial(variable, tuple(coeffs))

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
        return UnivariatePolynomial.make(
            self.variable,
            [i * c for i, c in enumerate(self.coefficients)][1:],
        )

    def __str__(self) -> str:
        return str(to_polynomial(self))


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


def to_polynomial(p: UnivariatePolynomial) -> Polynomial:
    """Integer-scale a univariate polynomial back to the sparse representation."""
    return Polynomial({
        Monomial([(p.variable, i)]): n for i, n in enumerate(_int_coeffs(p)) if n
    })


# Coefficient-list kernels.  Pseudo-remainders are scaled only by positive
# factors, so the sign pattern of a Sturm chain is preserved while coefficient
# growth stays under control.


def _int_coeffs(p: UnivariatePolynomial) -> list[int]:
    """Coefficients scaled by a positive common denominator."""
    denom = reduce(
        lambda a, b: a * b.denominator // _int_gcd(a, b.denominator),
        p.coefficients, 1,
    )
    return [int(c * denom) for c in p.coefficients]


def _pp_ints(a: list[int]) -> list[int]:
    """Primitive part, sign preserved."""
    while a and a[-1] == 0:
        a.pop()
    if not a:
        return a
    g = reduce(_int_gcd, (abs(c) for c in a), 0)
    return [c // g for c in a]


def _prem_pos(a: list[int], b: list[int]) -> list[int]:
    """Remainder of a by b times some positive factor, which is 1 when b is monic."""
    db, lc = len(b) - 1, b[-1]
    r = list(a)
    mult = abs(lc)
    while r and len(r) - 1 >= db:
        dr = len(r) - 1
        fac = r[-1] if lc > 0 else -r[-1]
        r = [mult * c for c in r]
        for i, bc in enumerate(b):
            r[i + dr - db] -= fac * bc
        while r and r[-1] == 0:
            r.pop()
    return r


def _gcd_ints(a: list[int], b: list[int]) -> list[int]:
    a, b = _pp_ints(list(a)), _pp_ints(list(b))
    while b:
        a, b = b, _pp_ints(_prem_pos(a, b))
    return a if not a or a[-1] > 0 else [-c for c in a]


def _exact_div_ints(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient of integer coefficient lists."""
    q = [0] * (len(a) - len(b) + 1)
    r = list(a)
    db, lc = len(b) - 1, b[-1]
    while r and len(r) - 1 >= db:
        shift = len(r) - 1 - db
        assert r[-1] % lc == 0
        c = r[-1] // lc
        q[shift] = c
        for i, bc in enumerate(b):
            r[i + shift] -= c * bc
        while r and r[-1] == 0:
            r.pop()
    assert not r
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
    if p.degree == 0:
        return UnivariatePolynomial.make(p.variable, [1])
    a = _pp_ints(_int_coeffs(p))
    da = [i * c for i, c in enumerate(a)][1:]
    sf = _exact_div_ints(a, _gcd_ints(a, da))
    if sf[-1] < 0:
        sf = [-c for c in sf]
    return UnivariatePolynomial.make(p.variable, sf)


def sturm_sequence(p: UnivariatePolynomial) -> list[UnivariatePolynomial]:
    """Canonical Sturm chain of a squarefree polynomial.

    s0 = p, s1 = p', then negated Euclidean remainders until the first
    constant.  No rescaling is applied, so signs are exactly those of the
    textbook chain.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    chain = [p]
    if p.degree >= 1:
        chain.append(p.derivative())
        while chain[-1].degree >= 1:
            b = chain[-1].coefficients
            rem = _prem_pos(chain[-2].coefficients, [c / b[-1] for c in b])
            if not rem:
                break  # not squarefree; chain stops at the gcd
            chain.append(UnivariatePolynomial.make(p.variable, [-c for c in rem]))
    return chain


def _sign_variations(signs: list[int]) -> int:
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a * b < 0)


def count_distinct_real_roots(p: UnivariatePolynomial) -> int:
    """Number of distinct real roots, by Sturm's theorem on the squarefree part."""
    if p.is_zero():
        raise ValueError("identically zero has infinitely many roots")
    if p.degree == 0:
        return 0
    sf = _int_coeffs(squarefree_part(p))
    # Integer Sturm chain; members are scaled by positive factors only, so
    # sign variations match the canonical chain exactly.
    chain = [sf, _pp_ints([i * c for i, c in enumerate(sf)][1:])]
    while len(chain[-1]) > 1:
        r = _prem_pos(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_pp_ints([-c for c in r]))
    at_pos = [1 if s[-1] > 0 else -1 for s in chain]
    at_neg = [
        sign if (len(s) - 1) % 2 == 0 else -sign
        for sign, s in zip(at_pos, chain)
    ]
    return _sign_variations(at_neg) - _sign_variations(at_pos)
