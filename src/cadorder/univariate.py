"""Univariate polynomials over the rationals: gcd, squarefree part, Sturm
sequences and exact counting of distinct real roots.

Polynomials hold Fraction coefficients; gcd, squarefree part and root
counting run on integer coefficient lists scaled by positive factors, so root
counts are exact.  Every remainder comes from `_prem`, the fixed-step
pseudo-remainder that resultants in poly use too; by a monic divisor and with
a modulus it is the remainder over GF(p).  Signs at plus or minus infinity
are read off leading coefficients and degree parity.

The gcd of primitive a and b is built from its images modulo primes below
2^31 (Brown, JACM 18, 1971), from _P = 2^31 - 1 down, skipping any prime that
divides lc(a) lc(b).  Euclid over GF(p) gives a monic image, which is scaled
by gcd(lc a, lc b).  A common factor G keeps its degree modulo such a prime,
since lc(G) divides lc(a), so no image has a lower degree than G: an image of
degree 0 proves a and b coprime, and an image of more than the least degree
seen is unlucky and dropped.  The images of least degree are combined by the
Chinese remainder theorem in the symmetric range, and the primitive part is
returned once `_exact_div_ints` divides both a and b by it, which makes it
+-G; the squarefree part is that division's quotient of p by gcd(p, p').  An
unlucky prime costs time, never a wrong answer.

Root counting races two exact methods on the squarefree part and returns the
first count: Descartes bisection (Collins & Akritas 1976; Rouillier &
Zimmermann, JCAM 162, 2004) and Sturm's theorem on the integer remainder
chain.  Neither wins everywhere.  On dense inputs of degree 60 to 100 the
Sturm chain's big-integer remainders take over ten times as long as the
Taylor shifts of bisection; x^100 - 2(1000x - 1)^2 has two roots about
1e-153 apart, which bisection separates in hundreds of levels, while its
Sturm chain is a few short remainders.  Each method yields the modelled cost
of its next step before taking it, and the race advances whichever has spent
less, so it stays within about twice the faster method.  The costs depend on
degrees and coefficient bit lengths only, never on the clock, so counts and
operation counts are reproducible.  They are in nanoseconds, fitted to
per-step times over the benchmark's level-1 inputs on a 2-core host with
Python 3.11:

- a Taylor shift of degree d, largest coefficient of s bits:
  2800 + 390 d + d(d + 1)/2 (44 + 1.35 (s + d)/64), charged twice on a split;
- a Sturm step from a to b, of lengths la and lb and bit lengths sa and sb:
  4750 + lb (105 + 208 wr + 5 wr^2), where wr = (sa + (la - lb + 1) sb)/64
  is the word length of the pseudo-remainder's coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, count
from math import gcd, lcm
from operator import ne, or_
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
    coeffs = [0] * (p.degree_in(v) + 1)
    for m, c in p.terms.items():
        coeffs[m.degree_in(v)] = c
    return UnivariatePolynomial.make(v, coeffs)


# Coefficient-list kernels.  Integer chains take primitive parts to keep
# coefficient growth under control.


def _int_coeffs(p: UnivariatePolynomial) -> list[int]:
    """Coefficients scaled by a positive common denominator; the numerators
    themselves when every denominator is 1."""
    denom = lcm(*(c.denominator for c in p.coefficients))
    return [c.numerator * (denom // c.denominator) for c in p.coefficients]


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


def _bits(a: list[int]) -> int:
    return max(map(abs, a)).bit_length()


def _sign_changes(signs: list[bool]) -> int:
    return sum(map(ne, signs, signs[1:]))


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


_P = 2**31 - 1  # the first modulus of `_gcd_ints`
_PRIMES = [_P]  # primes below 2^31, descending, found as `_primes` needs them


def _is_prime(n: int) -> bool:
    """Miller-Rabin to bases 2, 3, 5 and 7, exact for odd 7 < n < 3.2e9."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    return all(pow(a, n >> s, n) == 1 or any(pow(a, (n >> s) << i, n) == n - 1 for i in range(s))
               for a in (2, 3, 5, 7))


def _primes():
    for i in count():
        if i == len(_PRIMES):
            n = _PRIMES[-1] - 2
            while not _is_prime(n):
                n -= 2
            _PRIMES.append(n)
        yield _PRIMES[i]


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over GF(p) of a and b, whose leading coefficients p does not
    divide: Euclid, each remainder `_prem` by the monic divisor."""
    def monic(u):
        inv = pow(u[-1], -1, p)
        return [c * inv % p for c in u]
    return monic(_remainder_sequence([c % p for c in a], [c % p for c in b],
                                     lambda u, v: _prem(u, monic(v), p))[-1])


def _gcd_ints(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with positive leading coefficient."""
    return _gcd_cofactor(a, b)[0]


def _gcd_cofactor(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(g, pp(a) / g) for g the primitive gcd with positive leading
    coefficient, by small primes (see the module docstring); the quotient is
    the one that proves g."""
    a, b = _pp_ints(a), _pp_ints(b)
    if len(a) < 2 or len(b) < 2:  # a zero or constant operand
        g = [1] if a and b else a or b
        if g and g[-1] < 0:
            g = [-c for c in g]
        return g, _exact_div_ints(a, g) if g else []
    lcg, lclc = gcd(a[-1], b[-1]), a[-1] * b[-1]
    size, m, image = min(len(a), len(b)) + 1, 1, []
    for p in _primes():
        if not lclc % p:
            continue
        h = _gcd_mod(a, b, p)
        if len(h) == 1:
            return [1], a
        if len(h) < size:  # every earlier image was unlucky
            size, m, image = len(h), 1, [0] * len(h)
        elif len(h) > size:  # this one is
            continue
        t = pow(m, -1, p)
        image = [c + m * ((lcg * d - c) * t % p) for c, d in zip(image, h)]
        m *= p
        g = _pp_ints([c - m if 2 * c > m else c for c in image])
        try:
            q, _ = _exact_div_ints(a, g), _exact_div_ints(b, g)
        except ArithmeticError:
            continue
        return (g, q) if g[-1] > 0 else ([-c for c in g], [-c for c in q])


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
    _, sf = _gcd_cofactor(a, _derivative(a))
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


def _sturm(f: list[int]):
    """Sturm's theorem on the integer chain of squarefree f, one remainder
    per step, each step's modelled cost yielded before it runs.  Members are
    scaled by positive factors only, so sign variations match the canonical
    chain; only the sign of each leading coefficient and the length are
    kept.  No member is zero; at minus infinity a sign flips for odd degree."""
    a, b = f, _pp_ints(_derivative(f))
    lcs, sa = [(a[-1] > 0, len(a))], _bits(a)
    while b:
        lcs.append((b[-1] > 0, len(b)))
        lb, sb = len(b), _bits(b)
        wr = (sa + (len(a) - lb + 1) * sb) / 64
        yield 4750 + lb * (105 + 208 * wr + 5 * wr * wr)
        a, b, sa = b, _pp_ints(_negated_prem(a, b)), sb
    return (_sign_changes([pos ^ (n % 2 == 0) for pos, n in lcs])
            - _sign_changes([pos for pos, _ in lcs]))


def _taylor_shift(a: list[int]) -> list[int]:
    """a(x + 1): d + 1 synthetic divisions by x - 1, each a prefix sum."""
    h, out = a[::-1], []
    while h:
        h = list(accumulate(h))
        out.append(h.pop())
    return out


def _descartes(f: list[int]):
    """Descartes bisection on squarefree f, each Taylor shift's modelled cost
    yielded before it runs.  By Descartes' rule a polynomial with 0 or 1 sign
    variations has that many positive roots.  f and f(-x) are tried first;
    a half with more is scaled into (0, 1) by the root bound
    2^k >= 1 + max|f_i| / |lc f|.  A node g on (0, 1) has as many roots as
    rev(g)(x + 1) has variations, if 0 or 1; otherwise it splits into
    2^d g(x/2) and 2^d g((x + 1)/2), less their common power of two, and a
    root at the midpoint is counted exactly."""
    roots, stack = 0, []
    if not f[0]:
        roots, f = 1, f[1:]
    k = (-(-max(map(abs, f[:-1]), default=0) // abs(f[-1]))).bit_length()
    for h in (f, [-c if i % 2 else c for i, c in enumerate(f)]):
        v = _sign_changes([c > 0 for c in h if c])
        if v < 2:
            roots += v
        else:
            stack.append([c << i * k for i, c in enumerate(h)])
    while stack:
        g = stack.pop()
        d = len(g) - 1
        cost = 2800 + 390 * d + d * (d + 1) / 2 * (44 + 1.35 * (_bits(g) + d) / 64)
        yield cost
        v = _sign_changes([c > 0 for c in _taylor_shift(g[::-1]) if c])
        if v == 1:
            roots += 1
        elif v > 1:
            yield cost
            left = [c << d - i for i, c in enumerate(g)]
            twos = reduce(or_, left)
            left = [c >> (twos & -twos).bit_length() - 1 for c in left]
            right = _taylor_shift(left)
            if not right[0]:
                roots, right = roots + 1, right[1:]
            stack += left, right
    return roots


def _race(*methods):
    """The value of the first method to return.  Each step goes to the
    method that has spent the least so far, in the costs the methods yield."""
    spent = [0.0] * len(methods)
    while True:
        i = spent.index(min(spent))
        try:
            spent[i] += next(methods[i])
        except StopIteration as done:
            return done.value


def count_distinct_real_roots(p: UnivariatePolynomial) -> int:
    """Number of distinct real roots of p: Descartes bisection raced against
    Sturm's theorem on the squarefree part."""
    if p.is_zero():
        raise ValueError("identically zero has infinitely many roots")
    if p.degree == 0:
        return 0
    sf = _int_coeffs(squarefree_part(p))
    return _race(_descartes(sf), _sturm(sf))
