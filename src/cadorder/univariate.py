"""Univariate polynomials over the integers: squarefree part, Sturm
sequences and exact counting of distinct real roots.

Coefficients are ints.  Gcd, squarefree part, Sturm chain and root counting
run on integer coefficient lists scaled by positive factors, so root counts
are exact.  Every remainder comes from `_prem`, the fixed-step
pseudo-remainder that resultants in poly use too; by a monic divisor and
reduced mod p it is the remainder over GF(p).  One lazy generator,
`_sturm_chain`, computes the Sturm chain: `sturm_sequence` lists its
members and root counting runs it.  Signs at plus or minus infinity are
read off leading coefficients and degree parity.

`_gcd_cofactor` takes the primitive parts of a and b and builds their gcd from
its images modulo primes below 2^31 (Brown, JACM 18, 1971), from _P = 2^31 - 1
down, skipping any prime that divides lc(a) lc(b).  Euclid over GF(p) gives a
monic image, which is scaled by gcd(lc a, lc b).  A common factor G keeps its
degree modulo such a prime, since lc(G) divides lc(a), so no image has a lower
degree than G: an image of degree 0 proves a and b coprime, and an image of
more than the least degree seen is unlucky and dropped.  The images of least
degree are combined by the Chinese remainder theorem in the symmetric range,
and the primitive part is returned once `_exact_div_ints` divides both a and b
by it, which makes it +-G; the squarefree part is that division's quotient of
p by gcd(p, p').  An unlucky prime costs time, never a wrong answer.

Root counting races two exact methods on the squarefree part and returns the
first count: Descartes' rule of signs in continued fractions (Akritas &
Strzeboński, Nonlinear Analysis: Modelling and Control 10, 2005) and Sturm's
theorem on the integer remainder chain.  Neither wins everywhere.  On dense
inputs of degree 60 to 100 the Sturm chain's big-integer remainders take
hundreds of times as long as the Taylor shifts of continued fractions;
x^100 - 2(1000x - 1)^2 has two roots about 1e-153 apart, which continued
fractions separate in 50 shifts, while its Sturm chain is four short
remainders.  Each method yields the modelled cost of its next step before
taking it, and the race advances whichever has spent less, so it stays
within twice the faster method plus one step of the slower.  The costs depend
on degrees and coefficient bit lengths only, never on the clock, so counts
and operation counts are reproducible.  They are in nanoseconds, fitted to
per-step times over the benchmark's level-1 inputs on a 2-core host with
Python 3.11:

- a Taylor shift of degree d, largest coefficient of s bits:
  2800 + 390 d + d(d + 1)/2 (44 + 1.35 (s + d)/64), charged the same for
  the shift to g(2^k x + 2^k), on the scaled coefficients;
- a Sturm step from a to b, of lengths la and lb and bit lengths sa and sb:
  4750 + lb (105 + 208 wr + 5 wr^2), where wr = (sa + (la - lb + 1) sb)/64
  is the word length of the pseudo-remainder's coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, count, pairwise
from math import gcd
from operator import ne
from typing import Iterable

from .poly import Monomial, Polynomial, Variable, _prem, _trim


@dataclass(frozen=True)
class UnivariatePolynomial:
    """Dense univariate polynomial: coefficients[i], an int, is the
    coefficient of variable**i, and the last stored one is nonzero."""

    variable: Variable
    coefficients: tuple[int, ...]

    def __post_init__(self):
        if self.coefficients and not self.coefficients[-1]:
            raise ValueError("the last stored coefficient is 0")

    @staticmethod
    def make(variable: Variable, coefficients: Iterable[int]) -> "UnivariatePolynomial":
        """Raises TypeError for a coefficient that is not an int; a bool is one."""
        coeffs = list(coefficients)
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"coefficient is not an integer: {type(c).__name__}")
        return UnivariatePolynomial(variable, tuple(_trim([int(c) for c in coeffs])))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def __str__(self) -> str:
        """Infix text, e.g. ``7*x^3 - x``, as ``str(Polynomial)`` writes it."""
        return str(Polynomial({Monomial({self.variable: i}): c for i, c in enumerate(self.coefficients)}))


def to_univariate(p: Polynomial, v: Variable) -> UnivariatePolynomial:
    """View a multivariate polynomial involving at most ``v`` as univariate."""
    return UnivariatePolynomial(v, p.univariate_coefficients(v))


# Coefficient-list kernels.  Integer chains take primitive parts to keep
# coefficient growth under control.


def _derivative(a) -> list:
    """Coefficients of the derivative."""
    return [i * c for i, c in enumerate(a) if i]


def _pp_ints(a: list[int]) -> list[int]:
    """Primitive part, sign preserved."""
    g = gcd(*a)
    return [c // g for c in a]


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


_P = 2**31 - 1  # the first modulus of `_gcd_cofactor`
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
    divide: Euclid, each remainder `_prem` by the monic divisor, reduced mod p
    (a ring homomorphism, so it is the remainder over GF(p))."""
    def monic(u):
        inv = pow(u[-1], -1, p)
        return [c * inv % p for c in u]
    a, b = [c % p for c in a], [c % p for c in b]
    while b:
        a, b = b, _trim([c % p for c in _prem(a, monic(b))])
    return monic(a)


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


def squarefree_part(p: UnivariatePolynomial) -> UnivariatePolynomial:
    """p / gcd(p, p'): same distinct real roots, all multiplicities one."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    _, sf = _gcd_cofactor(p.coefficients, _derivative(p.coefficients))
    if sf[-1] < 0:
        sf = [-c for c in sf]
    return UnivariatePolynomial(p.variable, tuple(sf))


def _sturm_chain(f):
    """The integer Sturm chain of f: f, pp(f'), then the primitive part of
    minus the pseudo-remainder of the two members before, until the last
    nonzero member.  Dividing by -b instead of b when lc(b) < 0 leaves the
    remainder unchanged and makes its factor lc(b)^k positive.  Each member
    is computed only once the one before it has been taken, so a race that
    stops the Sturm side computes none of its later remainders."""
    a, b = f, _pp_ints(_derivative(f))
    yield a
    while b:
        yield b
        a, b = b, _pp_ints([-c for c in _prem(a, b if b[-1] > 0 else [-c for c in b])])


def sturm_sequence(p: UnivariatePolynomial) -> list[UnivariatePolynomial]:
    """The members of `_sturm_chain`, the chain whose remainders `_sturm`
    computes for root counting.  Each member after p is the textbook one
    (negated Euclidean remainders over the rationals) made primitive by a
    positive factor, so sign variations match the textbook chain.  A
    constant p gives [p]; a non-squarefree p gives a chain that stops at
    gcd(p, p') instead of a constant.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    return [UnivariatePolynomial(p.variable, tuple(s)) for s in _sturm_chain(p.coefficients)]


def _sturm(f: list[int]):
    """Sturm's theorem on `_sturm_chain(f)` for squarefree f: the modelled
    cost of each remainder is yielded before the chain computes it, and
    only the sign of each leading coefficient and the length are kept.  No
    member is zero; at minus infinity a sign flips for odd degree."""
    lcs = [(f[-1] > 0, len(f))]
    for a, b in pairwise(_sturm_chain(f)):
        lcs.append((b[-1] > 0, len(b)))
        wr = (_bits(a) + (len(a) - len(b) + 1) * _bits(b)) / 64
        yield 4750 + len(b) * (105 + 208 * wr + 5 * wr * wr)
    return (_sign_changes([pos ^ (n % 2 == 0) for pos, n in lcs])
            - _sign_changes([pos for pos, _ in lcs]))


def _taylor_shift(a: list[int]) -> list[int]:
    """a(x + 1): d + 1 synthetic divisions by x - 1, each a prefix sum."""
    h, out = a[::-1], []
    while h:
        h = list(accumulate(h))
        out.append(h.pop())
    return out


def _shift_cost(g: list[int]) -> float:
    d = len(g) - 1
    return 2800 + 390 * d + d * (d + 1) / 2 * (44 + 1.35 * (_bits(g) + d) / 64)


def _variations(g: list[int]) -> int:
    return _sign_changes([c > 0 for c in g if c])


def _descartes(f: list[int]):
    """Descartes' rule of signs in continued fractions (Akritas & Strzeboński,
    Nonlinear Analysis: Modelling and Control 10, 2005) on squarefree f, each
    Taylor shift's modelled cost yielded before it runs.  A node with 0 or 1
    sign variations has that many positive roots; f and f(-x) are the first
    two.  A node g with more becomes g(2^s x + 2^s) when 2^s >= 2 bounds its
    positive roots below (Kioustelidis' bound on rev(g), read from bit
    lengths); otherwise it splits into g(x + 1), for its roots above 1, and
    (x + 1)^d g(1/(x + 1)), for those in (0, 1).  By Budan's theorem the
    second has as many as g has sign variations more than g(x + 1), less one
    for a root at 1 and an even number, so 0 or 1 settles it with no shift.
    A root that a shift puts on 0 is counted once, as a root at 0 of a node."""
    roots = 0
    if not f[0]:
        roots, f = 1, f[1:]
    stack = [f, [-c if i % 2 else c for i, c in enumerate(f)]]
    while stack:
        g = stack.pop()
        if not g[0]:
            roots, g = roots + 1, g[1:]
        v = _variations(g)
        if v < 2:
            roots += v
            continue
        b0, pos = abs(g[0]).bit_length(), g[0] > 0
        s = min((b0 - abs(c).bit_length() - 1) // k for k, c in enumerate(g) if c and (c < 0) == pos) - 1
        if s > 0:
            g = [c << i * s for i, c in enumerate(g)]
            yield _shift_cost(g)
            stack.append(_taylor_shift(g))
            continue
        cost = _shift_cost(g)
        yield cost
        right = _taylor_shift(g)
        stack.append(right)
        v -= _variations(right) + (not right[0])  # roots in (0, 1), less an even number
        if v == 1:
            roots += 1
        elif v:
            yield cost
            left = _taylor_shift(g[::-1])  # a root at 1 is right's, not left's
            stack.append(left if left[0] else left[1:])
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
    """Number of distinct real roots of p: Descartes' rule of signs in
    continued fractions (Akritas & Strzeboński 2005) raced against Sturm's
    theorem on the squarefree part."""
    if p.is_zero():
        raise ValueError("identically zero has infinitely many roots")
    sf = squarefree_part(p).coefficients
    return _race(_descartes(sf), _sturm(sf))
