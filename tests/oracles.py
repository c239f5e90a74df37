"""Independent oracles, kept deliberately separate from the library's own
algorithms: the resultant is recomputed here as an explicit Sylvester-matrix
determinant by division-free minor expansion, the graded-lex monomial order
as a comparison of dense exponent vectors, the polynomial product by merging
the exponents of every pair of terms, and the Sturm chain and the integer
gcd by plain rational long division."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from cadorder import Monomial, Polynomial, Variable


def grlex_key(m: Monomial, var_order: tuple[Variable, ...]) -> tuple:
    """Graded-lex key over ``var_order``: the total degree, then the dense
    exponent vector (absent variables count as exponent 0)."""
    d = dict(m.exps)
    return (sum(d.values()), tuple(d.get(v, 0) for v in var_order))


def grlex_terms(p: Polynomial) -> list[tuple[Monomial, int]]:
    """Terms of p in descending graded-lex order over its name-sorted variables."""
    var_order = tuple(sorted({v for m in p.terms for v, _ in m.exps}))
    return sorted(p.terms.items(), key=lambda it: grlex_key(it[0], var_order), reverse=True)


def pair_merge_product(p: Polynomial, q: Polynomial) -> Polynomial:
    """p * q term pair by term pair, each monomial product merged in a dict
    of exponents: no packed keys and no Polynomial.__mul__."""
    out: dict[Monomial, int] = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            exps = dict(m1.exps)
            for v, e in m2.exps:
                exps[v] = exps.get(v, 0) + e
            m = Monomial(exps)
            out[m] = out.get(m, 0) + c1 * c2
    return Polynomial(out)


def sylvester_matrix(p: Polynomial, q: Polynomial, v: Variable) -> list[list[Polynomial]]:
    dp, dq = p.degree_in(v), q.degree_in(v)
    a = p.coefficients_wrt(v)  # index i = coefficient of v^i
    b = q.coefficients_wrt(v)
    n = dp + dq
    zero = Polynomial.zero()
    rows: list[list[Polynomial]] = []
    for shift in range(dq):
        row = [zero] * n
        for i, c in enumerate(reversed(a)):  # highest degree first
            row[shift + i] = c
        rows.append(row)
    for shift in range(dp):
        row = [zero] * n
        for i, c in enumerate(reversed(b)):
            row[shift + i] = c
        rows.append(row)
    return rows


def _determinant(rows: tuple[tuple[Polynomial, ...], ...]) -> Polynomial:
    """Division-free determinant by expansion along the first row, with
    memoization on the surviving column set."""
    n = len(rows)
    if n == 0:
        return Polynomial.constant(1)

    @lru_cache(maxsize=None)
    def minor(row: int, cols: frozenset[int]) -> Polynomial:
        if row == n:
            return Polynomial.constant(1)
        total = Polynomial.zero()
        sign = 1
        for col in sorted(cols):
            entry = rows[row][col]
            if not entry.is_zero():
                sub = minor(row + 1, cols - {col})
                term = entry * sub
                total = total + (term if sign > 0 else -term)
            sign = -sign
        return total

    return minor(0, frozenset(range(n)))


def sylvester_resultant(p: Polynomial, q: Polynomial, v: Variable) -> Polynomial:
    """Resultant as the exact Sylvester determinant (conventions: an empty
    matrix for two degree-0 operands has determinant 1; a degree-0 operand c
    against degree d gives the diagonal matrix with d copies of c)."""
    rows = sylvester_matrix(p, q, v)
    return _determinant(tuple(tuple(r) for r in rows))


def _trimmed(a: list) -> list:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _remainder(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of Fraction long division of a by b (both low-to-high)."""
    r = list(a)
    while len(r) >= len(b):
        q = r[-1] / b[-1]
        shift = len(r) - len(b)
        for i, c in enumerate(b):
            r[shift + i] -= q * c
        r = _trimmed(r[:-1])  # the leading term cancels exactly
    return r


def euclid_gcd(a: list[int], b: list[int]) -> list[int]:
    """Gcd of integer polynomials (low-to-high, not both zero) by the
    Euclidean remainder chain over the rationals alone, returned primitive
    with a positive leading coefficient; a constant gcd is [1]."""
    r0, r1 = _trimmed([Fraction(c) for c in a]), _trimmed([Fraction(c) for c in b])
    while r1:
        r0, r1 = r1, _remainder(r0, r1)
    denom = lcm(*(c.denominator for c in r0))
    ints = [int(c * denom) for c in r0]
    content = gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [c // content for c in ints]


def textbook_sturm(coeffs: list[Fraction]) -> list[list[Fraction]]:
    """Sturm chain of a nonzero polynomial given low-to-high: p, p', then
    each next member is minus the remainder of Fraction long division of
    the two before it, until that remainder is zero."""
    chain = [_trimmed(coeffs), _trimmed([i * c for i, c in enumerate(coeffs)][1:])]
    if not chain[-1]:
        return chain[:1]
    while True:
        r = _remainder(chain[-2], chain[-1])
        if not r:
            return chain
        chain.append([-c for c in r])
