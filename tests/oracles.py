"""Independent oracles, kept deliberately separate from the library's own
algorithms: the resultant is recomputed here as an explicit Sylvester-matrix
determinant by division-free minor expansion, the graded-lex monomial order
as a comparison of dense exponent vectors, the polynomial product by merging
the exponents of every pair of terms, the Sturm chain and the integer gcd
by plain rational long division, and the projection set of an ordering, with
its sotd and ndrr values, from sympy's resultant, derivative, primitive part
and real-root isolation."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from cadorder import Monomial, Polynomial, PolySystem, Variable


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


def sympy_projection(system: PolySystem, ordering: tuple[Variable, ...]) -> list[list]:
    """The projection set of ``system`` under ``ordering`` as levels of sympy
    ``Poly``s over the system's variables in name order, the input level
    first, each level in no particular order.  Conventions, as documented in
    cadorder: the last variable of the ordering is eliminated first; a step
    keeps the members free of the eliminated variable v and adds, for the
    others, every coefficient in v, the discriminant res(p, dp/dv) of those of
    degree 2 or more, without division by the leading coefficient, and the
    resultant of every pair; each member is made primitive with a positive
    graded-lex leading coefficient, and constants and duplicates are dropped.
    Resultants are only taken between operands of positive degree, so the
    degree-0 conventions never arise, and the sign normalization makes
    sympy's resultant sign convention irrelevant."""
    import sympy

    gens = [sympy.Symbol(v) for v in system.variables]  # name order

    def reduce(exprs) -> list:
        out = {}
        for e in exprs:
            p = sympy.Poly(e, *gens, domain="ZZ").primitive()[1]
            if not p.is_ground:
                out[p if p.LC(order="grlex") > 0 else -p] = None
        return list(out)

    inputs = [sympy.Add(*[c * sympy.Mul(*[sympy.Symbol(v) ** e for v, e in m.exps])
                          for m, c in p.terms.items()]) for p in system.polynomials]
    levels = [reduce(inputs)]
    for v in reversed([sympy.Symbol(v) for v in ordering[1:]]):
        exprs = [p.as_expr() for p in levels[-1]]
        involving = [e for e in exprs if sympy.degree(e, v) > 0]
        produced = [e for e in exprs if sympy.degree(e, v) == 0]
        for e in involving:
            produced += sympy.Poly(e, v).all_coeffs()
            if sympy.degree(e, v) >= 2:
                produced.append(sympy.resultant(e, sympy.diff(e, v), v))
        for i, e in enumerate(involving):
            produced += [sympy.resultant(e, f, v) for f in involving[i + 1:]]
        levels.append(reduce(produced))
    return levels


def polynomial_of(p, variables: tuple[Variable, ...]) -> Polynomial:
    """A sympy ``Poly`` over ``variables`` (in that order) as a Polynomial."""
    return Polynomial({Monomial(zip(variables, es)): int(c) for es, c in p.terms()})


def sympy_sotd(levels: list[list]) -> int:
    """The total degrees of every monomial on every level, summed."""
    return sum(sum(es) for level in levels for p in level for es in p.monoms())


def sympy_ndrr(levels: list[list]) -> int:
    """The distinct real roots of the level-1 members, by sympy's isolation."""
    import sympy

    return sum(len(sympy.Poly(p.as_expr()).intervals()) for p in levels[-1])
