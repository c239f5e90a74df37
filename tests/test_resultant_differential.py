"""Differential tests of resultant and discriminant against sympy, on random
sparse operands in 2-4 variables.

The leading coefficient in the eliminated variable is drawn so that it often
vanishes somewhere (it has no constant term, or is a difference of
monomials), which is where a kernel that evaluates the other variables loses
degree.  Some pairs share a factor, so their resultant is zero, and some
operands do not involve the eliminated variable at all.

Conventions, as documented in cadorder.poly: ``resultant`` is the Sylvester
determinant; a degree-0 operand c against degree d gives c^d, and two
degree-0 operands give 1; a zero operand raises ValueError, where sympy
returns 0.  ``sympy.resultant(p, q)`` is the Sylvester determinant when
deg_v p >= deg_v q, and resultant(q, p) = (-1)^(deg p deg q) resultant(p, q)
otherwise: ``sympy.resultant(x + y, x**3 + 1, x)`` is y**3 - 1, while the
determinant, lc(p)^3 q(-y), is 1 - y**3.  ``discriminant(p, v)`` is
``resultant(p, dp/dv, v)``, which is the classical discriminant times
(-1)^(n(n-1)/2) lc(p) for n = deg_v p.
"""

import random

import pytest

from cadorder import Monomial, Polynomial, Variable, discriminant, resultant
from conftest import random_polynomial

sympy = pytest.importorskip("sympy")

VARIABLES = [Variable(n) for n in "xyzw"]
SYMBOLS = {v: sympy.Symbol(v) for v in VARIABLES}


def to_sympy(p: Polynomial):
    return sympy.Add(
        *[c * sympy.Mul(*[SYMBOLS[v] ** e for v, e in m.exps]) for m, c in p.terms.items()]
    )


def from_sympy(expr, variables) -> Polynomial:
    poly = sympy.Poly(expr, *[SYMBOLS[v] for v in variables], domain="ZZ")
    return Polynomial({Monomial(zip(variables, es)): int(c) for es, c in poly.terms()})


def vanishing_coefficient(rng, others):
    """A nonzero polynomial in ``others`` that is zero somewhere: a sparse
    polynomial without a constant term, or a difference of two monomials."""
    while True:
        if rng.random() < 0.5:
            a, b = (Polynomial.variable(rng.choice(others)) for _ in range(2))
            c = a ** rng.randint(1, 2) - rng.choice([1, 2]) * b ** rng.randint(0, 1)
        else:
            c = random_polynomial(rng, others, max_degree=2, max_terms=3)
            c = c - Polynomial.constant(sum(k for m, k in c.terms.items() if not m))
        if not c.is_zero():
            return c


def random_operand(rng, v, others):
    """Sparse in all variables, degree 0-3 in v, with a leading coefficient
    in v that vanishes somewhere about half the time."""
    degree = rng.choice([0, 1, 2, 2, 3, 3])
    V = Polynomial.variable(v)
    if rng.random() < 0.5:
        lead = vanishing_coefficient(rng, others)
    else:
        lead = random_polynomial(rng, others, max_degree=2, max_terms=2)
    p = lead * V**degree
    for i in rng.sample(range(degree), min(degree, rng.randint(0, 2))):
        p = p + random_polynomial(rng, others, max_degree=2, max_terms=2) * V**i
    return p


def sympy_resultant(p, q, v, variables) -> Polynomial:
    """sympy's resultant, with its sign brought to the Sylvester determinant's."""
    res = from_sympy(sympy.resultant(to_sympy(p), to_sympy(q), SYMBOLS[v]), variables)
    dp, dq = p.degree_in(v), q.degree_in(v)
    return (-1) ** (dp * dq) * res if dp < dq else res


def random_pair(rng):
    variables = rng.sample(VARIABLES, rng.randint(2, 4))
    v, others = variables[0], variables[1:]
    p, q = random_operand(rng, v, others), random_operand(rng, v, others)
    if rng.random() < 0.2:  # a common factor of positive degree: resultant 0
        f = random_operand(rng, v, others)
        if f.degree_in(v) > 0:
            p, q = p * f, q * f
    return p, q, v, sorted(variables)


@pytest.mark.parametrize("seed", range(60))
def test_resultant_matches_sympy(seed):
    p, q, v, variables = random_pair(random.Random(seed))
    assert resultant(p, q, v) == sympy_resultant(p, q, v, variables)


@pytest.mark.parametrize("seed", range(40))
def test_discriminant_matches_sympy(seed):
    rng = random.Random(1000 + seed)
    while True:
        p, _, v, variables = random_pair(rng)
        if p.degree_in(v) >= 2:
            break
    n = p.degree_in(v)
    lead = p.coefficients_wrt(v)[-1]
    classical = from_sympy(sympy.discriminant(to_sympy(p), SYMBOLS[v]), variables)
    assert discriminant(p, v) == (-1) ** (n * (n - 1) // 2) * lead * classical


def test_degree_zero_and_zero_operand_conventions():
    x, y = VARIABLES[:2]
    X, Y = Polynomial.variable(x), Polynomial.variable(y)
    cases = [(Y - 1, X**2 + Y), (X**3 - Y, Y**2), (Y, Polynomial.constant(3)), (X + Y, X**3 + 1)]
    for p, q in cases:
        assert resultant(p, q, x) == sympy_resultant(p, q, x, [x, y])
    assert resultant(X + Y, X**3 + 1, x) == 1 - Y**3
    for p, q in [(Polynomial.zero(), X + Y), (X * Y, Polynomial.zero())]:
        assert sympy.resultant(to_sympy(p), to_sympy(q), SYMBOLS[x]) == 0
        with pytest.raises(ValueError, match="zero operand"):
            resultant(p, q, x)
