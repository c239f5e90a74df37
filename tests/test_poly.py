import math
import random
import re
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadorder import (
    Monomial, Polynomial, PolySystem, Variable, canonicalize, discriminant, full_projection, parse_system, resultant,
)
from cadorder.poly import _LOOP_MAX_TERMS, _joint, _kronecker_resultant, _prem, exact_div, generators
from conftest import random_polynomial
from oracles import (
    grlex_terms, pair_merge_product, sylvester_resultant, tuple_canonicalize, tuple_coefficients_wrt,
    tuple_degree_in, tuple_derivative, tuple_exact_div, tuple_leading_coefficient, tuple_power, tuple_product,
    tuple_str, tuple_sum,
)

x, y, z = Variable("x"), Variable("y"), Variable("z")
X, Y, Z = Polynomial.variable(x), Polynomial.variable(y), Polynomial.variable(z)


class TestBasics:
    def test_degree_in(self):
        assert (Y**2 * Z + 1).degree_in(y) == 2
        assert (X**4 + Y).degree_in(z) == 0
        assert Polynomial.zero().degree_in(x) == 0

    def test_total_degree(self):
        assert (Y**2 * Z + 1).total_degree() == 3
        assert Polynomial.constant(7).total_degree() == 0
        assert (X**4 + Y).total_degree() == 4

    def test_coefficients_wrt(self):
        assert (X**2 + Y).coefficients_wrt(x) == [Y, Polynomial.zero(), Polynomial.constant(1)]
        assert (X**2 + Y).coefficients_wrt(y) == [X**2, Polynomial.constant(1)]
        assert Polynomial.constant(5).coefficients_wrt(x) == [Polynomial.constant(5)]

    def test_derivative(self):
        assert (X**2 + Y).derivative(x) == 2 * X
        assert (Y**2 * Z + 1).derivative(y) == 2 * Y * Z
        assert Polynomial.constant(7).derivative(x) == Polynomial.zero()

    def test_equality_ignores_construction_order(self):
        assert X + Y == Y + X
        assert hash(X * Y + 1) == hash(1 + Y * X)


class TestPower:
    @pytest.mark.parametrize("n, products", [(0, 0), (1, 0), (2, 1), (3, 2), (5, 3), (8, 3)])
    def test_squares_only_while_bits_remain(self, monkeypatch, n, products):
        p = X + 2 * Y - 1
        calls = []
        mul = Polynomial.__mul__
        monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        got = p**n
        monkeypatch.undo()
        assert len(calls) == products
        expected = Polynomial.constant(1)
        for _ in range(n):
            expected = expected * p
        assert got == expected

    def test_negative_exponent(self):
        with pytest.raises(ValueError, match="^negative polynomial power$"):
            X ** -1

    def test_exponent_of_any_length(self):
        # one square per bit of n, in a loop: no recursion depth to exceed
        assert Polynomial.constant(1) ** (10**400 - 1) == Polynomial.constant(1)


class TestValueSemantics:
    def test_variable_is_its_name(self):
        assert Variable("x") == "x" and hash(Variable("x")) == hash("x")
        assert x.name == "x" and repr(x) == "Variable(name='x')"
        for bad in ("", "2x", "x-y", "\u00e9"):
            with pytest.raises(ValueError, match="invalid variable name"):
                Variable(bad)

    @settings(max_examples=500, deadline=None)
    @given(st.text(st.sampled_from("aZ_09 -\n\t\x00éßǅⅨ٣"), max_size=4))
    def test_variable_names_are_ascii_identifiers(self, name):
        # the oracle spells out an ASCII identifier; é, ß, ǅ, Ⅸ and ٣ are
        # identifier characters to str.isidentifier, but not ASCII
        valid = re.match(r"[A-Za-z_][A-Za-z0-9_]*\Z", name) is not None
        try:
            Variable(name)
        except ValueError:
            assert not valid, name
        else:
            assert valid, name

    def test_monomial_is_its_pair_tuple(self):
        pairs = ((x, 2), (y, 1))
        built = [
            Monomial({y: 1, x: 2}),
            Monomial([(z, 0), (y, 1), (x, 2)]),
            Monomial([*Monomial([(x, 2)]), *Monomial([(y, 1)])]),
        ]
        for m in built:
            assert m == pairs and hash(m) == hash(pairs)
            assert m.exps == pairs
        with pytest.raises(ValueError, match="negative exponent"):
            Monomial({x: -1})
        assert repr(Monomial(pairs)) == "Monomial(x^2*y^1)" and repr(Monomial(())) == "Monomial(1)"

    def test_repeated_variable_is_summed(self):
        m = Monomial([(x, 1), (y, 3), (x, 1)])
        assert m == Monomial({x: 2, y: 3}) and m.exps == ((x, 2), (y, 3))
        assert dict(m)[x] == 2 and m.total_degree == 5
        assert (Polynomial({Monomial([(x, 1), (x, 1)]): 1}) - X**2).is_zero()
        assert Monomial([(x, 1), (x, 0), (y, 0)]) == Monomial({x: 1})

    def test_any_mapping(self):
        assert Monomial(MappingProxyType({y: 1, x: 2})) == ((x, 2), (y, 1))


class TestRingLaws:
    def test_random_ring_laws(self):
        rng = random.Random(1)
        for _ in range(100):
            p = random_polynomial(rng, [x, y], max_degree=3, nonzero=False)
            q = random_polynomial(rng, [x, y], max_degree=3, nonzero=False)
            r = random_polynomial(rng, [x, y], max_degree=3, nonzero=False)
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r

    def test_leibniz_rule(self):
        rng = random.Random(2)
        for _ in range(100):
            p = random_polynomial(rng, [x, y], max_degree=3)
            q = random_polynomial(rng, [x, y], max_degree=3)
            lhs = (p * q).derivative(x)
            rhs = p.derivative(x) * q + p * q.derivative(x)
            assert lhs == rhs


class TestTermOrder:
    def test_render_order_matches_dense_grlex(self):
        rng = random.Random(8)
        for _ in range(300):
            p = random_polynomial(rng, [x, y, z], max_degree=4, max_terms=6)
            chunks = re.split(r" [+-] ", str(p).lstrip("-"))
            rendered = [next(iter(parse_system(c).polynomials[0].terms)) for c in chunks]
            assert rendered == [m for m, _ in grlex_terms(p)]

    def test_leading_coefficient_matches_dense_grlex(self):
        rng = random.Random(9)
        for _ in range(300):
            p = random_polynomial(rng, [x, y, z], max_degree=4, max_terms=6)
            assert p.leading_coefficient() == grlex_terms(p)[0][1]
        assert Polynomial.zero().leading_coefficient() == 0


class TestExactDiv:
    def test_recovers_factor(self):
        rng = random.Random(10)
        for _ in range(200):
            p = random_polynomial(rng, [x, y, z], max_degree=3, max_terms=5)
            d = random_polynomial(rng, rng.choice([[x, y, z], [x, z], [y]]), max_degree=3)
            assert exact_div(p * d, d) == p

    def test_divisor_lacking_variables(self):
        assert exact_div((X * Y + Z) * (X**2 - 3), X**2 - 3) == X * Y + Z
        assert exact_div(6 * X * Y - 4 * Z, Polynomial.constant(2)) == 3 * X * Y - 2 * Z
        assert exact_div(Polynomial.zero(), X + 1) == Polynomial.zero()
        p = 6 * X * Y - 4 * Z
        assert exact_div(p, Polynomial.constant(1)) is p

    def test_inexact_raises(self):
        with pytest.raises(ArithmeticError, match="inexact"):
            exact_div(X**2 + 1, X + 1)
        with pytest.raises(ArithmeticError, match="inexact"):
            exact_div(3 * X, 2 * X)
        with pytest.raises(ArithmeticError, match="inexact"):
            exact_div(Y, X)
        with pytest.raises(ArithmeticError, match="^inexact polynomial division$"):
            exact_div(6 * X * Y - 3 * Z, Polynomial.constant(2))  # a constant that does not divide

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(X + 1, Polynomial.zero())


# Small exponents, powers of two and one below them; and exponents at the
# 16-bit field's guard bit: a total degree of 2^15 - 1 fits the field, and one
# of 2^15 or more widens the layout.
_BOUNDARY_EXPONENTS = sorted({0, 1, 2, 3} | {2**k - 1 for k in range(1, 8)} | {2**k for k in range(1, 8)})
_GUARD_EXPONENTS = [2**14 - 1, 2**14, 2**15 - 1, 2**15]
_KERNEL_VARIABLES = [Variable(n) for n in "abcdefg"]


@st.composite
def sparse_polynomials(draw, variables, min_terms=1, max_terms=4, wide=()):
    """Nonzero polynomials over ``variables`` with min_terms to max_terms
    terms, most exponents zero and the others small; a variable in ``wide``
    has an exponent of 0 or one at a guard bit."""
    exponent = st.one_of(st.just(0), st.just(0), st.sampled_from(_BOUNDARY_EXPONENTS))
    wide_exponent = st.one_of(st.just(0), st.sampled_from(_GUARD_EXPONENTS))
    monomial = st.tuples(*[wide_exponent if v in wide else exponent for v in variables]).map(
        lambda es: Monomial(zip(variables, es))
    )
    monomials = draw(st.lists(monomial, min_size=min_terms, max_size=max_terms, unique=True))
    coeffs = draw(
        st.lists(
            st.integers(-(2**70), 2**70).filter(bool), min_size=len(monomials), max_size=len(monomials)
        )
    )
    return Polynomial(dict(zip(monomials, coeffs)))


@st.composite
def mixed_operands(draw, max_terms=6):
    """A nonzero polynomial over 0-4 of a, b, c, d, the exponents of d up to
    2^15, packed in a layout of its own variables or in the layout of a
    system over all four."""
    variables = draw(st.lists(st.sampled_from(_KERNEL_VARIABLES[:4]), max_size=4, unique=True))
    p = draw(sparse_polynomials(variables, 1, max_terms, wide=_KERNEL_VARIABLES[3:4]))
    return PolySystem.make([p], _KERNEL_VARIABLES[:4]).polynomials[0] if draw(st.booleans()) else p


@st.composite
def operand_pairs(draw):
    """Two polynomials, in different layouts or one, of up to 14 terms each."""
    return draw(mixed_operands(14)), draw(mixed_operands(14))


@st.composite
def layout_pairs(draw, shared):
    """Two polynomials of up to 14 terms over 0-4 of a, b, c, d, each packed
    in a layout of its own variables, or (``shared``) both repacked into the
    one layout of a system over all four."""
    pair = []
    for _ in range(2):
        variables = draw(st.lists(st.sampled_from(_KERNEL_VARIABLES[:4]), max_size=4, unique=True))
        pair.append(draw(sparse_polynomials(variables, 1, 14, wide=_KERNEL_VARIABLES[3:4])))
    if shared:
        system = PolySystem.make(pair, _KERNEL_VARIABLES[:4]).polynomials
        pair = [system[0], system[-1]]  # one polynomial if the two are equal
    return tuple(pair)


# "pair-merge": the kernel first merges the pair of layouts the operands are
# packed in; "packed": both operands are packed in one layout already.
_LAYOUT_IDS = ["pair-merge", "packed"]


class TestPackedKernels:
    @pytest.mark.parametrize("shared", [False, True], ids=_LAYOUT_IDS)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_product_matches_pair_merge(self, shared, data):
        a, b = data.draw(layout_pairs(shared))
        assert a * b == pair_merge_product(a, b)
        assert b * a == pair_merge_product(a, b)

    @pytest.mark.parametrize("shared", [False, True], ids=_LAYOUT_IDS)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_exact_div_recovers_factor(self, shared, data):
        a, b = data.draw(layout_pairs(shared))
        assert exact_div(a * b, b) == a
        assert exact_div(a * b, a) == b

    @settings(max_examples=40, deadline=None)
    @given(d=sparse_polynomials(_KERNEL_VARIABLES[:3], 1, 6))
    def test_zero_dividend(self, d):
        assert exact_div(Polynomial.zero(), d) == Polynomial.zero()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_inexact_trailing_term_raises(self, data):
        variables = _KERNEL_VARIABLES[: data.draw(st.integers(1, 7))]
        a = data.draw(sparse_polynomials(variables, 1, 10))
        d = data.draw(sparse_polynomials(variables, 1, 10).filter(lambda p: not p.is_constant()))
        with pytest.raises(ArithmeticError, match="inexact"):
            exact_div(a * d + 1, d)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_leading_monomial_short_in_one_variable_raises(self, data):
        variables = _KERNEL_VARIABLES[: data.draw(st.integers(2, 7))]
        d = data.draw(sparse_polynomials(variables, 1, 6).filter(lambda p: not p.is_constant()))
        lead = grlex_terms(d)[0][0]
        short = data.draw(st.sampled_from([v for v, _ in lead.exps]))
        other = data.draw(st.sampled_from([v for v in variables if v != short]))
        # Move part of the short variable's exponent, plus some, onto another
        # variable: the total degree is enough, the exponent of ``short`` is not.
        exps = dict(lead.exps)
        moved = data.draw(st.integers(1, exps[short]))
        exps[short] -= moved
        exps[other] = exps.get(other, 0) + moved + data.draw(st.integers(0, 3))
        cofactor = data.draw(sparse_polynomials([v for v in variables if v != short], 1, 4))
        p = Polynomial({Monomial(exps): 1}) * cofactor
        with pytest.raises(ArithmeticError, match="inexact"):
            exact_div(p, d)
        with pytest.raises(ArithmeticError, match="inexact"):
            exact_div(Polynomial({Monomial(exps): 1}), Polynomial({lead: 1}))

    def test_short_in_one_variable_examples(self):
        for p, d in [(Y**3, X * Y), (X**5 * Z, X * Y * Z), (Y**2 + X, X * Y + 1)]:
            with pytest.raises(ArithmeticError, match="inexact"):
                exact_div(p, d)


def assert_well_formed(r):
    """No stored zero, equal to a fresh construction, and the text of its
    terms."""
    assert all(r.terms.values())
    assert r == Polynomial(dict(r.terms))
    assert str(r) == tuple_str(r.terms)


@st.composite
def top_degree_ties(draw):
    """Polynomials in x, y, z with two or more terms of the top total degree."""
    d = draw(st.integers(1, 6))
    top = [Monomial({x: i, y: j, z: d - i - j}) for i in range(d + 1) for j in range(d + 1 - i)]
    low = [Monomial({x: i, z: j}) for i in range(d) for j in range(d - i)]
    monomials = draw(st.lists(st.sampled_from(top), min_size=2, unique=True)) + draw(st.lists(st.sampled_from(low)))
    return Polynomial({m: draw(st.integers(-9, 9).filter(bool)) for m in monomials})


class TestTrustedConstruction:
    """Operations that build a Polynomial from a dict without the zero filter."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_results_hold_no_zero(self, data):
        a, b = data.draw(operand_pairs())
        k = data.draw(st.integers(-3, 3))
        c = Polynomial.constant(data.draw(st.integers(-(2**70), 2**70).filter(bool)))
        results = [a + b, a - b, a - a, a + (-a), -a, a * k, k * a, a * c, c * a, a * b, a**2, c**3]
        results += a.coefficients_wrt(_KERNEL_VARIABLES[0]) + [a.derivative(_KERNEL_VARIABLES[0])]
        results += [canonicalize(a), canonicalize(a * b)]
        results += [exact_div(a * c, c), exact_div(a * b, b), exact_div(a, Polynomial.constant(1))]
        for r in results:
            assert_well_formed(r)

    # `resultant` keeps the loop at most 7 terms in all and substitutes from
    # 8; on the Kronecker route the one polynomial decoded is the resultant.
    @pytest.mark.parametrize(
        "kronecker, coefficients, terms", [(False, (1, 2), (1, 2)), (True, (3, 4), (3, 4))], ids=["loop", "kronecker"]
    )
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_pseudo_remainders_hold_no_zero(self, kronecker, coefficients, terms, data):
        monomial = st.tuples(st.integers(0, 2), st.integers(0, 2)).map(lambda t: Monomial({y: t[0], z: t[1]}))
        small = st.dictionaries(monomial, st.integers(-5, 5).filter(bool), min_size=terms[0], max_size=terms[1])
        a = data.draw(st.lists(small.map(Polynomial), min_size=coefficients[0], max_size=coefficients[1]))
        b = data.draw(st.lists(small.map(Polynomial), min_size=1 + kronecker, max_size=1 + kronecker))
        assert (sum(len(c.terms) for c in a + b) > _LOOP_MAX_TERMS) == kronecker
        ab = _joint(*a, *b)  # one layout, as resultant passes them
        r = [_kronecker_resultant(ab[:len(a)], ab[len(a):], 10**6)] if kronecker else _prem(a, b)
        for c in r:
            assert_well_formed(c)


class TestShortcuts:
    @settings(max_examples=150, deadline=None)
    @given(top_degree_ties())
    def test_leading_coefficient_among_tied_top_terms(self, p):
        assert p.leading_coefficient() == grlex_terms(p)[0][1]


class TestTupleOracle:
    """Packed arithmetic against the same arithmetic on Monomial term dicts."""

    # v is never d: the coefficients in d of a degree-2^15 polynomial make a
    # list of 2^15 + 1 members
    @settings(max_examples=150, deadline=None)
    @given(a=mixed_operands(), b=mixed_operands(), v=st.sampled_from(_KERNEL_VARIABLES[:3]), n=st.integers(0, 3))
    def test_matches_tuple_oracle(self, a, b, v, n):
        ta, tb = a.terms, b.terms
        d = _KERNEL_VARIABLES[3]
        assert a.derivative(d).terms == tuple_derivative(ta, d) and a.degree_in(d) == tuple_degree_in(ta, d)
        assert (a + b).terms == tuple_sum(ta, tb)
        assert (a - b).terms == tuple_sum(ta, tb, -1)
        assert (a * b).terms == tuple_product(ta, tb)
        assert (a**n).terms == tuple_power(ta, n)
        assert [c.terms for c in a.coefficients_wrt(v)] == tuple_coefficients_wrt(ta, v)
        assert a.derivative(v).terms == tuple_derivative(ta, v)
        assert a.degree_in(v) == tuple_degree_in(ta, v)
        assert a.leading_coefficient() == tuple_leading_coefficient(ta)
        assert sorted(a.total_degrees()) == sorted(m.total_degree for m in ta)
        for p in (a, b):
            if p.variables() <= {v}:
                dense = [0] * (p.degree_in(v) + 1)
                for m, c in p.terms.items():
                    dense[dict(m).get(v, 0)] = c
                assert p.univariate_coefficients(v) == tuple(dense)
            else:
                with pytest.raises(ValueError, match=f"^polynomial is not univariate in {v}: also uses "):
                    p.univariate_coefficients(v)
        assert canonicalize(a).terms == tuple_canonicalize(ta)
        assert str(a) == tuple_str(ta)
        try:
            expected = tuple_exact_div(ta, tb)
        except ArithmeticError:
            with pytest.raises(ArithmeticError, match="inexact"):
                exact_div(a, b)
        else:
            assert exact_div(a, b).terms == expected
        assert exact_div(a * b, b).terms == tuple_exact_div(tuple_product(ta, tb), tb) == ta

    def test_product_past_the_guard_bit_widens(self):
        p = X ** (2**14) * Y ** (2**14 - 1)
        assert (p * X).total_degree() == 2**15 and (p * X)._layout.width == 32
        q = p * p * Z
        assert q.terms == {Monomial({x: 2**15, y: 2**15 - 2, z: 1}): 1}
        assert str(q) == "x^32768*y^32766*z" and exact_div(q, p) == p * Z


class TestLayouts:
    """Equality, hashing and ``.terms`` do not depend on the layout."""

    def test_projection_member_equals_its_own_construction(self):
        system = parse_system("w*x^2 + y*z - 1\nx*y - z^2 + w\n")
        assert len(system.variables) == 4
        level = full_projection(system, (x, y, z, Variable("w"))).levels[-1]
        for p in level:
            for alone in (Polynomial(p.terms), parse_system(str(p)).polynomials[0]):
                assert alone._layout is not p._layout
                assert alone == p and p == alone and hash(alone) == hash(p)

    @settings(max_examples=60, deadline=None)
    @given(mixed_operands())
    def test_terms_rebuild_the_polynomial(self, p):
        assert Polynomial(p.terms) == p and hash(Polynomial(p.terms)) == hash(p)
        for m, c in p.terms.items():
            assert type(m) is Monomial and c
            assert m.total_degree == sum(e for _, e in m.exps)
        gens = generators(p.variables())
        assert sorted(gens) == sorted(p.variables()) and len({g._layout for g in gens.values()}) <= 1
        assert all(g == Polynomial.variable(v) for v, g in gens.items())
        rebuilt = sum([c * math.prod([gens[v] ** e for v, e in m]) for m, c in p.terms.items()], Polynomial.zero())
        assert rebuilt == p

    def test_duplicate_line_in_a_wider_layout_collapses(self):
        system = parse_system("x\nx + 0*y\n")
        assert system.polynomials == (X,) and system.variables == (x,)
        assert system.positions == ((1, 1),)


@st.composite
def resultant_operands(draw, count):
    """``count`` nonzero polynomials over the same 2-4 variables, exponents
    0-2 and up to four terms each, and the variable to eliminate."""
    variables = draw(st.lists(st.sampled_from([x, y, z, Variable("w")]), min_size=2, max_size=4, unique=True))
    monomial = st.lists(st.integers(0, 2), min_size=len(variables), max_size=len(variables)).map(
        lambda es: Monomial(zip(variables, es))
    )
    term = st.tuples(monomial, st.integers(-5, 5).filter(bool))
    polys = [Polynomial(dict(draw(st.lists(term, min_size=1, max_size=4, unique_by=lambda t: t[0])))) for _ in range(count)]
    return (*polys, variables[0])


class TestResultant:
    def test_worked_examples(self):
        assert resultant(X**2 - Y, X - 1, x) == 1 - Y
        assert resultant(X - 1, X - 1, x) == Polynomial.zero()
        assert resultant(X**2 - 2, Polynomial.constant(3), x) == Polynomial.constant(9)

    def test_both_constant_convention(self):
        assert resultant(Polynomial.constant(5), Polynomial.constant(7), x) == Polynomial.constant(1)

    def test_zero_operand(self):
        with pytest.raises(ValueError, match="zero operand"):
            resultant(Polynomial.zero(), X, x)
        with pytest.raises(ValueError, match="zero operand"):
            resultant(X, Polynomial.zero(), x)

    def test_matches_sylvester_determinant(self):
        rng = random.Random(3)
        checked = 0
        while checked < 200:
            p = random_polynomial(rng, [x, y], max_degree=4, max_terms=4)
            q = random_polynomial(rng, [x, y], max_degree=4, max_terms=4)
            if p.degree_in(x) < 1 or q.degree_in(x) < 1:
                continue
            assert resultant(p, q, x) == sylvester_resultant(p, q, x)
            checked += 1

    def test_antisymmetry(self):
        rng = random.Random(4)
        checked = 0
        while checked < 60:
            p = random_polynomial(rng, [x, y], max_degree=3)
            q = random_polynomial(rng, [x, y], max_degree=3)
            dp, dq = p.degree_in(x), q.degree_in(x)
            if dp < 1 or dq < 1:
                continue
            sign = -1 if (dp * dq) % 2 else 1
            assert resultant(p, q, x) == sign * resultant(q, p, x)
            checked += 1

    @settings(max_examples=60, deadline=None)
    @given(resultant_operands(2))
    def test_antisymmetry_property(self, operands):
        p, q, v = operands
        sign = (-1) ** (p.degree_in(v) * q.degree_in(v))
        assert resultant(p, q, v) == sign * resultant(q, p, v)

    @settings(max_examples=60, deadline=None)
    @given(resultant_operands(3))
    def test_multiplicativity_property(self, operands):
        p, q, r, v = operands
        assert resultant(p * q, r, v) == resultant(p, r, v) * resultant(q, r, v)

    def test_multiplicativity(self):
        rng = random.Random(5)
        checked = 0
        while checked < 60:
            p = random_polynomial(rng, [x, y], max_degree=3)
            q = random_polynomial(rng, [x, y], max_degree=2)
            r = random_polynomial(rng, [x, y], max_degree=2)
            if min(p.degree_in(x), q.degree_in(x), r.degree_in(x)) < 1:
                continue
            assert resultant(p, q * r, x) == resultant(p, q, x) * resultant(p, r, x)
            checked += 1


class TestDiscriminant:
    def test_worked_examples(self):
        assert discriminant(X**2 + Y, x) == 4 * Y
        assert discriminant(X**2 - 1, x) == Polynomial.constant(-4)

    def test_degree_too_low(self):
        with pytest.raises(ValueError, match="degree too low"):
            discriminant(X + 1, x)


class TestCanonicalize:
    def test_examples(self):
        assert canonicalize(-4 * Y) == Y
        assert canonicalize(6 * X - 9) == 2 * X - 3
        assert canonicalize(Polynomial.zero()) == Polynomial.zero()

    def test_idempotent(self):
        rng = random.Random(6)
        for _ in range(100):
            p = random_polynomial(rng, [x, y, z], max_degree=3, nonzero=False)
            once = canonicalize(p)
            assert canonicalize(once) == once

    @settings(max_examples=200, deadline=None)
    @given(sparse_polynomials([x, y, z], 1, 6))
    def test_idempotent_property(self, p):
        once = canonicalize(p)
        assert canonicalize(once) is once
        assert once.content() == 1 and once.leading_coefficient() > 0

    def test_positive_leading_coefficient(self):
        rng = random.Random(7)
        for _ in range(50):
            p = random_polynomial(rng, [x, y], max_degree=3)
            c = canonicalize(p)
            assert c.leading_coefficient() > 0
            assert c.content() == 1


class TestPolySystem:
    def test_zero_polynomial(self):
        with pytest.raises(ValueError, match="^zero polynomial in system$"):
            PolySystem.make([X + 1, Polynomial.zero()])

    def test_undeclared_variables(self):
        with pytest.raises(ValueError, match="^undeclared variables in system: y, z$"):
            PolySystem.make([X * Z + Y], variables=[x])
