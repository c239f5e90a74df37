import random
import time
from fractions import Fraction
from itertools import islice, pairwise
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadorder import (
    Monomial,
    Polynomial,
    UnivariatePolynomial,
    Variable,
    count_distinct_real_roots,
    parse_system,
    squarefree_part,
    sturm_sequence,
    to_univariate,
)
from cadorder.univariate import (
    _P, _derivative, _descartes, _exact_div_ints, _gcd_cofactor, _pp_ints, _primes, _race, _sturm,
)
from oracles import euclid_gcd, textbook_sturm

x = Variable("x")


def upoly(*coeffs):
    """Build a univariate polynomial from low-to-high coefficients."""
    return UnivariatePolynomial.make(x, coeffs)


def from_roots(roots, rootless_quadratics=()):
    """Product of (x - a) over roots, times x^2 + b*x + c factors."""
    p = upoly(1)
    for a in roots:
        p = _mul(p, upoly(-a, 1))
    for b, c in rootless_quadratics:
        p = _mul(p, upoly(c, b, 1))
    return p


def _mul(p, q):
    coeffs = [0] * (p.degree + q.degree + 1)
    for i, a in enumerate(p.coefficients):
        for j, b in enumerate(q.coefficients):
            coeffs[i + j] += a * b
    return UnivariatePolynomial.make(x, coeffs)


class TestToUnivariate:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-(2**70), 2**70), max_size=40))
    def test_dense_coefficients(self, coeffs):
        p = Polynomial({Monomial([(x, i)]): c for i, c in enumerate(coeffs)})
        trimmed = list(coeffs)
        while trimmed and not trimmed[-1]:
            trimmed.pop()
        assert to_univariate(p, x).coefficients == tuple(trimmed)

    @pytest.mark.parametrize("text", ["x*z + y", "x^2 + x*y + z + 1"], ids=["mixed-first", "power-of-x-first"])
    def test_other_variables_rejected(self, text):
        # the message names every other variable, even those after the first bad term
        p = parse_system(text).polynomials[0]
        with pytest.raises(ValueError, match="^polynomial is not univariate in x: also uses y, z$"):
            to_univariate(p, x)


class TestRepresentation:
    """Coefficients are ints, from the input to a root count."""

    def test_integer_input_keeps_ints(self):
        X = Polynomial.variable(x)
        u = to_univariate((X + -1) ** 2 * (X + 2) * 3, x)
        assert u.coefficients == (6, -9, 0, 3)
        for q in (u, squarefree_part(u), *sturm_sequence(u)):
            assert q.coefficients and all(type(c) is int for c in q.coefficients)

    def test_make_rejects_non_integers(self):
        for c in (Fraction(1, 2), Fraction(2), 0.5, 2.0, "1", None):
            with pytest.raises(TypeError, match=f"^coefficient is not an integer: {type(c).__name__}$"):
                UnivariatePolynomial.make(x, [1, c])
        u = UnivariatePolynomial.make(x, [3, True, False])  # a bool is an int
        assert u.coefficients == (3, 1) and [type(c) for c in u.coefficients] == [int, int]

    def test_constructor_rejects_a_stored_zero_last(self):
        # x^2 - 1 with a zero stored above it: every prime divides a zero
        # leading coefficient, so the gcd of a root count would never return
        with pytest.raises(ValueError, match="^the last stored coefficient is 0$"):
            UnivariatePolynomial(x, (-1, 0, 1, 0))
        assert UnivariatePolynomial.make(x, (-1, 0, 1, 0)).coefficients == (-1, 0, 1)


class TestGcd:
    def test_shared_factor(self):
        assert _gcd_cofactor([-1, 0, 1], [-1, 1])[0] == [-1, 1]

    def test_coprime(self):
        assert _gcd_cofactor([1, 0, 1], [-1, 0, 1])[0] == [1]

    def test_derivative_pair(self):
        # p = (x-1)^2 and p' share the factor x-1
        assert _gcd_cofactor([1, -2, 1], [-2, 2])[0] == [-1, 1]

    def test_both_zero(self):
        assert _gcd_cofactor([], []) == ([], [])

    def test_normalization(self):
        assert _gcd_cofactor([3, -3], [-6, 6])[0] == [-1, 1]


class TestSquarefree:
    def test_double_root(self):
        assert squarefree_part(upoly(1, -2, 1)) == upoly(-1, 1)

    def test_mixed_multiplicities(self):
        # (x-1)^2 (x+2) = x^3 - 3x + 2 -> x^2 + x - 2
        assert squarefree_part(upoly(2, -3, 0, 1)) == upoly(-2, 1, 1)

    def test_already_squarefree(self):
        assert squarefree_part(upoly(1, 0, 1)) == upoly(1, 0, 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_part(upoly())

    def test_content_is_dropped(self):
        # 2 (x-1)^2 -> x - 1
        assert squarefree_part(upoly(2, -4, 2)) == upoly(-1, 1)


class TestCoprimeModP:
    """The gcd proves a pair coprime from its images modulo _P; these inputs
    must take the integer chain instead."""

    def test_prime_divides_leading_coefficient(self):
        # (P*x + 1)^2 (x - 2): modulo P it is x - 2, whose gcd with its
        # derivative is a constant, yet the integer gcd is P*x + 1
        factor, rest = upoly(1, _P), upoly(-2, 1)
        p = _mul(_mul(factor, factor), rest)
        assert _gcd_cofactor(p.coefficients, _derivative(p.coefficients))[0] == [1, _P]
        assert squarefree_part(p) == _mul(factor, rest)
        assert count_distinct_real_roots(p) == 2

    def test_unlucky_prime(self):
        # modulo P the pair is x^2 and 2x, with gcd x; over the integers it is 1
        p = upoly(_P, 0, 1)
        assert _gcd_cofactor([_P, 0, 1], [0, 2])[0] == [1]
        assert _gcd_cofactor([0, 2], [_P, 0, 1])[0] == [1]
        assert squarefree_part(p) == p
        assert count_distinct_real_roots(p) == 0

    def test_prime_divides_other_leading_coefficient(self):
        # only lc of the first operand must be a unit modulo P
        assert _gcd_cofactor([-2, 1], [1, _P])[0] == [1]
        assert _gcd_cofactor([1, _P], [-2, 1])[0] == [1]
        assert _gcd_cofactor(_mul_ints([-2, 1], [1, _P]), [-2, 1])[0] == [-2, 1]

    def test_zero_and_constant_operands(self):
        assert _gcd_cofactor([], [3, -6])[0] == [-1, 2]
        assert _gcd_cofactor([3, -6], [])[0] == [-1, 2]
        assert _gcd_cofactor([_P], [1, 1])[0] == [1]
        assert _gcd_cofactor([1, 1], [_P])[0] == [1]


def _mul_ints(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


# small coefficients, and multiples and neighbours of P, so that leading
# coefficients divisible by P and unlucky images both turn up
_COEFFICIENTS = st.one_of(
    st.integers(-6, 6), st.sampled_from([_P, -_P, 2 * _P, _P + 1, _P - 1, _P * _P])
)
_FACTORS = st.lists(_COEFFICIENTS, min_size=1, max_size=5).filter(lambda f: f[-1] != 0)


class TestGcdProperty:
    @settings(max_examples=300, deadline=None)
    @given(shared=_FACTORS, a=_FACTORS, b=_FACTORS)
    def test_matches_euclid_over_the_rationals(self, shared, a, b):
        a, b = _mul_ints(shared, a), _mul_ints(shared, b)
        assert _gcd_cofactor(a, b)[0] == euclid_gcd(a, b)

    @settings(max_examples=100, deadline=None)
    @given(a=_FACTORS, b=_FACTORS)
    def test_with_derivative(self, a, b):
        p = _mul_ints(_mul_ints(a, a), b)
        dp = [i * c for i, c in enumerate(p)][1:]
        if any(dp):
            assert _gcd_cofactor(p, dp)[0] == euclid_gcd(p, dp)


class TestExactDivInts:
    def test_quotient_of_a_product(self):
        rng = random.Random(8)
        for _ in range(300):
            a = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))] + [rng.choice([-3, 1, 2, 5])]
            b = [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))] + [rng.choice([-2, 1, 3])]
            product = [0] * (len(a) + len(b) - 1)
            for i, ac in enumerate(a):
                for j, bc in enumerate(b):
                    product[i + j] += ac * bc
            assert _exact_div_ints(product, b) == a

    @pytest.mark.parametrize(
        "a, b",
        [([1, 0, 1], [1, 1]), ([3, 2], [2]), ([2, 4, 3], [1, 2]), ([1], [1, 1])],
        ids=["nonzero-remainder", "constant-divisor", "leading-coefficient", "lower-degree"],
    )
    def test_inexact_raises(self, a, b):
        with pytest.raises(ArithmeticError, match="inexact"):
            _exact_div_ints(a, b)


class TestSturmSequence:
    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="^zero polynomial$"):
            sturm_sequence(upoly())

    def test_two_real_roots(self):
        assert sturm_sequence(upoly(-1, 0, 1)) == [upoly(-1, 0, 1), upoly(0, 1), upoly(1)]

    def test_linear(self):
        assert sturm_sequence(upoly(0, 1)) == [upoly(0, 1), upoly(1)]

    def test_no_real_roots(self):
        assert sturm_sequence(upoly(1, 0, 1)) == [upoly(1, 0, 1), upoly(0, 1), upoly(-1)]

    def test_members_after_p_are_primitive(self):
        # the textbook chain is x^3 - 3x + 1, 3x^2 - 3, 2x - 1, 9/4
        assert sturm_sequence(upoly(1, -3, 0, 1)) == [
            upoly(1, -3, 0, 1), upoly(-1, 0, 1), upoly(-1, 2), upoly(1),
        ]
        assert sturm_sequence(upoly(-4, 0, 2)) == [upoly(-4, 0, 2), upoly(0, 1), upoly(1)]


class TestRender:
    def test_sturm_chain(self):
        chain = sturm_sequence(upoly(1, -3, 0, 1))
        assert [str(s) for s in chain] == ["x^3 - 3*x + 1", "x^2 - 1", "2*x - 1", "1"]

    def test_integer_polynomials(self):
        assert str(upoly(-2, 0, 1)) == "x^2 - 2"
        assert str(upoly(0, -1, 0, 7)) == "7*x^3 - x"
        assert str(upoly()) == "0"

    def test_coefficients_of_any_length(self):
        # 5000 digits, past Python's default int-to-str limit of 4300
        nines, padded = "9" * 5000, "1" + "0" * 4998 + "7"
        p = upoly(10**4999 + 7, -(10**5000 - 1))
        assert str(p) == f"-{nines}*x + {padded}"


class TestRootCounting:
    @pytest.mark.parametrize(
        "coeffs,expected",
        [
            ((-2, 0, 1), 2),  # x^2 - 2
            ((1, 0, 1), 0),  # x^2 + 1
            ((1, -2, 1), 1),  # (x - 1)^2
            ((7,), 0),
            ((-7,), 0),
            ((1, 0, 0, 0, 1), 0),  # x^4 + 1
        ],
    )
    def test_known_counts(self, coeffs, expected):
        assert count_distinct_real_roots(upoly(*coeffs)) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="infinitely many"):
            count_distinct_real_roots(upoly())

    def test_matches_construction(self):
        rng = random.Random(11)
        for _ in range(200):
            k = rng.randint(0, 4)
            roots = rng.sample(range(-9, 10), k)
            quads = []
            for _ in range(rng.randint(0, 2)):
                b = rng.randint(-9, 9)
                c = rng.randint(b * b // 4 + 1, b * b // 4 + 9)
                quads.append((b, c))
            p = from_roots(roots, quads)
            if p.degree == 0:
                continue
            assert count_distinct_real_roots(p) == k

    def test_squarefree_reduction_invariant(self):
        rng = random.Random(12)
        for _ in range(100):
            roots = rng.sample(range(-9, 10), rng.randint(1, 3))
            p = from_roots(roots)
            repeated = _mul(p, from_roots([roots[0]]))  # force a repeated factor
            assert count_distinct_real_roots(repeated) == count_distinct_real_roots(
                squarefree_part(repeated)
            )
            assert count_distinct_real_roots(repeated) <= repeated.degree

    def test_count_of_product_of_known_factors(self):
        rng = random.Random(13)
        for _ in range(100):
            a = set(rng.sample(range(-9, 10), rng.randint(1, 3)))
            b = set(rng.sample(range(-9, 10), rng.randint(1, 3)))
            p, q = from_roots(sorted(a)), from_roots(sorted(b))
            expected = (
                count_distinct_real_roots(p)
                + count_distinct_real_roots(q)
                - len(a & b)
            )
            assert count_distinct_real_roots(_mul(p, q)) == expected


class TestModularGcd:
    def test_gcd_above_the_modulus(self):
        # coefficients past 2^31: one image cannot hold them, CRT needs two primes
        g = [-(2**45 + 7), 2**33 - 5, 2**40 + 3]
        a, b = _mul_ints(g, [2, 1]), _mul_ints(g, [-1, 0, 3])
        assert _gcd_cofactor(a, b)[0] == g
        assert _gcd_cofactor(_mul_ints(a, [5]), [-c for c in b])[0] == g

    def test_unlucky_primes_in_a_row(self):
        # modulo each of the first two primes the pair is x^2 and 2x, with gcd
        # x; the images agree, yet over the integers the gcd is 1
        first, second = islice(_primes(), 2)
        assert _gcd_cofactor([first * second, 0, 1], [0, 2])[0] == [1]

    def test_unlucky_first_prime_is_reset(self):
        # modulo _P, x + 2 + _P is x + 2, so the first image has degree 2; the
        # second prime's image has degree 1 and replaces it
        a = _mul_ints([1, 1], [2, 1])
        b = _mul_ints([1, 1], [2 + _P, 1])
        assert _gcd_cofactor(a, b)[0] == euclid_gcd(a, b) == [1, 1]

    def test_unlucky_later_prime_is_skipped(self):
        # the first image is G; modulo the second prime x + 1 + p2 is x + 1, so
        # the second image has degree 2 and is dropped, and a third prime
        # completes G's coefficients above 2^31
        p2 = list(islice(_primes(), 2))[1]
        g = [2**40 + 1, 1]
        a, b = _mul_ints(g, [1, 1]), _mul_ints(g, [1 + p2, 1])
        assert _gcd_cofactor(a, b)[0] == euclid_gcd(a, b) == g

    @pytest.mark.parametrize("a, b", [
        ([-6, 4, 2], [-2, 2]),  # gcd x - 1, cofactor of pp(a) x + 3
        ([6, -4, -2], [3, -3]),  # negative lc(a): the cofactor keeps pp(a)'s sign
        ([3, 0, 1], [0, 2]),  # coprime
        ([4, 2], [7]),  # a constant operand
        ([4, -2], []),  # a zero operand: the gcd is pp(a)
        ([], [1, 1]),
    ])
    def test_cofactor_is_the_proving_quotient(self, a, b):
        g, q = _gcd_cofactor(a, b)
        assert g == euclid_gcd(a, b)
        assert (_mul_ints(g, q) if q else []) == _pp_ints(a)


def sturm_oracle(p):
    """Distinct real roots from the textbook Sturm chain of p (Fraction long
    division, in oracles.py).  For a non-squarefree p the chain ends at
    gcd(p, p'), and dividing every member by it changes no count of
    variations."""
    return chain_count(textbook_sturm([Fraction(c) for c in p.coefficients]))


def chain_count(chain):
    """Sign variations of a Sturm chain of coefficient lists at minus
    infinity, less those at plus infinity."""
    at_pos = [s[-1] > 0 for s in chain]
    at_neg = [pos ^ (len(s) % 2 == 0) for pos, s in zip(at_pos, chain)]  # flips for odd degree
    return sum(map(bool.__ne__, at_neg, at_neg[1:])) - sum(map(bool.__ne__, at_pos, at_pos[1:]))


def alone(method, p):
    """One side of the race, run to the end on the squarefree part of p."""
    return _race(method(list(squarefree_part(p).coefficients)))


def tagged(method, tag):
    """The method as a race side whose value is (tag, the method's value)."""
    return tag, (yield from method)


def metered(method, costs):
    """The method as a race side that appends each cost it yields to costs."""
    while True:
        try:
            cost = next(method)
        except StopIteration as done:
            return done.value
        costs.append(cost)
        yield cost


def sturm_step_cost(a, b):
    """The module docstring's modelled cost of the Sturm step from a to b."""
    sa, sb = (max(map(abs, m)).bit_length() for m in (a, b))
    wr = (sa + (len(a) - len(b) + 1) * sb) / 64
    return 4750 + len(b) * (105 + 208 * wr + 5 * wr * wr)


def assert_sturm_side_runs_sturm_sequence(p):
    """The race's Sturm side on the squarefree part of p yields the cost of
    each step between consecutive members of that part's `sturm_sequence`,
    and returns the sign variations of that chain."""
    sf = squarefree_part(p)
    chain = [s.coefficients for s in sturm_sequence(sf)]
    costs = []
    count = _race(metered(_sturm(list(sf.coefficients)), costs))
    assert costs == [sturm_step_cost(a, b) for a, b in pairwise(chain)]
    assert count == chain_count(chain)


def mignotte(d, a):
    """x^d - 2(a*x - 1)^2: two roots within about a^-(d/2) of 1/a."""
    return upoly(-2, 4 * a, -2 * a * a, *[0] * (d - 3), 1)


def dense80():
    """A dense degree-80 polynomial with 64-bit coefficients and 6 real roots."""
    rng = random.Random(80)
    return upoly(*(rng.randint(-(2**63), 2**63) for _ in range(80)), 2**63)


def dyadic(k, m):
    """2^k x - m, whose root m / 2^k is a dyadic rational: shifts by 1 and
    scalings by powers of two can put it exactly on 0 or 1."""
    return upoly(-m, 2**k)


_DYADIC = st.tuples(st.integers(0, 10), st.integers(-64, 64))


def product(draw, factors):
    """The product of the factors, mirrored (x -> -x) if draw says so."""
    p = upoly(1)
    for f in factors:
        p = _mul(p, f)
    if draw(st.booleans()):
        p = upoly(*(-c if i % 2 else c for i, c in enumerate(p.coefficients)))
    return p


@st.composite
def dyadic_products(draw):
    factors = [dyadic(k, m) for k, m in draw(st.lists(_DYADIC, max_size=6))]
    for k, m in draw(st.lists(_DYADIC, max_size=2)):  # clustered pairs
        factors += [dyadic(k, m), dyadic(k, m + 1)]
    for k, m in draw(st.lists(_DYADIC, max_size=2)):  # squared factors
        factors += [dyadic(k, m)] * 2
    if draw(st.booleans()):
        factors.append(upoly(0, 1))
    if draw(st.booleans()):
        factors.append(upoly(draw(st.integers(1, 9)), 0, 1))  # no real roots
    return product(draw, factors)


@st.composite
def continued_fraction_products(draw):
    """Products of factors that reach what bisection never did: roots at
    m 2^j for |j| up to 200, which the power-of-two lower-bound shifts can
    put on 1; clustered pairs above 1, 2^-k apart; a root at 1 and at 0;
    irreducible quadratics; optionally mirrored."""
    factors = []
    for m, j in draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(-200, 200)), max_size=4)):
        factors.append(upoly(-m * 2**j, 1) if j >= 0 else dyadic(-j, m))
    for a, k in draw(st.lists(st.tuples(st.integers(2, 2**20), st.integers(1, 80)), max_size=2)):
        factors += [upoly(-a, 1), dyadic(k, a * 2**k + 1)]
    for root in (0, 1):
        if draw(st.booleans()):
            factors.append(upoly(-root, 1))
    for b in draw(st.lists(st.integers(-2**40, 2**40), max_size=2)):
        factors.append(upoly(b * b // 4 + draw(st.integers(1, 9)), b, 1))  # b^2 < 4c
    return product(draw, factors)


def race_inputs():
    """The Mignotte grid, the dense degree-80 input and the p4 fixture."""
    p4 = parse_system((Path(__file__).parent / "fixtures" / "problems" / "p4.poly").read_text())
    return [pytest.param(mignotte(d, a), id=f"mignotte-{d}-{a}")
            for d in (20, 40, 60, 80, 100) for a in (10, 10**3, 10**6)] + [
        pytest.param(dense80(), id="dense80"),
        pytest.param(to_univariate(p4.polynomials[0], x), id="p4"),
    ]


class TestRootCountRace:
    @settings(max_examples=300, deadline=None)
    @given(p=dyadic_products())
    def test_both_sides_match_the_sturm_oracle(self, p):
        if p.degree < 1:
            return
        expected = sturm_oracle(p)
        assert alone(_descartes, p) == expected
        assert alone(_sturm, p) == expected
        assert count_distinct_real_roots(p) == expected

    @settings(max_examples=200, deadline=None)
    @given(p=continued_fraction_products())
    def test_continued_fractions_match_the_sturm_oracle(self, p):
        if p.degree < 1:
            return
        expected = sturm_oracle(p)
        assert alone(_descartes, p) == expected
        assert alone(_sturm, p) == expected
        assert count_distinct_real_roots(p) == expected

    @pytest.mark.parametrize("j", [1, 2, 3, 5, 8, 20])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_root_near_the_bound(self, j, sign):
        # (x - m)(x^2 + 1), m = 2^j - 1: one root just below a power of two
        p = _mul(upoly(-sign * (2**j - 1), 1), upoly(1, 0, 1))
        assert alone(_descartes, p) == alone(_sturm, p) == 1

    @pytest.mark.parametrize("d", [20, 40, 60, 80, 100])
    @pytest.mark.parametrize("a", [10, 10**3, 10**6])
    def test_mignotte_in_fixed_time(self, d, a):
        p = mignotte(d, a)
        times = []
        for _ in range(3):
            start = time.process_time()
            assert count_distinct_real_roots(p) == 4
            times.append(time.process_time() - start)
        assert min(times) < 0.05

    def test_each_side_wins_somewhere(self):
        for p, winner in ((dense80(), "descartes"), (mignotte(20, 10), "sturm")):
            sf = list(squarefree_part(p).coefficients)
            count = alone(_descartes, p)
            assert alone(_sturm, p) == count
            assert _race(tagged(_descartes(sf), "descartes"), tagged(_sturm(sf), "sturm")) == (winner, count)

    @pytest.mark.parametrize("p", [
        pytest.param(dense80(), id="dense80"),
        pytest.param(mignotte(20, 10), id="mignotte-20-10"),
        # x^5 + x^2 - 2x - 2: the chain drops from degree 4 to 2, to a member
        # of negative leading coefficient, so its pseudo-remainder's factor
        # lc^3 is negative unless the divisor is negated first
        pytest.param(upoly(-2, -2, 1, 0, 0, 1), id="degree-gap"),
    ])
    def test_sturm_side_runs_sturm_sequence(self, p):
        assert_sturm_side_runs_sturm_sequence(p)

    @settings(max_examples=200, deadline=None)
    @given(p=st.one_of(dyadic_products(), continued_fraction_products()))
    def test_sturm_side_runs_sturm_sequence_on_products(self, p):
        assert_sturm_side_runs_sturm_sequence(p)

    @pytest.mark.parametrize("p", race_inputs())
    def test_race_charges_at_most_twice_the_cheaper_side(self, p):
        """The side that returns first has spent no more than the other, so
        the race charges at most twice the cheaper side's total, plus the one
        step the other side may take past it; no clock involved."""
        sf = list(squarefree_part(p).coefficients)
        totals = []
        for method in (_descartes, _sturm):
            costs = []
            _race(metered(method(sf), costs))
            totals.append((sum(costs), max(costs, default=0)))
        charged = [], []
        _race(metered(_descartes(sf), charged[0]), metered(_sturm(sf), charged[1]))
        (cheaper, _), (_, other_step) = sorted(totals)
        assert sum(charged[0]) + sum(charged[1]) <= 2 * cheaper + other_step

    @pytest.mark.parametrize("p, descartes_steps, sturm_steps", [
        pytest.param(dense80(), 14, 80, id="dense80"),
        pytest.param(mignotte(20, 10), 11, 4, id="mignotte-20-10"),
    ])
    def test_steps_each_side_takes(self, p, descartes_steps, sturm_steps):
        """Continued fractions take 14 and 11 Taylor shifts here, where
        bisection took 23 and 130."""
        sf = list(squarefree_part(p).coefficients)
        for method, steps in ((_descartes, descartes_steps), (_sturm, sturm_steps)):
            costs = []
            _race(metered(method(sf), costs))
            assert len(costs) == steps
