import random
import time
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadorder import (
    UnivariatePolynomial,
    Variable,
    count_distinct_real_roots,
    squarefree_part,
    sturm_sequence,
    univariate_gcd,
)
from cadorder.univariate import (
    _P, _descartes, _exact_div_ints, _gcd_cofactor, _gcd_ints, _int_coeffs, _pp_ints, _primes,
    _race, _sturm,
)
from oracles import euclid_gcd

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
    coeffs = [Fraction(0)] * (p.degree + q.degree + 1)
    for i, a in enumerate(p.coefficients):
        for j, b in enumerate(q.coefficients):
            coeffs[i + j] += a * b
    return UnivariatePolynomial.make(x, coeffs)


class TestGcd:
    def test_shared_factor(self):
        assert univariate_gcd(upoly(-1, 0, 1), upoly(-1, 1)) == upoly(-1, 1)

    def test_coprime(self):
        assert univariate_gcd(upoly(1, 0, 1), upoly(-1, 0, 1)) == upoly(1)

    def test_derivative_pair(self):
        # p = (x-1)^2 and p' share the factor x-1
        assert univariate_gcd(upoly(1, -2, 1), upoly(-2, 2)) == upoly(-1, 1)

    def test_both_zero(self):
        with pytest.raises(ValueError, match="gcd of zeros"):
            univariate_gcd(upoly(), upoly())

    def test_normalization(self):
        g = univariate_gcd(upoly(Fraction(-3, 2), Fraction(3, 2)), upoly(-6, 6))
        assert g == upoly(-1, 1)


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


class TestCoprimeModP:
    """The gcd proves a pair coprime from its images modulo _P; these inputs
    must take the integer chain instead."""

    def test_prime_divides_leading_coefficient(self):
        # (P*x + 1)^2 (x - 2): modulo P it is x - 2, whose gcd with its
        # derivative is a constant, yet the integer gcd is P*x + 1
        factor, rest = upoly(1, _P), upoly(-2, 1)
        p = _mul(_mul(factor, factor), rest)
        assert univariate_gcd(p, p.derivative()) == factor
        assert squarefree_part(p) == _mul(factor, rest)
        assert count_distinct_real_roots(p) == 2

    def test_unlucky_prime(self):
        # modulo P the pair is x^2 and 2x, with gcd x; over the integers it is 1
        p = upoly(_P, 0, 1)
        assert univariate_gcd(p, upoly(0, 2)) == upoly(1)
        assert univariate_gcd(upoly(0, 2), p) == upoly(1)
        assert squarefree_part(p) == p
        assert count_distinct_real_roots(p) == 0

    def test_prime_divides_other_leading_coefficient(self):
        # only lc of the first operand must be a unit modulo P
        assert univariate_gcd(upoly(-2, 1), upoly(1, _P)) == upoly(1)
        assert univariate_gcd(upoly(1, _P), upoly(-2, 1)) == upoly(1)
        assert univariate_gcd(_mul(upoly(-2, 1), upoly(1, _P)), upoly(-2, 1)) == upoly(-2, 1)

    def test_zero_and_constant_operands(self):
        assert univariate_gcd(upoly(), upoly(3, -6)) == upoly(-1, 2)
        assert univariate_gcd(upoly(3, -6), upoly()) == upoly(-1, 2)
        assert univariate_gcd(upoly(_P), upoly(1, 1)) == upoly(1)
        assert univariate_gcd(upoly(1, 1), upoly(_P)) == upoly(1)


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
        assert _gcd_ints(a, b) == euclid_gcd(a, b)

    @settings(max_examples=100, deadline=None)
    @given(a=_FACTORS, b=_FACTORS)
    def test_with_derivative(self, a, b):
        p = _mul_ints(_mul_ints(a, a), b)
        dp = [i * c for i, c in enumerate(p)][1:]
        if any(dp):
            assert _gcd_ints(p, dp) == euclid_gcd(p, dp)


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
    def test_two_real_roots(self):
        assert sturm_sequence(upoly(-1, 0, 1)) == [upoly(-1, 0, 1), upoly(0, 2), upoly(1)]

    def test_linear(self):
        assert sturm_sequence(upoly(0, 1)) == [upoly(0, 1), upoly(1)]

    def test_no_real_roots(self):
        assert sturm_sequence(upoly(1, 0, 1)) == [upoly(1, 0, 1), upoly(0, 2), upoly(-1)]

    def test_rational_chain_is_not_rescaled(self):
        assert sturm_sequence(upoly(1, -3, 0, 1)) == [
            upoly(1, -3, 0, 1), upoly(-3, 0, 3), upoly(-1, 2), upoly(Fraction(9, 4)),
        ]


class TestRender:
    def test_exact_rational_coefficients(self):
        assert str(upoly(Fraction(1, 2), Fraction(-1, 3))) == "-1/3*x + 1/2"
        assert str(upoly(Fraction(9, 4))) == "9/4"

    def test_sturm_chain(self):
        chain = sturm_sequence(upoly(1, -3, 0, 1))
        assert [str(s) for s in chain] == ["x^3 - 3*x + 1", "3*x^2 - 3", "2*x - 1", "9/4"]

    def test_integer_polynomials(self):
        assert str(upoly(-2, 0, 1)) == "x^2 - 2"
        assert str(upoly(0, -1, 0, 7)) == "7*x^3 - x"
        assert str(upoly()) == "0"

    def test_coefficients_of_any_length(self):
        # 5000 digits, past Python's default int-to-str limit of 4300
        nines, padded = "9" * 5000, "1" + "0" * 4998 + "7"
        p = upoly(Fraction(10**4999 + 7, 10**5000 - 1), -(10**5000 - 1))
        assert str(p) == f"-{nines}*x + {padded}/{nines}"


class TestRootCounting:
    @pytest.mark.parametrize(
        "coeffs,expected",
        [
            ((-2, 0, 1), 2),  # x^2 - 2
            ((1, 0, 1), 0),  # x^2 + 1
            ((1, -2, 1), 1),  # (x - 1)^2
            ((7,), 0),
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
        assert _gcd_ints(a, b) == g
        assert _gcd_ints(_mul_ints(a, [5]), [-c for c in b]) == g

    def test_unlucky_primes_in_a_row(self):
        # modulo each of the first two primes the pair is x^2 and 2x, with gcd
        # x; the images agree, yet over the integers the gcd is 1
        first, second = islice(_primes(), 2)
        assert _gcd_ints([first * second, 0, 1], [0, 2]) == [1]

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
        assert g == _gcd_ints(a, b)
        assert (_mul_ints(g, q) if q else []) == _pp_ints(a)


def sturm_oracle(p):
    """Distinct real roots from the sign variations of the textbook Sturm
    chain of the squarefree part, at minus and plus infinity."""
    chain = sturm_sequence(squarefree_part(p))
    at_pos = [s.leading_coefficient > 0 for s in chain]
    at_neg = [pos ^ (s.degree % 2 == 1) for pos, s in zip(at_pos, chain)]
    return sum(map(bool.__ne__, at_neg, at_neg[1:])) - sum(map(bool.__ne__, at_pos, at_pos[1:]))


def alone(method, p):
    """One side of the race, run to the end on the squarefree part of p."""
    return _race(method(_int_coeffs(squarefree_part(p))))


def tagged(method, tag):
    """The method as a race side whose value is (tag, the method's value)."""
    return tag, (yield from method)


def mignotte(d, a):
    """x^d - 2(a*x - 1)^2: two roots within about a^-(d/2) of 1/a."""
    return upoly(-2, 4 * a, -2 * a * a, *[0] * (d - 3), 1)


def dyadic(k, m):
    """2^k x - m, whose root m / 2^k lies on a bisection midpoint."""
    return upoly(-m, 2**k)


_DYADIC = st.tuples(st.integers(0, 10), st.integers(-64, 64))


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
    p = upoly(1)
    for f in factors:
        p = _mul(p, f)
    if draw(st.booleans()):  # x -> -x
        p = upoly(*(-c if i % 2 else c for i, c in enumerate(p.coefficients)))
    return p


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

    @pytest.mark.parametrize("j", [1, 2, 3, 5, 8, 20])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_root_near_the_bound(self, j, sign):
        # (x - m)(x^2 + 1), m = 2^j - 1: the bound is 2^j, half of it below m
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
        rng = random.Random(80)
        dense = upoly(*(rng.randint(-(2**63), 2**63) for _ in range(80)), 2**63)
        for p, winner in ((dense, "descartes"), (mignotte(20, 10), "sturm")):
            sf = _int_coeffs(squarefree_part(p))
            count = alone(_descartes, p)
            assert alone(_sturm, p) == count
            assert _race(tagged(_descartes(sf), "descartes"), tagged(_sturm(sf), "sturm")) == (winner, count)
