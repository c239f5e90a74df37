import random
import re

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cadorder import Monomial, ParseError, Polynomial, PolySystem, Variable, parse_system
from cadorder.poly import _DIGITS
from conftest import random_polynomial
from oracles import polynomial_of

x, y, z = Variable("x"), Variable("y"), Variable("z")
X, Y, Z = Polynomial.variable(x), Polynomial.variable(y), Polynomial.variable(z)


@st.composite
def polynomials(draw):
    """Nonzero polynomials in 1-4 variables; coefficients of both signs, +-1
    and values above 2^64 among them."""
    variables = [Variable(n) for n in ("x", "y", "z", "w_2")][: draw(st.integers(1, 4))]
    exponents = st.lists(st.integers(0, 5), min_size=len(variables), max_size=len(variables))
    monomial = exponents.map(lambda es: Monomial(zip(variables, es)))
    monomials = draw(st.lists(monomial, min_size=1, max_size=6, unique=True))
    coefficient = st.one_of(st.sampled_from([1, -1]), st.integers(-(2**80), 2**80).filter(bool))
    return Polynomial({m: draw(coefficient) for m in monomials})


@st.composite
def infix_lines(draw):
    """(variables, line): a grammar-valid line in two or three variables.
    An optional leading + and up to three terms joined by + or -; a term is
    one or two factors joined by *; a factor is a run of unary minus, then an
    atom with an optional ^ and a literal exponent 0-3; an atom is a
    variable, an integer literal or a parenthesized line, nested at most two
    deep (fewer terms inside, so sympy expands each line in milliseconds)."""
    names = ["x", "y", "z"][: draw(st.integers(2, 3))]

    def expr(depth):
        text = draw(st.sampled_from(["", "+", "+ "])) + term(depth)
        for _ in range(draw(st.integers(0, 2 - depth))):
            text += draw(st.sampled_from(["+", " + ", "-", " - "])) + term(depth)
        return text

    def term(depth):
        text = factor(depth)
        if draw(st.booleans()):
            text += draw(st.sampled_from(["*", " * "])) + factor(depth)
        return text

    def factor(depth):
        text = "-" * draw(st.integers(0, 3)) + atom(depth)
        return text + draw(st.sampled_from(["", "^0", "^1", "^2", "^3", " ^ 2"]))

    def atom(depth):
        kind = draw(st.integers(0, 2 if depth < 2 else 1))
        if kind == 0:
            return draw(st.sampled_from(names))
        if kind == 1:
            return str(draw(st.integers(0, 2**70)))
        return "(" + expr(depth + 1) + ")"

    return [Variable(n) for n in names], expr(0)


class TestParseSystem:
    def test_single_polynomial(self):
        system = parse_system("x^2 + y")
        assert system.variables == (x, y)
        assert system.polynomials == (X**2 + Y,)

    def test_vars_declaration(self):
        system = parse_system("vars: x, y, z\nx^4 + y\ny^2*z + 1")
        assert system.variables == (x, y, z)
        assert system.polynomials == (X**4 + Y, Y**2 * Z + 1)

    def test_declared_but_unused_variable_kept(self):
        system = parse_system("vars: x, y\nx^2 + 1")
        assert system.variables == (x, y)

    def test_comments_and_blank_lines(self):
        system = parse_system("# a comment\n\n  x + 1  # trailing\n\n")
        assert system.polynomials == (X + 1,)

    def test_crlf(self):
        system = parse_system("vars: x, y\r\nx*y + 1\r\n")
        assert system.polynomials == (X * Y + 1,)

    def test_duplicates_collapsed(self):
        system = parse_system("x + 1\nx + 1\ny")
        assert system.polynomials == (X + 1, Y)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError, match="exponent"):
            parse_system("x^-1")

    def test_exponent_too_large(self):
        # an exponent longer than poly._DIGITS is refused before int() reads it
        long = "1" * (_DIGITS + 1)
        with pytest.raises(ParseError) as info:
            parse_system(f"x + 1\n  (x + 1)^{long} - 1")
        assert (info.value.line, info.value.col, info.value.reason) == (2, 11, "exponent too large")
        with pytest.raises(ParseError, match="exponent too large"):
            parse_system("x^" + "1" * 5000)

    def test_longest_exponent_literal(self):
        longest = "0" * (_DIGITS - 1) + "3"
        assert parse_system(f"x^{longest} + 2^{longest}").polynomials == (X**3 + 8,)

    def test_juxtaposition_is_not_multiplication(self):
        with pytest.raises(ParseError):
            parse_system("2 x")

    def test_undeclared_variable(self):
        with pytest.raises(ParseError, match="undeclared variable"):
            parse_system("vars: x, y\nx + w")

    def test_zero_line_rejected(self):
        with pytest.raises(ParseError, match="zero"):
            parse_system("x - x")

    def test_empty_system_rejected(self):
        for text in ["", "# nothing here\n", "vars: x, y\n \n"]:
            # no line or column: there is no polynomial to point at
            with pytest.raises(ParseError, match="^empty system$") as info:
                parse_system(text)
            assert (info.value.line, info.value.col) == (None, None)

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(ParseError, match="duplicate variable"):
            parse_system("vars: x, x\nx + 1")

    @pytest.mark.parametrize(
        "declaration, reason",
        [("vars:", "empty variable declaration"), ("vars:  \t", "empty variable declaration"),
         ("vars: x, 1y", "invalid variable name '1y'")],
        ids=["empty", "blank", "invalid-name"],
    )
    def test_bad_declaration(self, declaration, reason):
        with pytest.raises(ParseError) as info:
            parse_system(declaration + "\nx + 1")
        assert (info.value.line, info.value.col, info.value.reason) == (1, 6, reason)

    def test_error_position_is_one_based(self):
        with pytest.raises(ParseError) as info:
            parse_system("x + 1\nx + + *")
        assert info.value.line == 2
        assert info.value.col == 5

    @pytest.mark.parametrize(
        "text, col",
        [("x + \u00b2", 5), ("\u00e9 + 1", 1), ("x^\u0663 - 1", 3)],
        ids=["superscript-two", "e-acute", "arabic-indic-three"],
    )
    def test_non_ascii_character_rejected(self, text, col):
        # str.isdigit, isalpha and isalnum accept these; the grammar does not
        with pytest.raises(ParseError, match=re.escape(f"unexpected character {text[col - 1]!r}")) as info:
            parse_system("x + 1\n" + text)
        assert (info.value.line, info.value.col) == (2, col)

    @pytest.mark.parametrize(
        "text, line, col, reason",
        [("x + 1\n\u2028\n", 2, 1, "unexpected character '\\u2028'"),
         ("x + 1\n\f \u3000\n", 2, 1, "unexpected character '\\x0c'"),
         ("\u3000vars: x, y\nx", 1, 1, "unexpected character '\\u3000'"),
         ("vars: x,\u3000y\nx", 1, 6, "invalid variable name '\\u3000y'")],
        ids=["line-separator", "form-feed", "ideographic-space-before-vars", "ideographic-space-in-vars"],
    )
    def test_only_spaces_and_tabs_are_blank(self, text, line, col, reason):
        # a blank line, the indent of vars: and the padding of a declared name
        # hold spaces and tabs only; any other white space is a stray character
        with pytest.raises(ParseError) as info:
            parse_system(text)
        assert (info.value.line, info.value.col, info.value.reason) == (line, col, reason)

    def test_byte_order_mark_in_text_rejected(self):
        # the CLI drops a mark that leads a file's bytes; text is parsed as it is
        with pytest.raises(ParseError) as info:
            parse_system("\ufeffx + 1\n")
        assert (info.value.line, info.value.col, info.value.reason) == (1, 1, "unexpected character '\\ufeff'")

    @pytest.mark.parametrize(
        "text, col, message",
        [("2x", 2, "unexpected token 'x'"), ("x +\t@", 5, "unexpected character '@'"),
         ("  (x + 1", 9, "expected ')'")],
        ids=["int-then-name", "tab-then-character", "unclosed-parenthesis"],
    )
    def test_token_errors(self, text, col, message):
        with pytest.raises(ParseError) as info:
            parse_system(text)
        assert (info.value.line, info.value.col, info.value.reason) == (1, col, message)

    def test_tokens_around_tabs_and_underscores(self):
        assert parse_system("x\t^ 2 ").polynomials == (X**2,)
        assert parse_system("x_1^2").polynomials == (Polynomial.variable(Variable("x_1")) ** 2,)

    def test_unary_minus_and_parentheses(self):
        system = parse_system("-(x - 2)*(x + 3)")
        assert system.polynomials == (-(X - 2) * (X + 3),)

    def test_whitespace_insensitive(self):
        a = parse_system("x^2+3*x*y-7")
        b = parse_system("  x ^ 2 + 3 * x * y - 7 ")
        assert a.polynomials == b.polynomials

    def test_runs_of_unary_minus(self):
        # a run of minus signs is read in one loop, so its length is unbounded
        assert parse_system("-" * 5000 + "x").polynomials == (X,)
        assert parse_system("-" * 5001 + "x").polynomials == (-X,)
        assert parse_system("--x*y - -3").polynomials == (X * Y + 3,)
        assert parse_system("+-x^2").polynomials == (-(X**2),)

    @pytest.mark.parametrize(
        "text, col, message",
        [("-+x", 2, "expected a term, found '+'"), ("++x", 2, "expected a term, found '+'"),
         ("-", 2, "unexpected end of line"), ("x * - ", 7, "unexpected end of line")],
    )
    def test_sign_errors(self, text, col, message):
        with pytest.raises(ParseError) as info:
            parse_system(text)
        assert (info.value.line, info.value.col, info.value.reason) == (1, col, message)

    @settings(max_examples=150, deadline=None)
    @given(infix_lines())
    def test_parses_like_sympy(self, case):
        # the grammar's precedence and signs, checked against sympy reading the
        # same text with ^ as **; a line that expands to zero is refused
        variables, line = case
        expected = sympy.expand(sympy.sympify(line.replace("^", "**")))
        if expected == 0:
            with pytest.raises(ParseError, match="polynomial simplifies to zero"):
                parse_system(line)
        else:
            poly = sympy.Poly(expected, *[sympy.Symbol(v) for v in variables])
            assert parse_system(line).polynomials == (polynomial_of(poly, tuple(variables)),)

    def test_nested_parentheses_parse(self):
        assert parse_system("(" * 100 + "x" + ")" * 100).polynomials == (X,)

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="parentheses nested deeper than 100") as info:
            parse_system("x + 1\n" + "(" * 1000 + "x" + ")" * 1000)
        assert (info.value.line, info.value.col) == (2, 101)


class TestPositions:
    def test_first_occurrence_line_and_column(self):
        text = "# head\n\nvars: x, y\n# c\n  x^2 - 1\nx*y + 1  # t\n\t x^2 - 1\n5\n"
        system = parse_system(text)
        assert system.polynomials == (X**2 - 1, X * Y + 1, Polynomial.constant(5))
        assert system.positions == ((5, 3), (6, 1), (8, 1))

    def test_ignored_by_equality_hash_and_repr(self):
        parsed = parse_system("\n  x + y\n")
        built = PolySystem.make([X + Y])
        assert parsed.positions == ((2, 3),) and built.positions == ()
        assert parsed == built and hash(parsed) == hash(built)
        assert repr(parsed) == repr(built)


class TestRender:
    def test_examples(self):
        assert str(X**2 + Y) == "x^2 + y"
        assert str(-4 * Y) == "-4*y"
        assert str(Polynomial.zero()) == "0"

    def test_graded_lex_term_order(self):
        p = X * Y**2 + X**2 * Y + X + Y**3
        assert str(p) == "x^2*y + x*y^2 + y^3 + x"

    @settings(max_examples=200, deadline=None)
    @given(polynomials())
    def test_round_trip_property(self, p):
        assert parse_system(str(p)).polynomials == (p,)

    def test_coefficients_of_any_length(self):
        # 5000 digits, past Python's default int <-> str limit of 4300; the
        # zeros of the second one must survive the conversion
        nines, padded = "9" * 5000, "1" + "0" * 4998 + "7"
        text = f"{nines}*x - {padded}"
        (p,) = parse_system(text).polynomials
        assert p == (10**5000 - 1) * X - (10**4999 + 7)
        assert str(p) == text
        assert parse_system(str(p)).polynomials == (p,)

    def test_round_trip(self):
        rng = random.Random(21)
        for _ in range(500):
            n_vars = rng.randint(1, 3)
            p = random_polynomial(rng, [x, y, z][:n_vars], max_degree=5, max_terms=6)
            assert parse_system(str(p)).polynomials == (p,)
