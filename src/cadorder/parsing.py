"""Parser for the ``.poly`` problem-file format.

Format: an optional first significant line ``vars: v1, v2, ...``, then one
polynomial per line in infix notation with ``+ - * ^``, parentheses,
non-negative integer literals and identifiers, both ASCII only.  ``#`` starts
a comment and juxtaposition is not multiplication (an explicit ``*`` is
required).  ``^`` takes a non-negative integer literal exponent of at most 639
digits (``poly._DIGITS``).  A line ends at ``\n``, ``\r\n`` or ``\r`` and
nowhere else.  It is split into tokens by one ASCII regular expression, where
spaces and tabs, the only blanks, separate them, and read by one function that
calls itself once per parenthesis.  A line of only blanks and a comment is
ignored, and only blanks are stripped around declared and ``--order`` names.
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import NamedTuple

from .poly import _DIGITS, Polynomial, PolySystem, Variable, _int_of_digits, generators

# Blanks, then one token: an integer, a name (ASCII only, as Variable
# requires), an operator, the end of the line or any other character.
_TOKEN = re.compile(
    r"[ \t]*(?:(?P<INT>[0-9]+)|(?P<NAME>[A-Za-z0-9_]+)|(?P<OP>[-+*^()])|(?P<END>\Z)|(?P<BAD>.))",
    re.DOTALL,
)

# Each level of parentheses costs the parser one call of _sum; this many
# levels stay well inside Python's default recursion limit.
_MAX_NESTING = 100

# The lines of a text: each ends at \n, \r\n or \r, and only there (str.splitlines
# also ends one at \v, \f, \x1c-\x1e, \x85, U+2028 and U+2029).
_lines = re.compile(r"\r\n?|\n").split


class ParseError(ValueError):
    """Syntax or semantic error with its 1-based source position, if any."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message if line is None else f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


def _decode(data: bytes) -> str:
    """The text of input bytes: UTF-8, after a leading byte-order mark if any.
    A bad byte raises ParseError at its position, lines split as ``_lines``
    splits them."""
    data = data.removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = _lines(data[:exc.start].decode("utf-8") + "?")  # the last one ends at the bad byte
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}", len(lines), len(lines[-1])) from None


class _Token(NamedTuple):
    kind: str  # NAME, INT, one of + - * ^ ( ), or END
    text: str
    col: int  # 1-based


def _tokenize(line: str, lineno: int) -> list[_Token]:
    tokens = []
    for m in _TOKEN.finditer(line):  # every position matches: no gaps
        kind = m.lastgroup
        text, col = m[kind], m.start(kind) + 1
        if kind == "BAD":
            raise ParseError(f"unexpected character {text!r}", lineno, col)
        tokens.append(_Token(text if kind == "OP" else kind, text, col))
        if kind == "END":
            return tokens


def _sum(tokens: list[_Token], pos: int, depth: int, lineno: int,
         declared: list[Variable] | None, gens: dict[Variable, Polynomial]) -> tuple[Polynomial | int, int]:
    """Read a sum of products of signed powers at ``tokens[pos]``, inside
    ``depth`` parentheses, from the line's ``generators`` and int literals;
    return it and the position of the token after it.  Only a parenthesis
    recurses."""
    if tokens[pos].kind == "+":
        pos += 1
    total = product = op = None  # op: the sign before the product being read
    while True:  # one signed power per pass
        negate = False
        while tokens[pos].kind == "-":  # a unary minus, or a run of them
            negate = not negate
            pos += 1
        tok = tokens[pos]
        pos += 1
        if tok.kind == "INT":
            p = _int_of_digits(tok.text)
        elif tok.kind == "NAME":
            if declared is not None and tok.text not in declared:
                raise ParseError(f"undeclared variable {tok.text!r}", lineno, tok.col)
            p = gens[tok.text]
        elif tok.kind == "(":
            if depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", lineno, tok.col)
            p, pos = _sum(tokens, pos, depth + 1, lineno, declared, gens)
            if tokens[pos].kind != ")":
                raise ParseError("expected ')'", lineno, tokens[pos].col)
            pos += 1
        else:
            raise ParseError(f"expected a term, found {tok.text!r}" if tok.kind != "END"
                             else "unexpected end of line", lineno, tok.col)
        if tokens[pos].kind == "^":
            tok = tokens[pos + 1]
            pos += 2
            if tok.kind != "INT":
                raise ParseError("exponent must be a non-negative integer literal", lineno, tok.col)
            if len(tok.text) > _DIGITS:  # int() may refuse a longer one
                raise ParseError("exponent too large", lineno, tok.col)
            p = p ** int(tok.text)
        if negate:
            p = -p
        product = p if product is None else product * p
        kind = tokens[pos].kind
        if kind == "*":
            pos += 1
            continue
        total = product if total is None else total - product if op == "-" else total + product
        if kind not in "+-":
            return total, pos
        op, product = kind, None
        pos += 1


def parse_system(text: str) -> PolySystem:
    """Parse a ``.poly`` document into a polynomial system.

    Raises ParseError on syntax errors, parentheses nested more than
    100 deep, undeclared variables, zero-polynomial lines, duplicate
    declarations or an empty system.  Duplicate polynomials are collapsed,
    and the system's ``positions`` give the line and first non-blank column
    of the line where each polynomial first appears.
    """
    declared: list[Variable] | None = None
    first: dict[Polynomial, tuple[int, int]] = {}  # polynomial -> (line, column)
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.partition("#")[0]
        if declared is None and not first and (m := re.match(r"[ \t]*vars:", line)):
            col0 = m.end() + 1
            names = [part.strip(" \t") for part in line[m.end():].split(",")]
            if names == [""]:
                raise ParseError("empty variable declaration", lineno, col0)
            declared = []
            for name in names:
                try:
                    v = Variable(name)
                except ValueError:
                    raise ParseError(f"invalid variable name {name!r}", lineno, col0)
                if v in declared:
                    raise ParseError(f"duplicate variable {name!r}", lineno, col0)
                declared.append(v)
            continue
        tokens = _tokenize(line, lineno)  # a bad character is reported before any syntax error
        if tokens[0].kind == "END":
            continue  # blank: spaces and tabs at most
        names = declared or {Variable(t.text) for t in tokens if t.kind == "NAME"}
        p, pos = _sum(tokens, 0, 0, lineno, declared, generators(names))
        if tokens[pos].kind != "END":
            raise ParseError(f"unexpected token {tokens[pos].text!r}", lineno, tokens[pos].col)
        if isinstance(p, int):  # a line of constants only
            p = Polynomial.constant(p)
        if p.is_zero():
            raise ParseError("polynomial simplifies to zero", lineno, tokens[0].col)
        first.setdefault(p, (lineno, tokens[0].col))
    if not first:
        raise ParseError("empty system")
    return replace(PolySystem.make(first, variables=declared), positions=tuple(first.values()))
