"""Sparse multivariate polynomials over the integers.

A Polynomial maps packed integer keys, one per monomial, to nonzero
arbitrary-precision integer coefficients, and holds the ``_Layout`` its keys
are packed in (Monagan and Pearce, "Polynomial division using dynamic arrays,
heaps, and packed exponent vectors", CASC 2007; *JSC* 46, 2011).  Everything
here is immutable and pure, so values can be shared freely between threads.
The module also provides the resultant and discriminant machinery needed to
build CAD projection sets; resultants are computed with a subresultant
polynomial remainder sequence, staying in the integer ring throughout.  Its
pseudo-remainders come from ``_prem``, the one fixed-step pseudo-division on
dense coefficient lists, which the univariate chains share.

A layout has variables in name order and one field width: 16 bits, or a
multiple of 16 that a larger total degree needs.  A key has one field for the
total degree, at the top, and then one field per variable, in name order; the
top bit of every field is a guard bit, kept clear because every polynomial's
total degree stays below it.  No field can overflow into the next, so

- the key of a product of monomials is the sum of their keys; a product whose
  total degree would reach a guard bit is repacked wider first;
- comparing keys compares the total degree first and then the exponents in
  name order, which is graded-lex order, so the largest key is the leading
  monomial;
- ``k - j`` is the key of a monomial quotient exactly when no guard bit of
  the difference is set: an exponent of j larger than k's borrows, and the
  borrow sets the guard bit of the lowest such field;
- an exponent, or the total degree, is a shift and a mask.

There is one layout per variables and width.  ``PolySystem.make`` repacks a
system into one, and all that is computed from it keeps that layout, so an
operation tests one identity; operands in two layouts are repacked into the
union of their variables at the larger width.  Equality and hashing do not
depend on the layout.  No other module reads a key: ``Polynomial(terms)``
packs a mapping by ``Monomial``, ``.terms`` unpacks one anew on each access,
and ``total_degrees``, ``univariate_coefficients`` and ``generators`` serve
sotd, the univariate view and the parser.  ``_from_terms`` takes as it is a
key dict that has no zero coefficient by construction.

``resultant`` runs its whole subresultant chain on integers, by Kronecker
substitution (von zur Gathen and Gerhard, *Modern Computer Algebra*, 8.4),
when its operands have more than ``_LOOP_MAX_TERMS`` terms in all.  Let a
have degree m and b degree n in the main variable.  Each coefficient of a
and b, a polynomial in the other variables, becomes one int, once: its value
at y = 2^(w s_y), the plain sum of its terms shifted into their slots, where
s_y is y's stride in a dense degree box and w is the slot width in bits.
The chain of ``_subresultants`` (pseudo-remainders, exact divisions by
g h^delta, the h updates and the last division) runs on those ints, and only
the resultant is read back.  Each coefficient of a chain member, each g
and h and the resultant is, up to sign, a minor of the Sylvester matrix,
whose rows are n shifted copies of a and m of b, so it fits the box:

- its degree in y is at most n deg_y a + m deg_y b, deg_y the largest degree
  in y of a list's coefficients, and the box has that many slots plus one
  for each y;
- each of its integer coefficients is at most |a|^n |b|^m in size, |a| and
  |b| the sums of the 1-norms of a's and of b's coefficients, and w is
  n bits(|a|) + m bits(|b|) + 1 rounded up to whole bytes, the last bit the
  sign.

A polynomial that fits the box can be read back from its image, so it is 0
exactly when its image is, and substitution is a ring homomorphism: each
zero test of ``_trim`` on an image is the polynomial's own, and where a
polynomial divides another exactly, the images divide exactly with the
image of the quotient.  Products and pseudo-remainders on the way need not
fit; they are plain ints.

An int n is read back by adding the bias B, 2^(w-1) in every slot, which makes
every slot nonnegative, and taking the XOR with B, which leaves each slot
holding its coefficient in w-bit two's complement: one ``to_bytes`` gives
every slot, and a regular-expression scan in C skips the zero ones.  Smaller
operands keep the chain on Polynomials, where substitution costs more than
it saves, and so do operands whose image, slots times width, would have
more than ``_KRONECKER_BYTES_PER_TERM`` bytes per term: CPython divides
long ints in quadratic time, so the route's cost grows with the square of
the image, while a chain of sparse polynomials stays small.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import cache
from heapq import heapify, heappop, heappush


class Variable(str):
    """A named variable: a str that is an ASCII identifier, so it compares,
    hashes and orders as its name."""

    __slots__ = ()

    def __new__(cls, name: str) -> "Variable":
        if not (name.isascii() and name.isidentifier()):
            raise ValueError(f"invalid variable name: {name!r}")
        return super().__new__(cls, name)

    @property
    def name(self) -> str:
        return str(self)

    def __repr__(self) -> str:
        return f"Variable(name={self.name!r})"


class Monomial(tuple):
    """A product of variables with positive integer exponents.

    The tuple of (variable, exponent) pairs sorted by variable name, so it
    compares and hashes as that tuple; each variable is stored once, and
    variables with exponent zero are never stored.  Exponents given for the
    same variable more than once are summed.
    """

    __slots__ = ()

    def __new__(cls, exps: Mapping[Variable, int] | Iterable[tuple[Variable, int]]) -> "Monomial":
        items = exps.items() if isinstance(exps, Mapping) else exps
        summed: dict[Variable, int] = {}
        for v, e in items:
            if e < 0:
                raise ValueError("negative exponent in monomial")
            if e:
                summed[v] = summed.get(v, 0) + e
        return super().__new__(cls, sorted(summed.items()))

    @property
    def exps(self) -> tuple[tuple[Variable, int], ...]:
        return tuple(self)

    def __repr__(self) -> str:
        if not self:
            return "Monomial(1)"
        return "Monomial(" + "*".join(f"{v}^{e}" for v, e in self) + ")"

    @property
    def total_degree(self) -> int:
        return sum(e for _, e in self)


# Bits per key field, guard bit included, unless a total degree needs more.
_WIDTH = 16


def _width(degree: int) -> int:
    """The smallest multiple of _WIDTH whose guard bit lies above ``degree``."""
    return _WIDTH * (degree.bit_length() // _WIDTH + 1)


class _Layout:
    """Where each variable's exponent and the total degree lie in a key (see
    the module docstring); ``_layout`` makes one per variables and width."""

    __slots__ = ("variables", "width", "top", "mask", "guards", "shifts", "units")

    def __init__(self, variables: tuple[Variable, ...], width: int):
        n, variables = len(variables), tuple(map(Variable, variables))  # a name may come as a plain str
        self.variables, self.width, self.top, self.mask = variables, width, n * width, (1 << width) - 1
        self.guards = sum(1 << (i * width + width - 1) for i in range(n + 1))
        self.shifts = {v: (n - 1 - i) * width for i, v in enumerate(variables)}
        self.units = {v: (1 << s) + (1 << self.top) for v, s in self.shifts.items()}  # the key of v


_layout = cache(_Layout)
_EMPTY = _layout((), _WIDTH)


class Polynomial:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("_terms", "_layout")

    def __init__(self, terms: Mapping[Monomial, int]):
        terms = {m: c for m, c in terms.items() if c != 0}
        lay = _layout(tuple(sorted({v for m in terms for v, _ in m})),
                      _width(max([m.total_degree for m in terms], default=0)))
        self._terms, self._layout = {sum([e * lay.units[v] for v, e in m]): c for m, c in terms.items()}, lay

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return _from_terms({}, _EMPTY)

    @staticmethod
    def constant(c: int) -> "Polynomial":
        return _from_terms({0: c} if c else {}, _EMPTY)

    @staticmethod
    def variable(v: Variable) -> "Polynomial":
        return generators([v])[v]

    # -- basic protocol ----------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, int]:
        """The terms by Monomial, unpacked anew on each access."""
        fields, mask = self._layout.shifts.items(), self._layout.mask
        return {tuple.__new__(Monomial, [(v, e) for v, s in fields if (e := k >> s & mask)]): c
                for k, c in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not any(self._terms)  # every key 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return False
        if self._layout is not other._layout and len(self._terms) == len(other._terms):
            degree = self.total_degree()
            if degree != other.total_degree():
                return False
            if degree:  # a constant's key is 0 in every layout
                self, other = _joint(self, other)
        return self._terms == other._terms

    def __hash__(self) -> int:  # of what no layout changes: the total degree and the coefficients
        return hash((max(self._terms, default=0) >> self._layout.top, frozenset(self._terms.values())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def _repack(self, lay: "_Layout") -> "Polynomial":
        """self in ``lay``, which has every variable of self and a width no smaller."""
        old = self._layout
        if old is lay:
            return self
        moves = [(s, old.mask, lay.units[v]) for v, s in old.shifts.items() if v in lay.units]
        return _from_terms({sum([(k >> s & m) * u for s, m, u in moves]): c for k, c in self._terms.items()}, lay)

    # -- arithmetic --------------------------------------------------------

    def _plus(self, other: "Polynomial | int", sign: int) -> "Polynomial":
        """self + sign * other, for a sign of 1 or -1."""
        if isinstance(other, int):
            other = _from_terms({0: other} if other else {}, self._layout)
        elif self._layout is not other._layout:
            self, other = _joint(self, other)
        out = dict(self._terms)
        for k, c in other._terms.items():  # a term that cancels is dropped at once
            if s := out.get(k, 0) + sign * c:
                out[k] = s
            else:
                del out[k]
        return _from_terms(out, self._layout)

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _from_terms({k: -c for k, c in self._terms.items()}, self._layout)

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        return self._plus(other, -1)

    def __rsub__(self, other: int) -> "Polynomial":
        return -self + other

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            return _from_terms({k: c * other for k, c in self._terms.items()} if other else {}, self._layout)
        if self._layout is not other._layout:
            self, other = _joint(self, other)
        lay, a, b = self._layout, self._terms, other._terms
        if not (a and b):
            return _from_terms({}, lay)
        degree = (max(a) >> lay.top) + (max(b) >> lay.top)
        if degree.bit_length() >= lay.width:  # it would reach a guard bit
            lay = _layout(lay.variables, _width(degree))
            a, b = self._repack(lay)._terms, other._repack(lay)._terms
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:  # a one-term factor: every key of the product is new, no coefficient 0
            ((k2, c2),) = b.items()
            return _from_terms({k + k2: c * c2 for k, c in a.items()}, lay)
        acc: dict[int, int] = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                acc[k] = acc.get(k, 0) + c1 * c2
        return _from_terms({k: c for k, c in acc.items() if c}, lay)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        if not n:
            return Polynomial.constant(1)
        out = self
        for bit in f"{n:b}"[1:]:  # squares only while bits of n remain
            out = out * out
            if bit == "1":
                out = out * self
        return out

    # -- structure ---------------------------------------------------------

    def variables(self) -> frozenset[Variable]:
        mask = self._layout.mask
        return frozenset(v for v, s in self._layout.shifts.items() if any(k >> s & mask for k in self._terms))

    def degree_in(self, v: Variable) -> int:
        """Maximum exponent of ``v`` over all terms; 0 for the zero polynomial."""
        lay = self._layout
        s = lay.shifts.get(v)
        return 0 if s is None else max([k >> s & lay.mask for k in self._terms], default=0)

    def total_degree(self) -> int:
        """Maximum monomial total degree; 0 for the zero polynomial."""
        return max(self._terms, default=0) >> self._layout.top

    def total_degrees(self) -> list[int]:
        """The total degree of each term."""
        top = self._layout.top
        return [k >> top for k in self._terms]

    def coefficients_wrt(self, v: Variable) -> list["Polynomial"]:
        """Coefficient polynomials of v^0 .. v^deg, none involving ``v``."""
        lay = self._layout
        if v not in lay.shifts:
            return [self]
        s, mask, unit = lay.shifts[v], lay.mask, lay.units[v]
        buckets: list[dict[int, int]] = [{}]
        for k, c in self._terms.items():
            e = k >> s & mask
            while len(buckets) <= e:
                buckets.append({})
            buckets[e][k - e * unit] = c
        return [_from_terms(b, lay) for b in buckets]

    def univariate_coefficients(self, v: Variable) -> tuple[int, ...]:
        """Coefficients of v^0 .. v^deg; ValueError if a term has another variable."""
        powers, lay = {}, self._layout  # no stored coefficient is 0
        unit = lay.units.get(v, 0)
        for k, c in self._terms.items():
            e = k >> lay.top  # the total degree: the exponent of v if the term is a power of v
            if k != e * unit:
                names = ", ".join(sorted(self.variables() - {v}))
                raise ValueError(f"polynomial is not univariate in {v}: also uses {names}")
            powers[e] = c
        return tuple([powers.get(i, 0) for i in range(max(powers, default=-1) + 1)])

    def derivative(self, v: Variable) -> "Polynomial":
        # distinct monomials in v stay distinct when v's exponent drops by 1
        lay = self._layout
        if v not in lay.shifts:
            return _from_terms({}, lay)
        s, mask, unit = lay.shifts[v], lay.mask, lay.units[v]
        return _from_terms({k - unit: c * e for k, c in self._terms.items() if (e := k >> s & mask)}, lay)

    def leading_coefficient(self) -> int:
        """Coefficient of the graded-lex-leading term; 0 for the zero polynomial."""
        return self._terms[max(self._terms)] if self._terms else 0

    def content(self) -> int:
        """Gcd of the absolute coefficient values; 0 for the zero polynomial."""
        return math.gcd(*self._terms.values())

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        """Infix text in graded-lex order, each coefficient written exactly in
        decimal digits; ``parse_system`` re-reads it exactly."""
        terms, lay = self._terms, self._layout
        if not terms:
            return "0"
        chunks: list[str] = []
        shifts, mask = lay.shifts.items(), lay.mask
        for k in sorted(terms, reverse=True):
            c = terms[k]
            factors = [f"{v}^{e}" if e > 1 else v for v, s in shifts if (e := k >> s & mask)]
            if abs(c) != 1 or not factors:
                factors.insert(0, _decimal(abs(c)))
            chunks.append(("- " if c < 0 else "+ ") + "*".join(factors))
        text = " ".join(chunks)
        return text[2:] if text[0] == "+" else "-" + text[2:]


def _from_terms(terms: dict[int, int], lay: _Layout) -> Polynomial:
    """The Polynomial of ``terms``, keys packed in ``lay``, taken as it is: no
    coefficient may be 0."""
    p = object.__new__(Polynomial)
    p._terms, p._layout = terms, lay
    return p


def generators(names: Iterable[Variable]) -> dict[Variable, Polynomial]:
    """Each named variable as a Polynomial, all in one layout."""
    lay = _layout(tuple(sorted(names)), _WIDTH)
    return {v: _from_terms({u: 1}, lay) for v, u in lay.units.items()}


def _joint(*polys: Polynomial) -> list[Polynomial]:
    """``polys`` repacked into one layout: the union of their variables at
    the largest width."""
    lay = _layout(tuple(sorted({v for p in polys for v in p._layout.variables})),
                  max([p._layout.width for p in polys]))
    return [p._repack(lay) for p in polys]


_ONE = Polynomial.constant(1)

# Python refuses an int <-> str conversion of more digits than a process-wide
# limit, which may be set as low as this threshold; pieces of fewer digits
# always convert.
_DIGITS = sys.int_info.str_digits_check_threshold - 1
_BASE = 10**_DIGITS


def _decimal(c: int) -> str:
    """``str(c)`` of an int of any length."""
    if -_BASE < c < _BASE:
        return str(c)
    n, pieces = abs(c), []
    while n >= _BASE:
        n, low = divmod(n, _BASE)
        pieces.append(f"{low:0{_DIGITS}d}")
    return ("-" if c < 0 else "") + str(n) + "".join(reversed(pieces))


def _int_of_digits(text: str) -> int:
    """``int(text)`` of a string of ASCII digits of any length."""
    if len(text) < _DIGITS:
        return int(text)
    head = len(text) % _DIGITS or _DIGITS
    n = int(text[:head])
    for i in range(head, len(text), _DIGITS):
        n = n * _BASE + int(text[i:i + _DIGITS])
    return n


def canonicalize(p: Polynomial) -> Polynomial:
    """Divide out the integer content and make the leading coefficient positive."""
    if p.is_zero():
        return p
    c = p.content()
    if p.leading_coefficient() < 0:
        c = -c
    if c == 1:  # kept: without it and exact_div's, corpus cpu_s 4.87 -> 5.09 s, won 0 of 10
        return p
    return _from_terms({k: coeff // c for k, coeff in p._terms.items()}, p._layout)


def exact_div(p: Polynomial, d: Polynomial) -> Polynomial:
    """Exact polynomial quotient p / d; raises when the division is inexact.

    The remainder is kept by key, and its leading term is the largest key on
    a max-heap.  No remainder term ever exceeds p's total degree."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if d.is_constant():  # a constant divides each term of p on its own
        lc_d = d._terms[0]
        if lc_d == 1:  # kept, like canonicalize's unit return
            return p
        if any(c % lc_d for c in p._terms.values()):
            raise ArithmeticError("inexact polynomial division")
        return _from_terms({k: c // lc_d for k, c in p._terms.items()}, p._layout)
    if p._layout is not d._layout:
        p, d = _joint(p, d)
    guards = p._layout.guards
    (k_d, lc_d), *rest = sorted(d._terms.items(), reverse=True)
    r = dict(p._terms)
    heap = [-k for k in r]  # r's keys, negated; a key no longer in r is stale
    heapify(heap)
    quotient: dict[int, int] = {}
    while heap:
        k = -heappop(heap)
        c = r.pop(k, 0)
        if not c:
            continue
        qk = k - k_d
        if qk & guards or c % lc_d:
            raise ArithmeticError("inexact polynomial division")
        qc = c // lc_d
        quotient[qk] = qc  # a new key: leading keys strictly fall
        for kd, dc in rest:  # r -= qc*qm*d, in place; the leading term cancelled
            t = qk + kd
            rc = r.get(t)
            if rc is None:
                r[t] = -qc * dc
                heappush(heap, -t)
            else:
                rc -= qc * dc
                if rc:
                    r[t] = rc
                else:
                    del r[t]
    return _from_terms(quotient, p._layout)


# -- resultants ------------------------------------------------------------


def _trim(coeffs: list) -> list:
    """Drop zero leading coefficients: int or Polynomial ones."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


# `resultant` keeps its chain on Polynomials when its operands have at most
# this many terms in all, and runs it on Kronecker images otherwise.  On the
# 9.9 k distinct calls of the benchmark's corpus and hard pools (2-core Xeon,
# Python 3.11), the route took 1.3-2.1x the chain's time at 2-6 terms, 1.02x
# at 7, 0.85x at 8, 0.4-0.8x at 9-14 and 0.3-0.8x beyond; 25 k of their 29 k
# calls have at most 7 terms.  Corpus `cpu_s` medians read 2.97 s with this
# cutoff, 3.08 s with 10 and 3.25 s with none (10 perfbench runs each).
_LOOP_MAX_TERMS = 7
# ... and when an image of their degree box, slots times width, has at most
# this many bytes per term.  On 531 random pairs in x and 1-4 other
# variables above the cutoff (each side cut at 3 s), routing by this cap
# took 93 s in all, the faster side of each pair 86 s, and a cap of 32 slots
# per term 181 s; caps from 2000 to 3200 read within 2 %.  No harvested call
# passes 440 bytes per term.
_KRONECKER_BYTES_PER_TERM = 2048
_NONZERO_BYTE = re.compile(rb"[^\x00]")


def _kronecker_resultant(a: list, b: list, max_bytes: int) -> Polynomial | None:
    """The resultant of Polynomial coefficient lists in one layout, which
    need ``len(a) >= len(b) >= 2``, by Kronecker substitution (see the module
    docstring): each coefficient becomes one int, ``_subresultants`` runs on
    the ints, and the resultant's int is read back slot by slot.  None when
    an image of the whole degree box would take more than ``max_bytes``
    bytes."""
    m, n = len(a) - 1, len(b) - 1
    lay = a[0]._layout
    mask = lay.mask
    dims, slots = [], 1  # (variable, shift, stride, extent) of each variable present, in name order
    for v, s in lay.shifts.items():
        extent = sum([d * max([k >> s & mask for c in cs for k in c._terms]) for d, cs in ((n, a), (m, b))]) + 1
        if extent > 1:
            dims.append((v, s, slots, extent))
            slots *= extent
    bits = [sum([abs(t) for c in cs for t in c._terms.values()]).bit_length() for cs in (a, b)]
    width = (n * bits[0] + m * bits[1]) // 8 + 1
    if slots * width > max_bytes:
        return None
    out = _layout(lay.variables, max(lay.width, _width(sum([ext - 1 for *_, ext in dims]))))  # fits every slot
    places = [(stride, extent, out.units[v]) for v, _, stride, extent in dims]
    half = (1 << (8 * width - 1)).to_bytes(width, "little")  # a slot's bias; width is in bytes

    def encode(c: Polynomial) -> int:
        return sum([t << 8 * width * sum([(k >> s & mask) * st for _, s, st, _ in dims]) for k, t in c._terms.items()])

    res = _subresultants([encode(c) for c in a], [encode(c) for c in b], int.__floordiv__, 1)
    count = min(res.bit_length() // (8 * width) + 1, slots)  # up to res's top slot
    biased = int.from_bytes(half * count, "little")
    data = ((res + biased) ^ biased).to_bytes(count * width, "little")
    terms = {}  # each slot of data is now its coefficient in two's complement
    hit = _NONZERO_BYTE.search(data)
    while hit:
        i = hit.start() // width
        terms[sum([i // st % ext * unit for st, ext, unit in places])] = int.from_bytes(
            data[i * width:(i + 1) * width], "little", signed=True)
        hit = _NONZERO_BYTE.search(data, (i + 1) * width)
    return _from_terms(terms, out)


def _prem(a: list, b: list) -> list:
    """Pseudo-remainder of dense coefficient lists: lc(b)^(da-db+1) * a mod b,
    by fixed-step pseudo-division (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R):
    each of da - db + 1 steps pops the leading coefficient, scales the rest's
    nonzero ones by lc(b), unless lc(b) is 1, and subtracts the popped one
    times x^k * b[:-1].  Coefficients may be Polynomials (a resultant's chain)
    or ints: the Kronecker images of a resultant's chain, and the integer gcd
    and Sturm chains.  `_gcd_mod` reduces each remainder by a monic b mod p
    itself."""
    lc, tail = b[-1], b[:-1]
    scale = lc not in (1, _ONE)  # two tests, as a Polynomial never equals an int
    r = list(a)
    for k in range(len(a) - len(b), -1, -1):
        lcr = r.pop()
        if scale:
            r = [lc * c if c else c for c in r]
        if lcr:
            for i, bc in enumerate(tail, k):
                r[i] -= lcr * bc
    return _trim(r)


def _subresultants(a: list, b: list, div, one):
    """The resultant of coefficient lists with ``len(a) >= len(b) >= 2``, by
    the subresultant remainder sequence (Brown and Traub, *JACM* 18, 1971):
    ``div`` divides exactly, and ``one`` is the unit of the coefficients,
    Polynomials or their Kronecker images."""
    sign, g, h = 1, one, one
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        r = _prem(a, b)
        a = b
        denom = g * h**delta
        b = [div(c, denom) for c in r]
        if not b:  # a common factor
            return one * 0
        g = a[-1]
        if delta > 0:
            h = div(g**delta, h ** (delta - 1))
        if len(b) == 1:
            break
    da = len(a) - 1
    res = div(b[0] ** da, h ** (da - 1))
    return res if sign > 0 else -res


def resultant(p: Polynomial, q: Polynomial, v: Variable) -> Polynomial:
    """Resultant of p and q with respect to v (Sylvester determinant).

    Computed by the subresultant polynomial remainder sequence, so all
    intermediate values stay in the integer ring.  Conventions for degenerate
    degrees: deg(p)=deg(q)=0 gives 1, and a degree-0 operand c paired with a
    degree-d operand gives c^d.
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("zero operand")
    if p._layout is not q._layout:
        p, q = _joint(p, q)
    a, b = p.coefficients_wrt(v), q.coefficients_wrt(v)
    dp, dq = len(a) - 1, len(b) - 1
    if dq == 0:  # q**0 is 1 when both degrees are 0
        return q**dp
    if dp == 0:
        return p**dq
    sign = 1
    if dp < dq:
        a, b = b, a
        if dp % 2 == 1 and dq % 2 == 1:
            sign = -sign
    terms = len(p._terms) + len(q._terms)
    res = _kronecker_resultant(a, b, _KRONECKER_BYTES_PER_TERM * terms) if terms > _LOOP_MAX_TERMS else None
    if res is None:  # small operands, or an image too large for their terms
        res = _subresultants(a, b, exact_div, _ONE)
    return res if sign > 0 else -res


def discriminant(p: Polynomial, v: Variable) -> Polynomial:
    """resultant(p, dp/dv, v); requires degree >= 2 in v.

    Differs from the classical discriminant by a unit times the leading
    coefficient, which is irrelevant once projection factors are
    canonicalized.
    """
    if p.degree_in(v) < 2:
        raise ValueError("degree too low for discriminant")
    return resultant(p, p.derivative(v), v)


# -- polynomial systems ------------------------------------------------------


@dataclass(frozen=True)
class PolySystem:
    """An input system: its variables in canonical name order, plus the
    deduplicated list of nonzero polynomials.  A parsed system's
    ``positions`` are the 1-based (line, column) where each polynomial first
    appears in the source; ``make`` leaves them empty.  Equality, hashing and
    repr ignore them."""

    variables: tuple[Variable, ...]
    polynomials: tuple[Polynomial, ...]
    positions: tuple[tuple[int, int], ...] = field(default=(), compare=False, repr=False)

    @staticmethod
    def make(
        polynomials: Iterable[Polynomial],
        variables: Iterable[Variable] | None = None,
    ) -> "PolySystem":
        polys = tuple(dict.fromkeys(polynomials))
        if any(p.is_zero() for p in polys):
            raise ValueError("zero polynomial in system")
        occurring: set[Variable] = set()
        for p in polys:
            occurring.update(p.variables())
        if variables is None:
            vs = tuple(sorted(occurring))
        else:
            vs = tuple(sorted(set(variables)))
            missing = occurring - set(vs)
            if missing:
                names = ", ".join(sorted(missing))
                raise ValueError(f"undeclared variables in system: {names}")
        lay = _layout(vs, max([p._layout.width for p in polys], default=_WIDTH))
        return PolySystem(vs, tuple([p._repack(lay) for p in polys]))
