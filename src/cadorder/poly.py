"""Sparse multivariate polynomials over the integers.

Polynomials are stored as a map from monomials to nonzero arbitrary-precision
integer coefficients.  Everything here is immutable and pure, so values can be
shared freely between threads.  The module also provides the resultant and
discriminant machinery needed to build CAD projection sets; resultants are
computed with a subresultant polynomial remainder sequence, staying in the
integer ring throughout.  Its pseudo-remainders come from ``_prem``, the one
fixed-step pseudo-division on dense coefficient lists, which the univariate
chains share.

No stored coefficient is ever 0.  ``Polynomial(terms)`` drops zeros from any
mapping; in arithmetic only the pair-by-pair product needs that.
``_from_terms`` takes as it is a dict that has none by construction: from sums
and differences, which drop a term as it cancels, negation, scaling by a
nonzero int, the packed product, ``coefficients_wrt``, ``derivative``,
``canonicalize``, ``exact_div`` and Kronecker read-back.

``Monomial`` is the only monomial type outside this module.  Inside it, a
product with many term pairs and an exact division by a non-constant
polynomial work on packed integer keys, one per monomial, made once per call
and unpacked into Monomials at the end (Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007).  A key has one field for the total degree, at the top, and then one
field per variable of the operands in name order, all of the same width: the
bit length of the largest total degree the call can reach, plus one guard bit
at the top of each field.  No field can overflow into the next, so

- the key of a product of monomials is the sum of their keys;
- comparing keys compares the total degree first and then the exponents in
  name order, which is graded-lex order (``Monomial.order_key``), so the
  largest key is the leading monomial;
- ``k - j`` is the key of a monomial quotient exactly when no guard bit of
  the difference is set: an exponent of j larger than k's borrows, and the
  borrow sets the guard bit of the lowest such field.

A pseudo-remainder over Polynomial coefficients whose operands have more than
``_LOOP_MAX_TERMS`` terms in all runs by Kronecker substitution (von zur
Gathen and Gerhard, *Modern Computer Algebra*, 8.4).  Each coefficient of a
and b, a polynomial in the other variables, becomes one int, its value at
x_j = 2^(w s_j): the plain sum of its terms shifted into their slots, where
s_j is x_j's stride in a dense degree box and w is the slot width in bits.
The loop of ``_prem`` runs on those ints, and each int of the remainder is
read back slot by slot.  Substitution is a ring homomorphism, so no
intermediate value can overflow; only the remainder has to fit, and with
steps = len(a) - len(b) + 1 it does:

- the box has max(deg_v a, deg_v b) + steps * deg_v b + 1 slots for each v,
  deg_v the largest degree in v of a list's coefficients, because each step
  r <- lc(b) r - lc(r) x^k b raises deg_v r by at most deg_v b;
- w >= bits(R0) + steps * bits(L) + 1, rounded up to whole bytes, where R0 is
  the largest 1-norm of a's coefficients and L = |lc b|_1 + max |b_j|_1 over
  j below the top: that step multiplies the largest 1-norm in r by at most L,
  an integer coefficient is at most its polynomial's 1-norm, and the last bit
  is the sign.

An int n is read back by adding the bias B, 2^(w-1) in every slot, which makes
every slot nonnegative, and taking the XOR with B, which leaves each slot
holding its coefficient in w-bit two's complement: one ``to_bytes`` gives
every slot, and a regular-expression scan in C skips the zero ones.  Smaller
operands keep the loop over Polynomials, where substitution costs more than
it saves, and so do operands whose box has more than
``_KRONECKER_SLOTS_PER_TERM`` slots per term, so that a sparse input of high
degree cannot allocate a huge int.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Variable(str):
    """A named variable: a str that is a valid identifier, so it compares,
    hashes and orders as its name."""

    __slots__ = ()

    def __new__(cls, name: str) -> "Variable":
        if not _NAME_RE.match(name):
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

    def degree_in(self, v: Variable) -> int:
        for w, e in self:
            if w == v:
                return e
        return 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not self:
            return other
        if not other:
            return self
        summed = dict(self)
        for v, e in other:
            summed[v] = summed.get(v, 0) + e
        return tuple.__new__(Monomial, sorted(summed.items()))

    def order_key(self) -> tuple:
        """Ascending sort key for descending graded-lex order, variables ranked
        by name.  Needs no variable list: an absent variable is a zero
        exponent, and at equal total degree no pair tuple is a strict prefix
        of another."""
        return (-self.total_degree, tuple((v, -e) for v, e in self))


_ONE_MONOMIAL = Monomial(())

# Products with at most this many term pairs multiply Monomials pair by pair.
# Packing has a fixed cost per call (scanning the variables, packing every
# term, unpacking every result) of about 20 pair merges; on the products that
# projections make, packing wins from about 50-80 term pairs on (2-core Xeon,
# Python 3.11).  Most products (parser, pseudo-remainder) have a single-term
# or constant operand.
_PAIR_MERGE_MAX = 64


def _packing(operands: Iterable[Mapping[Monomial, int]], degree: int):
    """``(pack, unpack, guards)`` for the packed-key layout described in the
    module docstring, over the variables of ``operands``, for monomials of
    total degree at most ``degree``.  ``guards`` has every guard bit set."""
    vs = sorted({v for terms in operands for m in terms for v, _ in m})
    w = degree.bit_length() + 1
    shifts = [(v, (len(vs) - 1 - i) * w) for i, v in enumerate(vs)]
    top = 1 << (len(vs) * w)  # a unit in the total-degree field
    unit = {v: (1 << s) + top for v, s in shifts}
    field = (1 << w) - 1
    guards = sum(1 << (i * w + w - 1) for i in range(len(vs) + 1))

    def pack(m: Monomial) -> int:
        return sum([e * unit[v] for v, e in m])

    def unpack(k: int) -> Monomial:
        return tuple.__new__(Monomial, [(v, e) for v, s in shifts if (e := k >> s & field)])

    return pack, unpack, guards


class Polynomial:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int]):
        self._terms = {m: c for m, c in terms.items() if c != 0}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial({})

    @staticmethod
    def constant(c: int) -> "Polynomial":
        return Polynomial({_ONE_MONOMIAL: c})

    @staticmethod
    def variable(v: Variable) -> "Polynomial":
        return Polynomial({Monomial([(v, 1)]): 1})

    # -- basic protocol ----------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, int]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not any(self._terms)  # every monomial the empty tuple

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    # -- arithmetic --------------------------------------------------------

    def _plus(self, other: "Polynomial | int", sign: int) -> "Polynomial":
        """self + sign * other, for a sign of 1 or -1."""
        if isinstance(other, int):
            other = Polynomial.constant(other)
        out = dict(self._terms)
        for m, c in other._terms.items():  # a term that cancels is dropped at once
            if s := out.get(m, 0) + sign * c:
                out[m] = s
            else:
                del out[m]
        return _from_terms(out)

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _from_terms({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        return self._plus(other, -1)

    def __rsub__(self, other: int) -> "Polynomial":
        return Polynomial.constant(other) - self

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            return _from_terms({m: c * other for m, c in self._terms.items()} if other else {})
        a, b = self._terms, other._terms
        if len(a) * len(b) <= _PAIR_MERGE_MAX:
            out: dict[Monomial, int] = {}
            for m1, c1 in a.items():
                for m2, c2 in b.items():
                    m = m1 * m2
                    out[m] = out.get(m, 0) + c1 * c2
            return Polynomial(out)
        # kept: the pair merge at every size read hard cpu_s 3.42 -> 3.52 s and won 3
        # of 10 pairs (medians of alternating perfbench runs, 2 cores, Python 3.11)
        pack, unpack, _ = _packing((a, b), self.total_degree() + other.total_degree())
        kb = [(pack(m), c) for m, c in b.items()]
        acc: dict[int, int] = {}
        for m1, c1 in a.items():
            k1 = pack(m1)
            for k2, c2 in kb:
                k = k1 + k2
                acc[k] = acc.get(k, 0) + c1 * c2
        return _from_terms({unpack(k): c for k, c in acc.items() if c})

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
        return frozenset(v for m in self._terms for v, _ in m)

    def degree_in(self, v: Variable) -> int:
        """Maximum exponent of ``v`` over all terms; 0 for the zero polynomial."""
        return max((m.degree_in(v) for m in self._terms), default=0)

    def total_degree(self) -> int:
        """Maximum monomial total degree; 0 for the zero polynomial."""
        return max([sum([e for _, e in m]) for m in self._terms], default=0)

    def coefficients_wrt(self, v: Variable) -> list["Polynomial"]:
        """Coefficient polynomials of v^0 .. v^deg, none involving ``v``."""
        buckets: list[dict[Monomial, int]] = [{}]
        for m, c in self._terms.items():
            for i, (w, e) in enumerate(m):
                if w == v:
                    while len(buckets) <= e:
                        buckets.append({})
                    buckets[e][tuple.__new__(Monomial, m[:i] + m[i + 1:])] = c
                    break
            else:
                buckets[0][m] = c
        return [_from_terms(b) for b in buckets]

    def derivative(self, v: Variable) -> "Polynomial":
        # distinct monomials in v stay distinct when v's exponent drops by 1
        return _from_terms({Monomial([(w, k - 1 if w == v else k) for w, k in m]): c * e
                            for m, c in self._terms.items() if (e := m.degree_in(v))})

    def leading_coefficient(self) -> int:
        """Coefficient of the graded-lex-leading term; 0 for the zero polynomial."""
        if not self._terms:
            return 0
        # kept: min over all terms by order_key read corpus cpu_s 4.90 -> 4.99 s, won 3 of 10
        top, lead = -1, []  # the monomials of top total degree
        for m in self._terms:
            d = sum([e for _, e in m])
            if d > top:
                top, lead = d, [m]
            elif d == top:
                lead.append(m)
        return self._terms[lead[0] if len(lead) == 1 else min(lead, key=Monomial.order_key)]

    def content(self) -> int:
        """Gcd of the absolute coefficient values; 0 for the zero polynomial."""
        return math.gcd(*self._terms.values())

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return _render(self._terms)


def _from_terms(terms: dict[Monomial, int]) -> Polynomial:
    """The Polynomial of ``terms``, taken as it is: no coefficient may be 0."""
    p = object.__new__(Polynomial)
    p._terms = terms
    return p


_ONE = Polynomial.constant(1)

# Python refuses an int <-> str conversion of more digits than a process-wide
# limit, which may be set as low as this threshold; pieces of fewer digits
# always convert.
_DIGITS = sys.int_info.str_digits_check_threshold - 1
_BASE = 10**_DIGITS


def _decimal(c: int | Fraction) -> str:
    """``str(c)`` of an int or Fraction of any length."""
    if isinstance(c, Fraction):
        n, d = c.numerator, c.denominator
        return _decimal(n) if d == 1 else f"{_decimal(n)}/{_decimal(d)}"
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


def _render(terms: Mapping[Monomial, int | Fraction]) -> str:
    """Infix text of a sum of terms in graded-lex order, each coefficient
    written exactly: an int as digits, a Fraction as ``n/d``."""
    if not terms:
        return "0"
    chunks: list[str] = []
    for m in sorted(terms, key=Monomial.order_key):
        c = terms[m]
        factors = [f"{v}^{e}" if e > 1 else str(v) for v, e in m]
        if abs(c) != 1 or not factors:
            factors.insert(0, _decimal(abs(c)))
        chunks.append(("- " if c < 0 else "+ ") + "*".join(factors))
    text = " ".join(chunks)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def canonicalize(p: Polynomial) -> Polynomial:
    """Divide out the integer content and make the leading coefficient positive."""
    if p.is_zero():
        return p
    c = p.content()
    if p.leading_coefficient() < 0:
        c = -c
    if c == 1:  # kept: without it and exact_div's, corpus cpu_s 4.87 -> 5.09 s, won 0 of 10
        return p
    return _from_terms({m: coeff // c for m, coeff in p.terms.items()})


def exact_div(p: Polynomial, d: Polynomial) -> Polynomial:
    """Exact polynomial quotient p / d; raises when the division is inexact.

    The remainder is kept by packed key, and its leading term is the largest
    key on a max-heap.  No remainder term ever exceeds p's total degree."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if d.is_constant():  # a constant divides each term of p on its own
        (lc_d,) = d.terms.values()
        if lc_d == 1:  # kept, like canonicalize's unit return
            return p
        if any(c % lc_d for c in p.terms.values()):
            raise ArithmeticError("inexact polynomial division")
        return _from_terms({m: c // lc_d for m, c in p.terms.items()})
    pack, unpack, guards = _packing((p.terms, d.terms), max(p.total_degree(), d.total_degree()))
    (k_d, lc_d), *rest = sorted(((pack(m), c) for m, c in d.terms.items()), reverse=True)
    r = {pack(m): c for m, c in p.terms.items()}
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
    return _from_terms({unpack(k): c for k, c in quotient.items()})


# -- resultants ------------------------------------------------------------


def _trim(coeffs: list) -> list:
    """Drop zero leading coefficients: int, Fraction or Polynomial ones."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


# Pseudo-remainders over Polynomial coefficients keep the loop when their
# operands have at most this many terms in all, and substitute
# (`_kronecker_prem`) otherwise.  On the
# benchmark's harvested calls (2-core Xeon, Python 3.11), substitution took
# 1.6-1.9x the loop's time at up to 4 terms and 1.2-1.3x at 5-10, and 0.7-0.8x
# at 11-14 and 0.4-0.6x beyond; 28 k of corpus's 30 k calls have at most 10.
_LOOP_MAX_TERMS = 10
# ... and when their degree box has at most this many slots per term present.
# On random sparse operands in two variables substitution broke even at 20-30
# slots per term and took 1.4x the loop's time at 86 and 13x at 336; no
# harvested call exceeds 26, and 88 % have at most 2.
_KRONECKER_SLOTS_PER_TERM = 32
_NONZERO_BYTE = re.compile(rb"[^\x00]")


def _kronecker_prem(a: list, b: list, max_slots: int | None = None) -> list | None:
    """``_prem(a, b)`` of Polynomial coefficient lists by Kronecker
    substitution (see the module docstring): each coefficient becomes one
    int, the loop of `_prem` runs on the ints, and the remainder's ints are
    read back slot by slot.  None when the degree box has more than
    ``max_slots`` slots."""
    steps = len(a) - len(b) + 1
    if steps < 1:
        return _trim(list(a))
    deg_a: dict[Variable, int] = {}
    deg_b: dict[Variable, int] = {}
    for coeffs, deg in ((a, deg_a), (b, deg_b)):
        for c in coeffs:
            for m in c.terms:
                for v, e in m:
                    if e > deg.get(v, 0):
                        deg[v] = e
    dims, slots = [], 1  # (variable, stride, extent) in name order
    for v in sorted(deg_a.keys() | deg_b.keys()):
        db = deg_b.get(v, 0)
        extent = max(deg_a.get(v, 0), db) + steps * db + 1
        dims.append((v, slots, extent))
        slots *= extent
    if max_slots is not None and slots > max_slots:
        return None
    stride = {v: s for v, s, _ in dims}

    def norm(c: Polynomial) -> int:
        return sum(map(abs, c.terms.values()))

    lead = norm(b[-1]) + max(map(norm, b[:-1]), default=0)
    width = (max(map(norm, a), default=0).bit_length() + steps * lead.bit_length()) // 8 + 1
    half = (1 << (8 * width - 1)).to_bytes(width, "little")  # a slot's bias; width is in bytes

    def encode(c: Polynomial) -> int:
        return sum([k << 8 * width * sum([e * stride[v] for v, e in m]) for m, k in c.terms.items()])

    def decode(n: int) -> Polynomial:
        count = min(n.bit_length() // (8 * width) + 1, slots)  # up to n's top slot
        biased = int.from_bytes(half * count, "little")
        data = ((n + biased) ^ biased).to_bytes(count * width, "little")
        terms = {}  # each slot of data is now its coefficient in two's complement
        hit = _NONZERO_BYTE.search(data)
        while hit:
            s = hit.start() // width
            m = tuple.__new__(Monomial, [(v, e) for v, st, ext in dims if (e := s // st % ext)])
            terms[m] = int.from_bytes(data[s * width:(s + 1) * width], "little", signed=True)
            hit = _NONZERO_BYTE.search(data, (s + 1) * width)
        return _from_terms(terms)

    return [decode(n) for n in _prem([encode(c) for c in a], [encode(c) for c in b])]


def _prem(a: list, b: list, modulus: int | None = None) -> list:
    """Pseudo-remainder of dense coefficient lists: lc(b)^(da-db+1) * a mod b,
    by fixed-step pseudo-division (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R):
    each of da - db + 1 steps pops the leading coefficient, scales the rest
    by lc(b), unless lc(b) is 1, and subtracts the popped one times
    x^k * b[:-1].  Coefficients may be Polynomials (resultants), ints or
    Fractions (gcd, Sturm chains).  Polynomial operands of more than
    ``_LOOP_MAX_TERMS`` terms in all go through `_kronecker_prem`,
    unless their degree box is too sparse.  With a modulus the popped
    coefficient is reduced at every step and the remainder at the end, so by
    a monic b this is the remainder over GF(modulus)."""
    lc, tail = b[-1], b[:-1]
    if isinstance(lc, Polynomial):
        terms = sum([len(c._terms) for c in a]) + sum([len(c._terms) for c in b])
        if terms > _LOOP_MAX_TERMS:
            r = _kronecker_prem(a, b, _KRONECKER_SLOTS_PER_TERM * terms)
            if r is not None:
                return r
    scale = lc not in (1, _ONE)  # two tests, as a Polynomial never equals an int
    r = list(a)
    for k in range(len(a) - len(b), -1, -1):
        lcr = r.pop()
        if modulus:
            lcr %= modulus
        if scale:
            r = [lc * c for c in r]
        if lcr:
            for i, bc in enumerate(tail, k):
                r[i] -= lcr * bc
    return _trim([c % modulus for c in r] if modulus else r)


def resultant(p: Polynomial, q: Polynomial, v: Variable) -> Polynomial:
    """Resultant of p and q with respect to v (Sylvester determinant).

    Computed by the subresultant polynomial remainder sequence, so all
    intermediate values stay in the integer ring.  Conventions for degenerate
    degrees: deg(p)=deg(q)=0 gives 1, and a degree-0 operand c paired with a
    degree-d operand gives c^d.
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("zero operand")
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

    g, h = _ONE, _ONE
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        r = _prem(a, b)
        a = b
        denom = g * h**delta
        b = [exact_div(c, denom) for c in r]
        if not b:
            return Polynomial.zero()
        g = a[-1]
        if delta > 0:
            h = exact_div(g**delta, h ** (delta - 1))
        if len(b) - 1 == 0:
            break

    da = len(a) - 1
    res = exact_div(b[0] ** da, h ** (da - 1))
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
        return PolySystem(vs, polys)
