"""McCallum-style projection: build the full set of projection polynomials
for a given variable ordering.

Orderings are written as tuples in the reverse order of projection: the last
tuple element is eliminated first, and the first element is the variable of
the final univariate level.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .poly import Polynomial, PolySystem, Variable, canonicalize, discriminant, resultant

VariableOrdering = tuple[Variable, ...]


def format_ordering(ordering: Sequence[Variable]) -> str:
    return ">".join(ordering)


def parse_ordering(text: str) -> VariableOrdering:
    """Parse a '>'-joined ordering such as ``x>y>z``."""
    names = text.split(">")
    ordering = tuple(Variable(name.strip(" \t")) for name in names)
    if len(set(ordering)) != len(ordering):
        raise ValueError(f"repeated variable in ordering {text!r}")
    return ordering


@dataclass(frozen=True)
class ProjectionSet:
    """Leveled projection polynomials; levels[0] is level n (the input) and
    levels[-1] is level 1 (univariate in ordering[0], or empty).  A level is
    a set, held in the order its polynomials are first produced."""

    ordering: VariableOrdering
    levels: tuple[tuple[Polynomial, ...], ...]


def reduce_level(polys: Iterable[Polynomial]) -> tuple[Polynomial, ...]:
    """Canonicalize, drop constants and zeros, deduplicate; the first appearance keeps its place."""
    canonical = dict.fromkeys(canonicalize(p) for p in polys)  # deduplicated, in order
    return tuple(p for p in canonical if not p.is_constant())


def project_once(level: Iterable[Polynomial], v: Variable) -> tuple[Polynomial, ...]:
    """Single projection step eliminating v: pass-through of members free of
    v, all coefficients, discriminants of degree >= 2 members, and pairwise
    resultants; reduced afterwards."""
    produced: list[Polynomial] = []
    involving: list[Polynomial] = []
    for p in level:
        coeffs = p.coefficients_wrt(v)  # one per power of v up to the degree
        if len(coeffs) == 1:
            produced.append(p)  # pass through untouched by elimination
            continue
        involving.append(p)
        produced += coeffs
        if len(coeffs) > 2:
            produced.append(discriminant(p, v))
    if not produced:
        raise ValueError("empty level")
    produced += (resultant(p, q, v) for p, q in combinations(involving, 2))
    return reduce_level(produced)


def full_projection(system: PolySystem, ordering: Sequence[Variable]) -> ProjectionSet:
    """Project the system level by level down to a univariate level; each level
    lists its polynomials in the deterministic order of their first production."""
    ordering = tuple(ordering)
    if sorted(ordering) != list(system.variables):
        raise ValueError(
            f"ordering {format_ordering(ordering)} is not a permutation of the "
            f"system variables {{{', '.join(system.variables)}}}"
        )
    levels = [reduce_level(system.polynomials)]
    for v in reversed(ordering[1:]):
        levels.append(project_once(levels[-1], v) if levels[-1] else ())
    return ProjectionSet(ordering, tuple(levels))
