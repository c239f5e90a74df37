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
    levels[-1] is level 1 (univariate in ordering[0], or empty)."""

    ordering: VariableOrdering
    levels: tuple[tuple[Polynomial, ...], ...]


def reduce_level(polys: Iterable[Polynomial]) -> tuple[Polynomial, ...]:
    """Canonicalize, drop constants and zeros, deduplicate, sort deterministically."""
    canonical = dict.fromkeys(canonicalize(p) for p in polys)  # deduplicated, in order
    return tuple(sorted((p for p in canonical if not p.is_constant()), key=str))


def project_once(level: Iterable[Polynomial], v: Variable) -> tuple[Polynomial, ...]:
    """Single projection step eliminating v: pass-through of members free of
    v, all coefficients, discriminants of degree >= 2 members, and pairwise
    resultants; reduced afterwards."""
    members = list(level)
    if not members:
        raise ValueError("empty level")
    produced: list[Polynomial] = []
    involving = []
    for p in members:
        coeffs = p.coefficients_wrt(v)  # one per power of v up to the degree
        if len(coeffs) == 1:
            produced.append(p)  # pass through untouched by elimination
        else:
            involving.append((p, coeffs))
    for p, coeffs in involving:
        produced.extend(coeffs)
        if len(coeffs) > 2:
            produced.append(discriminant(p, v))
    for (p, _), (q, _) in combinations(involving, 2):
        produced.append(resultant(p, q, v))
    return reduce_level(produced)


def full_projection(system: PolySystem, ordering: Sequence[Variable]) -> ProjectionSet:
    """Project the system level by level down to a univariate level."""
    ordering = tuple(ordering)
    if sorted(ordering) != list(system.variables):
        raise ValueError(
            f"ordering {format_ordering(ordering)} is not a permutation of the "
            f"system variables {{{', '.join(system.variables)}}}"
        )
    levels = [reduce_level(system.polynomials)]
    for k in range(len(ordering), 1, -1):
        current = levels[-1]
        if not current:
            levels.append(())
        else:
            levels.append(project_once(current, ordering[k - 1]))
    return ProjectionSet(ordering, tuple(levels))
