"""The three variable-ordering heuristics: Brown, sotd and ndrr.

Brown ranks variables by three syntactic criteria on the input system alone.
sotd and ndrr evaluate every candidate ordering on the full projection set:
sotd sums the total degrees of all monomials across all levels, ndrr counts
the distinct real roots of the univariate (level-1) polynomials.  Smaller is
better for both.  Ties are broken by picking the lexicographically least
ordering tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import factorial, prod
from typing import Iterable, Mapping, Sequence

from .poly import PolySystem, Variable
from .projection import ProjectionSet, VariableOrdering, full_projection
from .univariate import count_distinct_real_roots, to_univariate

VARIABLE_CAP = 7

HEURISTICS = ("brown", "sotd", "ndrr")


@dataclass(frozen=True, order=True)
class BrownTriple:
    """Per-variable criteria: degree in the input, maximum total degree of
    terms containing the variable, and the number of such terms.
    Componentwise comparison; smaller means eliminate earlier."""

    crit1: int
    crit2: int
    crit3: int


@dataclass(frozen=True)
class HeuristicReport:
    heuristic: str
    per_ordering: Mapping[VariableOrdering, int] | None  # sotd/ndrr only
    candidates: tuple[VariableOrdering, ...]
    chosen: VariableOrdering


def enumerate_orderings(variables: Sequence[Variable]) -> list[VariableOrdering]:
    """All orderings of the variables, in lexicographic tuple order."""
    n = len(variables)
    if n < 1:
        raise ValueError("no variables to order")
    if n > VARIABLE_CAP:
        raise ValueError(f"{n} variables exceed the enumeration cap of {VARIABLE_CAP}")
    return [tuple(p) for p in permutations(sorted(variables))]


def brown_triple(system: PolySystem, v: Variable) -> BrownTriple:
    if v not in system.variables:
        raise ValueError(f"unknown variable {v.name!r}")
    crit1 = 0
    crit2 = 0
    crit3 = 0
    for p in system.polynomials:
        crit1 = max(crit1, p.degree_in(v))
        for m in p.terms:
            if m.degree_in(v) > 0:
                crit2 = max(crit2, m.total_degree)
                crit3 += 1
    return BrownTriple(crit1, crit2, crit3)


def brown_candidates(system: PolySystem) -> list[VariableOrdering]:
    """Every ordering consistent with Brown's ranking, lexicographically sorted.

    Variables are ranked ascending by their triples; a smaller triple is
    eliminated earlier.  Variables with identical triples are interchangeable,
    so each consistent elimination order yields one candidate tuple (written
    in reverse order of elimination).  Raises, before enumerating, when there
    are more candidates than orderings of ``VARIABLE_CAP`` variables.
    """
    if not system.polynomials:
        raise ValueError("empty system")
    groups: dict[BrownTriple, list[Variable]] = {}
    for v in system.variables:
        groups.setdefault(brown_triple(system, v), []).append(v)
    ordered_groups = [groups[t] for t in sorted(groups)]
    count, cap = prod(factorial(len(g)) for g in ordered_groups), factorial(VARIABLE_CAP)
    if count > cap:
        raise ValueError(f"{count} Brown candidates exceed the enumeration cap of {cap}")
    out = []
    for arrangement in product(*(permutations(g) for g in ordered_groups)):
        elimination = [v for group in arrangement for v in group]
        out.append(tuple(reversed(elimination)))
    return sorted(out)


def sotd_value(ps: ProjectionSet) -> int:
    """Sum of total degrees of every monomial on every level, input included."""
    return sum(
        m.total_degree
        for level in ps.levels
        for p in level
        for m in p.terms
    )


def ndrr_value(ps: ProjectionSet) -> int:
    """Total distinct real roots of the level-1 (univariate) polynomials."""
    if not ps.levels:
        return 0
    v = ps.ordering[0]
    return sum(
        count_distinct_real_roots(to_univariate(p, v)) for p in ps.levels[-1]
    )


def lex_tiebreak(candidates: Iterable[VariableOrdering]) -> VariableOrdering:
    """The lexicographically least ordering tuple, compared by variable names."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("no candidate orderings")
    return min(candidates)


def choose(system: PolySystem, heuristic: str) -> HeuristicReport:
    """Run one heuristic on a system and report candidates and the choice."""
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}")
    if not system.polynomials:
        raise ValueError("empty system")
    if not system.variables:
        raise ValueError("no variables to order")
    if heuristic == "brown":
        candidates = tuple(brown_candidates(system))
        return HeuristicReport("brown", None, candidates, lex_tiebreak(candidates))
    metric = sotd_value if heuristic == "sotd" else ndrr_value
    per_ordering = {
        ordering: metric(full_projection(system, ordering))
        for ordering in enumerate_orderings(system.variables)
    }
    best = min(per_ordering.values())
    candidates = tuple(o for o, val in per_ordering.items() if val == best)
    return HeuristicReport(heuristic, per_ordering, candidates, lex_tiebreak(candidates))
