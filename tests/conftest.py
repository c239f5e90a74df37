"""Shared helpers for the test suite: random polynomial generators and a
variable-renaming utility used by the equivariance checks.

With the CI environment variable set, Hypothesis runs the ``ci`` profile:
derandomized, and printing a reproduction blob for every failure, so a
failing property reproduces from the log alone."""

from __future__ import annotations

import os
import random

from hypothesis import settings

from cadorder import Monomial, Polynomial, PolySystem, Variable

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def random_polynomial(
    rng: random.Random,
    variables: list[Variable],
    max_degree: int = 4,
    max_terms: int = 4,
    coeff_range: tuple[int, int] = (-9, 9),
    nonzero: bool = True,
) -> Polynomial:
    """A random sparse polynomial of total degree <= max_degree."""
    while True:
        terms: dict[Monomial, int] = {}
        for _ in range(rng.randint(1, max_terms)):
            total = rng.randint(0, max_degree)
            exps: dict[Variable, int] = {}
            for _ in range(total):
                v = rng.choice(variables)
                exps[v] = exps.get(v, 0) + 1
            c = rng.randint(*coeff_range)
            m = Monomial(exps)
            terms[m] = terms.get(m, 0) + c
        p = Polynomial(terms)
        if not nonzero or not p.is_zero():
            return p


def random_system(
    rng: random.Random,
    n_vars: int,
    n_polys: int,
    max_degree: int = 4,
) -> PolySystem:
    variables = [Variable(name) for name in "xyzwuv"[:n_vars]]
    polys: list[Polynomial] = []
    while len(polys) < n_polys:
        p = random_polynomial(rng, variables, max_degree=max_degree)
        if not p.is_constant() and p not in polys:
            polys.append(p)
    return PolySystem.make(polys, variables=variables)


def rename(p: Polynomial, mapping: dict[Variable, Variable]) -> Polynomial:
    """Apply a variable substitution (must be injective on p's variables)."""
    terms = {}
    for m, c in p.terms.items():
        new = Monomial({mapping.get(v, v): e for v, e in m.exps})
        terms[new] = c
    return Polynomial(terms)
