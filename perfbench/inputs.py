"""Seeded input generation for the benchmark.

Everything here is independent of the ``cadorder`` package: polynomials are
plain ``{exponent tuple: int}`` dicts rendered to ``.poly`` text, and cell
tables are CSV bytes.  ``gen.py`` uses it to build the committed input pools;
``run.py`` uses it to make the seeded cell tables of the ``stats`` workload.
"""

from __future__ import annotations

import math
import random
from functools import reduce
from itertools import permutations

DEFAULT_SEED = 0

# The ROADMAP's pathological systems plus two random systems of similar
# weight found with the corpus generator; each is (variables, polynomials).
HARD_SYSTEMS = {
    # c7 invariance suite, seed 107: 208 resultant calls, 97 distinct.
    "h1_c7_seed107": ("x, y, z", ["6*y^4 - x^3 - 7*z^3", "5*x*y^2*z - 4*x*y - 9*x*z + 7"]),
    "h2_w4": ("w, x, y, z", ["9*w^2 - 4*x^2 - 9*x*z + 3*w", "w*y + 7*w*z - 4*x*z + 8*z"]),
    "h3_xyz3": ("x, y, z", [
        "3*x*y^2 + 7*z^3 - 9*y^2 + 2",
        "-x*z^2 + 7*x*z - 6*y*z - 6",
        "-3*y*z^2 - 3*x*y + 8",
    ]),
    "h4_xyz3": ("x, y, z", [
        "-x*z^2 - 2*y^2*z + 6*y*z^2 + 1",
        "8*z^2 + 9*z",
        "8*y^3 - 7*y^2*z - 6*x^2 - 2*z",
    ]),
}

# Corpus shapes: (number of variables, number of polynomials, max total
# degree, max terms per polynomial, how many systems).
CORPUS_SHAPES = (
    (3, 2, 3, 4, 50),
    (3, 3, 3, 4, 50),
    (4, 2, 2, 4, 60),
)

NAMES = {3: "xyz", 4: "wxyz"}


# -- sparse integer polynomials as {exponents: coefficient} -------------------


def random_poly(rng: random.Random, nvars: int, max_deg: int, max_terms: int) -> dict:
    """A random sparse polynomial of total degree <= max_deg, nonzero."""
    while True:
        terms: dict[tuple[int, ...], int] = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = [0] * nvars
            for _ in range(rng.randint(0, max_deg)):
                exps[rng.randrange(nvars)] += 1
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + rng.choice((-1, 1)) * rng.randint(1, 9)
        terms = {k: c for k, c in terms.items() if c}
        if terms:
            return terms


def canonical_key(p: dict) -> tuple:
    """Identifies p up to a nonzero rational factor."""
    g = reduce(math.gcd, (abs(c) for c in p.values()))
    if p[max(p)] < 0:
        g = -g
    return tuple(sorted((k, c // g) for k, c in p.items()))


def random_system(rng: random.Random, nvars: int, npolys: int, max_deg: int, max_terms: int) -> list[dict]:
    """npolys non-constant polynomials, pairwise not scalar multiples, that
    together use every one of the nvars variables."""
    while True:
        polys: list[dict] = []
        keys: set[tuple] = set()
        while len(polys) < npolys:
            p = random_poly(rng, nvars, max_deg, max_terms)
            if all(not any(k) for k in p):
                continue
            key = canonical_key(p)
            if key not in keys:
                keys.add(key)
                polys.append(p)
        used = {i for p in polys for k in p for i, e in enumerate(k) if e}
        if len(used) == nvars:
            return polys


def render_terms(terms) -> str:
    """Infix text of [(list of (name, exponent), coefficient)], in order."""
    chunks = []
    for factors, c in terms:
        mag = abs(c)
        body = "*".join(
            ([str(mag)] if mag != 1 or not factors else [])
            + [n if e == 1 else f"{n}^{e}" for n, e in factors]
        )
        if not chunks:
            chunks.append(("-" if c < 0 else "") + body)
        else:
            chunks.append(("- " if c < 0 else "+ ") + body)
    return " ".join(chunks)


def render(p: dict, names: str) -> str:
    """Infix text in descending (total degree, exponents) order."""
    return render_terms(
        ([(n, e) for n, e in zip(names, k) if e], p[k])
        for k in sorted(p, key=lambda k: (sum(k), k), reverse=True)
    )


def system_text(polys: list[dict], nvars: int) -> str:
    names = NAMES[nvars]
    return f"vars: {', '.join(names)}\n" + "".join(render(p, names) + "\n" for p in polys)


def corpus_systems(seed: int) -> dict[str, str]:
    """The seeded random part of the corpus, as {item id: .poly text}."""
    rng = random.Random(seed)
    out = {}
    for nvars, npolys, max_deg, max_terms, count in CORPUS_SHAPES:
        for i in range(count):
            polys = random_system(rng, nvars, npolys, max_deg, max_terms)
            out[f"r{nvars}v{npolys}p_{i:03d}"] = system_text(polys, nvars)
    return out


def hard_systems() -> dict[str, str]:
    return {
        name: f"vars: {vs}\n" + "".join(p + "\n" for p in polys)
        for name, (vs, polys) in HARD_SYSTEMS.items()
    }


# -- univariate integer polynomials as low-to-high coefficient lists ----------


def umul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def upow(a: list[int], n: int) -> list[int]:
    out = [1]
    for _ in range(n):
        out = umul(out, a)
    return out


def utext(coeffs: list[int], name: str = "x") -> str:
    return render({(i,): c for i, c in enumerate(coeffs) if c}, name)


DENSE_SHAPES = ((60, 64), (70, 64), (80, 64), (90, 64), (100, 64), (100, 32))


def dense_roots_polys(rng: random.Random) -> dict[str, str]:
    """Dense random polynomials of degree 60..100 with coefficients of up to
    64 bits; random dense polynomials have few real roots."""
    out = {}
    for i, (deg, bits) in enumerate(DENSE_SHAPES):
        coeffs = [rng.choice((-1, 1)) * rng.getrandbits(bits) for _ in range(deg)]
        coeffs.append(rng.getrandbits(bits) | (1 << (bits - 1)))
        out[f"dense_{i}_d{deg}_b{bits}"] = utext(coeffs)
    return out


def factored_roots_polys(rng: random.Random) -> dict[str, tuple[str, int]]:
    """Products of repeated and clustered factors, as {id: (text, distinct
    real roots)}; the root count is known from the construction."""
    out = {}
    for i in range(8):
        factors: list[tuple[list[int], int]] = []
        roots: set = set()
        centre = rng.randint(-50, 50)
        scale = rng.choice((100, 1000, 10000))
        # A cluster of rational roots (scale*centre + j) / scale, close together.
        for j in rng.sample(range(1, 40), 6):
            num = scale * centre + j
            g = math.gcd(num, scale)
            root = (num // g, scale // g)
            if root not in roots:
                roots.add(root)
                factors.append(([-root[0], root[1]], rng.randint(1, 3)))
        # Integer roots with multiplicity.
        for a in rng.sample(range(-20, 21), 4):
            if (a, 1) not in roots:
                roots.add((a, 1))
                factors.append(([-a, 1], rng.randint(1, 4)))
        # Quadratics without real roots: x^2 + b*x + c with b^2 < 4c.
        for _ in range(2):
            b = rng.randint(-9, 9)
            c = b * b // 4 + rng.randint(1, 30)
            factors.append(([c, b, 1], rng.randint(1, 2)))
        p = [1]
        for f, m in factors:
            p = umul(p, upow(f, m))
        out[f"factored_{i}"] = (utext(p), len(roots))
    return out


# -- cell tables --------------------------------------------------------------

STATS_TABLES = 16
STATS_PROBLEMS_PER_TABLE = 400
STATS_TIMEOUT_SHARE = 0.1


def cell_table(rng: random.Random, n_problems: int) -> tuple[bytes, dict[str, dict[str, tuple[str, ...]]]]:
    """A valid cell-count CSV over 3- and 4-variable problems, some with
    timeouts, plus seeded picks for brown, sotd and ndrr.  Every pick lands
    on a row of its problem; some picks land on timed-out rows."""
    lines = ["problem,ordering,cells,timeout"]
    picks: dict[str, dict[str, tuple[str, ...]]] = {"brown": {}, "sotd": {}, "ndrr": {}}
    for i in range(n_problems):
        problem = f"P{i:05d}"
        names = sorted(rng.choice(("xyz", "wxyz")))
        orderings = list(permutations(names))
        timeouts = rng.random() < STATS_TIMEOUT_SHARE
        for o in orderings:
            if timeouts and rng.random() < 0.3:
                lines.append(f"{problem},{'>'.join(o)},,1")
            else:
                lines.append(f"{problem},{'>'.join(o)},{rng.randint(5, 5000)},0")
        for h in picks:
            picks[h][problem] = rng.choice(orderings)
    return ("\n".join(lines) + "\n").encode("utf-8"), picks


def stats_tables(seed: int) -> dict[str, tuple[bytes, dict]]:
    """The cell tables of the ``stats`` workload at ``seed``."""
    return {
        f"t{i}": cell_table(random.Random(f"stats:{seed}:{i}"), STATS_PROBLEMS_PER_TABLE)
        for i in range(STATS_TABLES)
    }
