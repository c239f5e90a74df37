"""Show what the metric heuristics actually compute: the projection levels
behind sotd, and the root counts behind ndrr, where Descartes' rule of signs in
continued fractions (Akritas & Strzeboński 2005) races Sturm's theorem on the
squarefree part and the first to finish gives the count."""

from cadorder import (
    Variable,
    count_distinct_real_roots,
    full_projection,
    ndrr_value,
    parse_system,
    sotd_value,
    sturm_sequence,
    squarefree_part,
    to_univariate,
)

system = parse_system("x^2 + y")
x, y = system.variables

for ordering in [(y, x), (x, y)]:
    ps = full_projection(system, ordering)
    names = ">".join(v.name for v in ordering)
    print(f"ordering {names} (eliminate {ordering[-1]} first):")
    for k, level in enumerate(ps.levels):
        print(f"    level {len(ps.levels) - k}:", ", ".join(str(p) for p in level) or "(empty)")
    print("    sotd =", sotd_value(ps), " ndrr =", ndrr_value(ps))
    print()

# The Sturm side of that race, on the integer chain it runs: x^2 - 2 has
# two real roots, and the chain's sign variations at -inf and +inf differ
# by exactly 2.
u = to_univariate(parse_system("x^2 - 2").polynomials[0], Variable("x"))
print("Sturm chain of x^2 - 2:")
for s in sturm_sequence(squarefree_part(u)):
    print("   ", s)
print("distinct real roots:", count_distinct_real_roots(u))

# Repeated roots count once.
u = to_univariate(parse_system("x^2 - 2*x + 1").polynomials[0], Variable("x"))
print("distinct real roots of (x - 1)^2:", count_distinct_real_roots(u))
