"""Variable-ordering heuristics for cylindrical algebraic decomposition.

Exact sparse polynomial arithmetic over the integers, McCallum-style
projection, real-root counting by a race of Descartes continued fractions
(Akritas & Strzeboński 2005) against the Sturm chain, the Brown/sotd/ndrr
ordering heuristics, and a benchmark harness over externally supplied cell
counts.
"""

from .heuristics import (
    BrownTriple,
    HeuristicReport,
    brown_candidates,
    brown_triple,
    choose,
    enumerate_orderings,
    ndrr_value,
    sotd_value,
)
from .parsing import ParseError, parse_system
from .poly import (
    Monomial,
    Polynomial,
    PolySystem,
    Variable,
    canonicalize,
    discriminant,
    resultant,
)
from .projection import (
    ProjectionSet,
    VariableOrdering,
    format_ordering,
    full_projection,
    parse_ordering,
    project_once,
)
from .stats import (
    CellCountTable,
    CellTableError,
    SavingsSummary,
    compute_report,
    emit_report,
    load_cell_table,
    summarize,
)
from .univariate import (
    UnivariatePolynomial,
    count_distinct_real_roots,
    squarefree_part,
    sturm_sequence,
    to_univariate,
)

__all__ = [
    "BrownTriple",
    "CellCountTable",
    "CellTableError",
    "HeuristicReport",
    "Monomial",
    "ParseError",
    "PolySystem",
    "Polynomial",
    "ProjectionSet",
    "SavingsSummary",
    "UnivariatePolynomial",
    "Variable",
    "VariableOrdering",
    "brown_candidates",
    "brown_triple",
    "canonicalize",
    "choose",
    "compute_report",
    "count_distinct_real_roots",
    "discriminant",
    "emit_report",
    "enumerate_orderings",
    "format_ordering",
    "full_projection",
    "load_cell_table",
    "ndrr_value",
    "parse_ordering",
    "parse_system",
    "project_once",
    "resultant",
    "sotd_value",
    "squarefree_part",
    "sturm_sequence",
    "summarize",
    "to_univariate",
]
