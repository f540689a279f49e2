"""repro — Dalvi & Suciu's dichotomy of conjunctive queries, rebuilt.

A complete reimplementation of *The Dichotomy of Conjunctive Queries on
Probabilistic Structures* (PODS 2007): the query calculus, the
tuple-independent probabilistic database substrate, exact and
approximate evaluation engines, the PTIME/#P-hard classifier
(hierarchies, inversions, erasers), and the executable hardness
reductions.

Quickstart::

    from repro import parse, classify, ProbabilisticDatabase, RouterEngine

    q = parse("R(x), S(x,y)")
    print(classify(q).verdict)          # PTIME

    db = ProbabilisticDatabase.from_dict({
        "R": {(1,): 0.5},
        "S": {(1, 2): 0.4, (1, 3): 0.7},
    })
    print(RouterEngine().probability(q, db))
"""

from .analysis import Classification, Reason, Verdict, classify, is_ptime
from .core import (
    Atom,
    Comparison,
    ConjunctiveQuery,
    Constant,
    Variable,
    atom,
    comparison,
    is_hierarchical,
    minimize,
    parse,
    query,
)
from .db import (
    DatabaseFormatError,
    ProbabilisticDatabase,
    Relation,
    load_database,
    random_database,
    random_database_for_query,
)
from .engines import (
    BruteForceEngine,
    LiftedEngine,
    LineageEngine,
    MonteCarloEngine,
    RouterEngine,
    SafePlanEngine,
    UnsafeQueryError,
    UnsupportedQueryError,
    is_safe_query,
)
from .hardness import Bipartite2DNF, count_via_hk, hk_query, random_formula
from .lineage import exact_probability, ground_answer_lineages, ground_lineage
from .serve import QuerySession, SessionStats

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "Bipartite2DNF",
    "BruteForceEngine",
    "Classification",
    "Comparison",
    "ConjunctiveQuery",
    "Constant",
    "DatabaseFormatError",
    "LiftedEngine",
    "LineageEngine",
    "MonteCarloEngine",
    "ProbabilisticDatabase",
    "QuerySession",
    "Reason",
    "Relation",
    "RouterEngine",
    "SessionStats",
    "SafePlanEngine",
    "UnsafeQueryError",
    "UnsupportedQueryError",
    "Variable",
    "Verdict",
    "__version__",
    "atom",
    "classify",
    "comparison",
    "count_via_hk",
    "exact_probability",
    "ground_answer_lineages",
    "ground_lineage",
    "hk_query",
    "is_hierarchical",
    "is_ptime",
    "is_safe_query",
    "load_database",
    "minimize",
    "parse",
    "query",
    "random_database",
    "random_database_for_query",
    "random_formula",
]
