"""Evaluation engines for probabilistic conjunctive queries."""

from .base import (
    Answer,
    Engine,
    EngineError,
    UnsafeQueryError,
    UnsupportedQueryError,
    rank_answers,
)
from .bruteforce import BruteForceEngine
from .compiled import CompilationReport, CompiledEngine, canonicalize_lineage
from .lifted import (
    LiftedEngine,
    SafetyReport,
    is_safe_query,
    may_share_tuple,
    queries_independent,
)
from .lineage_engine import LineageEngine
from .montecarlo import (
    KarpLubySampler,
    MonteCarloEngine,
    estimate_lineage,
    naive_estimate,
)
from .router import RouterEngine, RoutingDecision
from .safe_plan import SafePlanEngine, generic_residual

__all__ = [
    "Answer",
    "BruteForceEngine",
    "CompilationReport",
    "CompiledEngine",
    "Engine",
    "EngineError",
    "KarpLubySampler",
    "LiftedEngine",
    "LineageEngine",
    "MonteCarloEngine",
    "RouterEngine",
    "RoutingDecision",
    "SafePlanEngine",
    "SafetyReport",
    "UnsafeQueryError",
    "UnsupportedQueryError",
    "canonicalize_lineage",
    "estimate_lineage",
    "generic_residual",
    "is_safe_query",
    "may_share_tuple",
    "naive_estimate",
    "queries_independent",
    "rank_answers",
]
