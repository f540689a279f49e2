"""Knowledge compilation: lineage DNFs as reusable circuits.

The repository's second exact-inference backend, alongside the
Shannon-expansion WMC oracle: compile a lineage once into a structured
circuit (OBDD or d-DNNF), then answer probability, model-counting and
re-weighted queries in time linear in circuit size.

Modules:

* :mod:`~repro.compile.circuit` — the interned AND/OR/NOT circuit IR;
* :mod:`~repro.compile.ordering` — OBDD variable-ordering heuristics;
* :mod:`~repro.compile.obdd` — bottom-up Apply-based OBDD compiler;
* :mod:`~repro.compile.dnnf` — top-down d-DNNF-style compiler
  mirroring the WMC decomposition;
* :mod:`~repro.compile.evaluate` — linear-time evaluation (one row or
  a batch of weight rows), exact model counting;
* :mod:`~repro.compile.cache` — structural compiled-circuit cache.
"""

from .cache import CircuitCache
from .circuit import BudgetExceeded, Circuit
from .dnnf import CompiledDNNF, compile_dnnf
from .evaluate import (
    model_count,
    probability,
    probability_batch,
    reweighted_probabilities,
)
from .obdd import OBDD, CompiledOBDD, compile_obdd
from .ordering import (
    ORDERINGS,
    STRATEGIES,
    hierarchy_order,
    lineage_order,
    make_order,
)

__all__ = [
    "BudgetExceeded",
    "Circuit",
    "CircuitCache",
    "CompiledDNNF",
    "CompiledOBDD",
    "OBDD",
    "ORDERINGS",
    "STRATEGIES",
    "compile_dnnf",
    "compile_obdd",
    "hierarchy_order",
    "lineage_order",
    "make_order",
    "model_count",
    "probability",
    "probability_batch",
    "reweighted_probabilities",
]
