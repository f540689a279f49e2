"""Exact evaluation through lineage + weighted model counting.

Always exact, for *every* query — the cost is potentially exponential
(#P-hardness is real), but component decomposition and caching make it
polynomial on lineages of safe queries in practice.  Serves as the
repository's oracle and as the router's exact fallback.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.union import AnyQuery
from ..db.database import ProbabilisticDatabase
from ..lineage.grounding import ground_answer_lineages
from ..lineage.planner import GroundingPlanner
from ..lineage.wmc import exact_probability
from .base import Answer, Engine, rank_answers


class LineageEngine(Engine):
    """Ground to DNF lineage, then exact weighted model counting.

    Args:
        planner: grounding planner to use (shared plan cache +
            metrics); the module-wide default when None.
    """

    name = "lineage-wmc"

    def __init__(self, planner: Optional[GroundingPlanner] = None) -> None:
        self.planner = planner

    def answers(
        self,
        query: AnyQuery,
        db: ProbabilisticDatabase,
        k: Optional[int] = None,
    ) -> List[Answer]:
        """One shared grounding pass, one WMC run per answer lineage."""
        results = [
            (answer, exact_probability(lineage))
            for answer, lineage in ground_answer_lineages(
                query, db, planner=self.planner
            ).items()
        ]
        return rank_answers(results, k)
