"""Tuple-independent probabilistic database substrate."""

from .database import ProbabilisticDatabase, RelationVersion, TupleKey
from .io import DatabaseFormatError, load_database, parse_database
from .generators import (
    four_partite_graph,
    grid_edges,
    random_database,
    random_database_for_query,
    schema_of,
    star_join_instance,
    triangled_graph,
)
from .relation import (
    GroundTuple,
    Probability,
    Relation,
    Value,
    canonical_row_key,
)
from .worlds import (
    MAX_ENUMERABLE_TUPLES,
    World,
    iterate_worlds,
    world_count,
    world_database,
)

__all__ = [
    "DatabaseFormatError",
    "GroundTuple",
    "MAX_ENUMERABLE_TUPLES",
    "Probability",
    "ProbabilisticDatabase",
    "Relation",
    "RelationVersion",
    "TupleKey",
    "Value",
    "World",
    "canonical_row_key",
    "four_partite_graph",
    "grid_edges",
    "iterate_worlds",
    "load_database",
    "parse_database",
    "random_database",
    "random_database_for_query",
    "schema_of",
    "star_join_instance",
    "triangled_graph",
    "world_count",
    "world_database",
]
