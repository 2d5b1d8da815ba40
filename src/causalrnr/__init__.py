"""Minimal records for deterministic replay of causally consistent
shared-memory executions, with a brute-force replay-enumeration oracle.

The package computes, for strongly causal executions, the provably
smallest per-process edge sets whose enforcement makes every replay
reproduce either the original views exactly (view fidelity, offline and
online) or every per-variable race resolution (race fidelity, offline),
and verifies minimality and sufficiency by exhaustively enumerating the
certifying replays of desk-scale executions.
"""

from causalrnr.model import (
    Execution,
    Operation,
    Program,
    View,
    ViewSet,
    data_race_order,
    derive_writes_to,
    validate_view,
    write_read_write_order,
)
from causalrnr.consistency import (
    CACHE,
    CAUSAL,
    STRONG_CAUSAL,
    check_cache,
    check_causal,
    check_strong_causal,
    find_explanation,
    strong_causal_order,
)
from causalrnr.records import Record
from causalrnr.relations import (
    Relation,
    has_cycle,
    restrict,
    transitive_closure,
    transitive_reduction,
    union_closed,
)

__version__ = "0.1.0"

__all__ = [
    "CACHE",
    "CAUSAL",
    "STRONG_CAUSAL",
    "Execution",
    "Operation",
    "Program",
    "Record",
    "Relation",
    "View",
    "ViewSet",
    "check_cache",
    "check_causal",
    "check_strong_causal",
    "data_race_order",
    "derive_writes_to",
    "find_explanation",
    "has_cycle",
    "restrict",
    "strong_causal_order",
    "transitive_closure",
    "transitive_reduction",
    "union_closed",
    "validate_view",
    "write_read_write_order",
]
