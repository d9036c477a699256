"""Approximate query processing over maintained join synopses.

The product surface the paper motivates: register a SQL join query
once, keep its synopsis maintained under arbitrary updates, and answer
aggregate queries from the sample with confidence intervals scaled by
the exactly-maintained join cardinality.

    from repro.aqp import QueryRegistry

    registry = QueryRegistry(manager_or_service_or_follower)
    q = registry.register("SELECT * FROM o, c WHERE o.cid = c.id")
    q.estimate("count", group_by="c.region")

See ``docs/sql.md`` for the grammar, registration lifecycle and CI
semantics.
"""

from repro.aqp.audit import AccuracyAuditor, AuditRecord
from repro.aqp.estimation import (
    AGGREGATES,
    Snapshot,
    estimate_from_snapshot,
)
from repro.aqp.registry import QueryRegistry, RegisteredQuery

__all__ = [
    "AGGREGATES",
    "AccuracyAuditor",
    "AuditRecord",
    "QueryRegistry",
    "RegisteredQuery",
    "Snapshot",
    "estimate_from_snapshot",
]
