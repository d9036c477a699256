"""In-process client: the one table of reply payloads.

:class:`LocalServiceClient` wraps a serving role — a
:class:`~repro.service.SynopsisService` or a follower replica — and
builds every ``200`` body the HTTP front end serves:
:class:`~repro.service.http.ServiceHTTPServer`'s routes call these
methods and add only the transport around them.  Application code (and
the test suite) can therefore swap between in-process and networked
deployments without changing the handling of responses.  Backpressure
and closure surface as the typed exceptions
(:class:`~repro.errors.ServiceOverloadedError`,
:class:`~repro.errors.ServiceClosedError`) behind the 503s, and the
AQP routes' 400s as :class:`~repro.errors.QueryParseError` /
:class:`~repro.errors.PlanError`.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional, Sequence

from repro.aqp import QueryRegistry
from repro.service.runtime import ReadHalf


def _stats_payload(stats: object) -> object:
    """A typed stats snapshot as JSON-serializable plain data.

    Hand-rolled instead of :func:`dataclasses.asdict` because the typed
    snapshots expose their mappings as ``MappingProxyType`` (immutable),
    which ``asdict``'s deepcopy refuses to pickle.
    """
    if dataclasses.is_dataclass(stats) and not isinstance(stats, type):
        return {
            f.name: _stats_payload(getattr(stats, f.name))
            for f in dataclasses.fields(stats)
        }
    if isinstance(stats, Mapping):
        return {str(k): _stats_payload(v) for k, v in stats.items()}
    if isinstance(stats, (list, tuple)):
        return [_stats_payload(v) for v in stats]
    return stats


class LocalServiceClient:
    """The `/healthz` `/metrics` `/synopsis` `/stats` `/insert`
    `/delete` `/query` `/queries` `/queries/<name>/audit` `/events`
    surface, in process."""

    def __init__(self, service: ReadHalf):
        self.service = service
        #: the registry the AQP methods answer through (its audit is
        #: what :meth:`audit` reports)
        self.registry = QueryRegistry(service)

    # reads ------------------------------------------------------------
    def healthz(self) -> dict:
        return self.service.healthz()

    def metrics(self) -> str:
        """The ``GET /metrics`` body: Prometheus text exposition."""
        return self.service.exposition()

    def synopsis(self, name: Optional[str] = None,
                 limit: Optional[int] = None) -> dict:
        return self.service.synopsis_payload(name, limit)

    def stats(self) -> dict:
        view = self.service.view()
        return {
            "epoch": view.epoch,
            "stats": _stats_payload(view.stats),
            "service": self.service.service_metrics(),
        }

    def queries(self) -> dict:
        """The ``GET /queries`` body: every registered AQP query."""
        return {"queries": self.registry.describe_all()}

    def audit(self, name: str, limit: Optional[int] = None) -> dict:
        """The ``GET /queries/<name>/audit`` body: accuracy audit."""
        return self.registry.audit.payload(name, limit)

    def events(self, kind: Optional[str] = None) -> dict:
        """The ``GET /events`` body: the structured event log."""
        return self.service.events_payload(kind)

    def estimate(self, name: str, agg: str = "count", *,
                 column: Optional[str] = None,
                 where=None,
                 group_by: Optional[str] = None,
                 confidence: float = 0.95) -> dict:
        """The ``POST /query/<name>/estimate`` body."""
        return self.registry.get(name).estimate(
            agg, column=column, where=where, group_by=group_by,
            confidence=confidence,
        )

    # writes -----------------------------------------------------------
    def insert(self, table: str, row: Sequence[object]) -> dict:
        tid = self.service.insert(table, row)
        return {"tid": tid, "epoch": self.service.epoch}

    def delete(self, table: str, tid: int) -> dict:
        self.service.delete(table, tid)
        return {"ok": True, "epoch": self.service.epoch}

    def register_query(self, sql: str, name: Optional[str] = None, *,
                       size: int = 1000,
                       engine: str = "sjoin-opt",
                       weight_column: Optional[str] = None,
                       seed: Optional[int] = None) -> dict:
        """The ``POST /query`` body: register ``sql`` for AQP."""
        registered = self.registry.register(
            sql, name, size=size, engine=engine,
            weight_column=weight_column, seed=seed,
        )
        return registered.describe()
