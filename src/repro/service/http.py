"""JSON-over-HTTP front end for :class:`~repro.service.SynopsisService`.

Stdlib only: a :class:`http.server.ThreadingHTTPServer` whose handler
threads are *readers* of the service (snapshot views, never blocking
ingest) and whose write endpoints enqueue through the same bounded queue
as in-process writers — so HTTP clients get the same backpressure,
read-your-writes, and snapshot-isolation guarantees.

Endpoints (all JSON):

========  ==========================  ==================================
method    path                        body / query parameters
========  ==========================  ==================================
GET       ``/healthz``                —; liveness + epoch + queue depth
GET       ``/metrics``                —; Prometheus/OpenMetrics text
GET       ``/synopsis``               ``?name=<query>&limit=<n>``; no
                                      name = the sole registered query
GET       ``/stats``                  —; typed manager + per-query stats
GET       ``/queries``                —; every registered AQP query
GET       ``/queries/<name>/audit``   ``?limit=<n>``; accuracy audit
GET       ``/events``                 ``?kind=<prefix>``; event log
POST      ``/insert``                 ``{"table": ..., "row": [...]}``
POST      ``/delete``                 ``{"table": ..., "tid": ...}``
POST      ``/query``                  ``{"sql": ..., "name"?, "size"?,
                                      "engine"?, "weight_column"?,
                                      "seed"?}``; register by SQL
POST      ``/query/<name>/estimate``  ``{"agg"?, "column"?, "where"?,
                                      "group_by"?, "confidence"?}``
========  ==========================  ==================================

Error mapping: malformed requests → 400 (SQL parse failures carry
``position``/``token`` so clients can point at the offence; plan
failures carry the planner message), unknown paths/queries → 404,
:class:`~repro.errors.FollowerReadOnlyError` → 403 with the leader URL,
:class:`~repro.errors.ServiceOverloadedError` → 503 with
``Retry-After``, :class:`~repro.errors.ServiceClosedError` → 503, any
other :class:`~repro.errors.ReproError` → 409 with the message.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.aqp import QueryRegistry
from repro.errors import (
    FollowerReadOnlyError,
    PlanError,
    QueryError,
    QueryParseError,
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.obs.expo import CONTENT_TYPE as _EXPO_CONTENT_TYPE
from repro.service.runtime import SynopsisService


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


class _ServiceHTTPHandler(BaseHTTPRequestHandler):
    """One request per call; the service reference lives on the server."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        service: SynopsisService = self.server.service
        parsed = urlparse(self.path)
        params = parse_qs(parsed.query)
        name = params.get("name", [None])[0]
        try:
            if parsed.path == "/healthz":
                body = service.healthz()
                status = 200 if body["status"] == "ok" else 503
                self._reply(status, body)
            elif parsed.path == "/metrics":
                self._reply_text(200, service.exposition(),
                                 content_type=_EXPO_CONTENT_TYPE)
            elif parsed.path == "/synopsis":
                limit_raw = params.get("limit", [None])[0]
                limit = int(limit_raw) if limit_raw is not None else None
                # one captured view builds the whole reply, so epoch,
                # total, and sample can never straddle a publication
                self._reply(200, service.synopsis_payload(name, limit))
            elif parsed.path == "/stats":
                view = service.view()
                self._reply(200, {
                    "epoch": view.epoch,
                    "stats": _stats_payload(view.stats),
                    "service": service.service_metrics(),
                })
            elif parsed.path == "/queries":
                registry: QueryRegistry = self.server.aqp
                self._reply(200, {"queries": registry.describe_all()})
            elif (len(parts := parsed.path.strip("/").split("/")) == 3
                    and parts[0] == "queries" and parts[2] == "audit"):
                registry = self.server.aqp
                if parts[1] not in registry:
                    self._reply(404, {
                        "error": f"no registered query {parts[1]!r}"})
                    return
                limit_raw = params.get("limit", [None])[0]
                limit = int(limit_raw) if limit_raw is not None else None
                self._reply(200, registry.audit.payload(parts[1], limit))
            elif parsed.path == "/events":
                kind = params.get("kind", [None])[0]
                self._reply(200, service.events_payload(kind))
            else:
                self._reply(404, {"error": f"no such path {parsed.path}"})
        except ValueError as exc:
            self._reply(400, {"error": str(exc)})
        except ReproError as exc:
            self._reply_error(exc)

    def do_POST(self) -> None:  # noqa: N802
        service: SynopsisService = self.server.service
        parsed = urlparse(self.path)
        try:
            payload = self._read_json()
            if parsed.path == "/insert":
                table, row = payload["table"], payload["row"]
                if not isinstance(row, list):
                    raise ValueError("'row' must be a JSON array")
                tid = service.insert(table, [
                    tuple(v) if isinstance(v, list) else v for v in row
                ])
                self._reply(200, {"tid": tid, "epoch": service.epoch})
            elif parsed.path == "/delete":
                service.delete(payload["table"], int(payload["tid"]))
                self._reply(200, {"ok": True, "epoch": service.epoch})
            elif parsed.path == "/query":
                registry = self.server.aqp
                registered = registry.register(
                    payload["sql"],
                    payload.get("name"),
                    size=int(payload.get("size", 1000)),
                    engine=payload.get("engine", "sjoin-opt"),
                    weight_column=payload.get("weight_column"),
                    seed=payload.get("seed"),
                )
                self._reply(200, registered.describe())
            elif (len(parts := parsed.path.strip("/").split("/")) == 3
                    and parts[0] == "query" and parts[2] == "estimate"):
                registry = self.server.aqp
                if parts[1] not in registry:
                    self._reply(404, {
                        "error": f"no registered query {parts[1]!r}"})
                    return
                self._reply(200, registry.get(parts[1]).estimate(
                    payload.get("agg", "count"),
                    column=payload.get("column"),
                    where=payload.get("where"),
                    group_by=payload.get("group_by"),
                    confidence=float(payload.get("confidence", 0.95)),
                ))
            else:
                self._reply(404, {"error": f"no such path {parsed.path}"})
        except (KeyError, TypeError, ValueError) as exc:
            self._reply(400, {"error": f"bad request: {exc}"})
        except ReproError as exc:
            self._reply_error(exc)

    # ------------------------------------------------------------------
    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise ValueError("missing request body")
        payload = json.loads(self.rfile.read(length))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _reply_error(self, exc: ReproError) -> None:
        if isinstance(exc, QueryParseError):
            # client sent SQL that does not parse: 400 with the offence
            # position so the client can point at it
            self._reply(400, {
                "error": str(exc),
                "position": exc.position,
                "token": exc.token,
            })
        elif isinstance(exc, (QueryError, PlanError)):
            # malformed queries (unknown tables/columns) and unplannable
            # ones are client errors, not state conflicts
            self._reply(400, {"error": str(exc)})
        elif isinstance(exc, FollowerReadOnlyError):
            # a write reached a read-only replica: 403, pointing the
            # client at the leader when the follower knows its URL
            headers = ({"Location": exc.leader_url}
                       if exc.leader_url else None)
            self._reply(403, {
                "error": str(exc),
                "leader_url": exc.leader_url,
            }, headers=headers)
        elif isinstance(exc, ServiceOverloadedError):
            self._reply(503, {"error": str(exc)},
                        headers={"Retry-After": "1"})
        elif isinstance(exc, ServiceClosedError):
            self._reply(503, {"error": str(exc)})
        else:
            self._reply(409, {"error": str(exc)})

    def _reply(self, status: int, body: object,
               headers: Optional[dict] = None) -> None:
        self._reply_bytes(status, json.dumps(body).encode("utf-8"),
                          "application/json", headers)

    def _reply_text(self, status: int, body: str,
                    content_type: str = "text/plain") -> None:
        self._reply_bytes(status, body.encode("utf-8"), content_type, None)

    def _reply_bytes(self, status: int, data: bytes, content_type: str,
                     headers: Optional[dict]) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging goes through metrics, not stderr


class ServiceHTTPServer:
    """Own a :class:`ThreadingHTTPServer` bound to a service.

    ``port=0`` binds an ephemeral port (the bound address is available
    as :attr:`address` after construction) — handy for tests.  The
    server runs on a daemon thread via :meth:`start`; :meth:`stop`
    shuts the listener down without closing the service.
    """

    def __init__(self, service: SynopsisService,
                 host: str = "127.0.0.1", port: int = 8080):
        self.service = service
        self._httpd = ThreadingHTTPServer(
            (host, port), _ServiceHTTPHandler)
        self._httpd.daemon_threads = True
        self._httpd.service = service
        # one registry per server: the AQP routes (POST /query, ...)
        # resolve the manager behind the service lazily, so this works
        # for leader services and follower replicas alike
        self._httpd.aqp = QueryRegistry(service)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound ``(host, port)``."""
        return self._httpd.server_address[:2]

    def start(self) -> "ServiceHTTPServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http", daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "ServiceHTTPServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
