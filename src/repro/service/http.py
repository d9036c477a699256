"""JSON-over-HTTP front end for :class:`~repro.service.SynopsisService`
and follower replicas.

Stdlib only: a :class:`http.server.ThreadingHTTPServer` whose handler
threads are *readers* of the service (snapshot views, never blocking
ingest) and whose write endpoints enqueue through the same bounded queue
as in-process writers — so HTTP clients get the same backpressure,
read-your-writes, and snapshot-isolation guarantees.  This module is
the transport only — reading the body, strict JSON field types, the one
error map; every ``200`` body is built by
:class:`~repro.service.client.LocalServiceClient`, the in-process
client, so the two cannot drift.

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

Every reply leaves as one undelayed send (buffered ``wfile`` +
``TCP_NODELAY``, see :class:`_ServiceHTTPHandler`), and every request —
whatever it holds — gets exactly one reply.

Error mapping, in one place (:meth:`_ServiceHTTPHandler._error_reply`):
malformed requests → 400 (undecodable or non-object bodies, a missing
or mistyped field — JSON values are taken as they are, never coerced: a
``tid`` or ``size`` must be a JSON integer, and ``true`` is not one —
numbers no float holds, nesting past the decoder; SQL parse failures
carry ``position``/``token`` so clients can point at the offence; plan
failures carry the planner message), unknown paths/queries → 404, a
declared body above :data:`MAX_BODY_BYTES` → 413 without reading it,
:class:`~repro.errors.FollowerReadOnlyError` → 403 with the leader URL,
:class:`~repro.errors.ServiceOverloadedError` → 503 with
``Retry-After``, :class:`~repro.errors.ServiceClosedError` → 503, any
other :class:`~repro.errors.ReproError` → 409 with the message, and an
exception of any other type → 500 ``{"error": ...}`` (traceback on
stderr).  A reply sent without having consumed exactly the declared
body (``Content-Length`` missing, malformed, or over the limit), a 500,
and the replies the stdlib generates itself (bad request line,
unsupported method → 501, oversized header) carry ``Connection:
close`` and end the connection; all of them have the same JSON body
shape, ``{"error": ...}``.
"""

from __future__ import annotations

import json
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Mapping, NamedTuple, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import (
    FollowerReadOnlyError,
    InvalidArgumentError,
    PlanError,
    QueryError,
    QueryParseError,
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.obs.expo import CONTENT_TYPE as _EXPO_CONTENT_TYPE
from repro.service.client import LocalServiceClient
from repro.service.runtime import ReadHalf


#: the largest request body the front door reads; a larger declared
#: ``Content-Length`` is refused 413 unread
MAX_BODY_BYTES = 1 << 20

#: what a client causes by what it sent alone: undecodable bytes, a
#: missing or mistyped field, a number no ``int``/``float`` holds,
#: nesting past the decoder's depth
_MALFORMED = (ValueError, OverflowError, RecursionError)

_JSON_KINDS = {str: "string", int: "integer", list: "array"}


class _Refused(Exception):
    """The front door's own refusal, raised before any route ran: the
    declared body was not consumed, so the reply also ends the
    connection."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _field(payload: dict, key: str, kind: type):
    """Required ``payload[key]``, a JSON value of exactly ``kind`` —
    nothing is coerced, and a JSON ``true`` is not an integer."""
    if key not in payload:
        raise ValueError(f"missing field {key!r}")
    value = payload[key]
    if not isinstance(value, kind) or (kind is int
                                       and isinstance(value, bool)):
        raise ValueError(
            f"field {key!r} must be a JSON {_JSON_KINDS[kind]}, "
            f"got {value!r}")
    return value


def _options(payload: dict, keys: Tuple[str, ...]) -> dict:
    """The optional fields the body carries; an absent one keeps the
    client method's default."""
    return {key: payload[key] for key in keys if key in payload}


_REGISTER_OPTIONS = ("size", "engine", "weight_column", "seed")
_ESTIMATE_OPTIONS = ("agg", "column", "where", "group_by", "confidence")


def _param(params: dict, key: str) -> Optional[str]:
    return params.get(key, [None])[0]


def _limit(params: dict) -> Optional[int]:
    raw = _param(params, "limit")
    return int(raw) if raw is not None else None


class _Reply(NamedTuple):
    """What a route, or the error map, answers with."""

    status: int
    #: JSON-able, or ``bytes`` that are sent as they are
    payload: object
    #: beyond ``Content-Length``; ``Content-Type`` defaults to JSON
    headers: Mapping[str, str] = {}


def _no_such_query(name: str) -> _Reply:
    return _Reply(404, {"error": f"no registered query {name!r}"})


def _encode(payload: object) -> bytes:
    if isinstance(payload, bytes):
        return payload
    return json.dumps(payload).encode("utf-8")


class _ServiceHTTPHandler(BaseHTTPRequestHandler):
    """One request per call; the payload client lives on the server.

    Every request goes through one funnel, :meth:`_handle`: read the
    declared body, run the route, map whatever it raised, write one
    reply.  Its invariant is *exactly one reply per request, or a
    closed connection after a reply — never a silent close*.
    """

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # A reply leaves as one undelayed send.  Unbuffered (the stdlib
    # default) the headers and the body are two small segments: Nagle
    # holds the second until the first is ACKed and the client's delayed
    # ACK comes ~40 ms later — on every request.  Buffering joins them;
    # TCP_NODELAY covers the reply that outgrows the buffer and is
    # several sends again.
    wbufsize = -1
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._handle(self._route_get, needs_body=False)

    def do_POST(self) -> None:  # noqa: N802
        self._handle(self._route_post, needs_body=True)

    # ------------------------------------------------------------------
    # the funnel
    # ------------------------------------------------------------------
    def _handle(self, route: Callable[[str, dict, bytes], _Reply],
                needs_body: bool) -> None:
        try:
            body = self._read_body(needs_body)
            parsed = urlparse(self.path)
            reply = route(parsed.path, parse_qs(parsed.query), body)
            data = _encode(reply.payload)
        except Exception as exc:  # the boundary: always answer
            reply = self._error_reply(exc)
            data = _encode(reply.payload)
        self._send(reply.status, data, reply.headers)

    def _read_body(self, needs_body: bool) -> bytes:
        """The declared body, consumed exactly — or a refusal that
        closes the connection, because what is left on the socket can
        no longer be told from the next request."""
        declared = self.headers.get("Content-Length")
        if (declared is None and not needs_body
                and "Transfer-Encoding" not in self.headers):
            return b""
        if declared is None or not (declared.isascii()
                                    and declared.isdigit()):
            raise _Refused(
                400, "bad request: Content-Length must be a byte count, "
                f"got {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _Refused(
                413, f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        body = self.rfile.read(length)
        if len(body) < length:
            raise _Refused(
                400, f"bad request: body ended after {len(body)} of "
                f"{length} declared bytes")
        return body

    @staticmethod
    def _error_reply(exc: Exception) -> _Reply:
        """The one exception → reply map."""
        error = {"error": str(exc)}
        if isinstance(exc, _Refused):
            return _Reply(exc.status, error, {"Connection": "close"})
        if isinstance(exc, QueryParseError):
            # client sent SQL that does not parse: 400 with the offence
            # position so the client can point at it
            return _Reply(400, {**error, "position": exc.position,
                                "token": exc.token})
        if isinstance(exc, (QueryError, PlanError, InvalidArgumentError)):
            # malformed queries (unknown tables/columns), unplannable
            # ones and out-of-contract arguments are client errors, not
            # state conflicts
            return _Reply(400, error)
        if isinstance(exc, FollowerReadOnlyError):
            # a write reached a read-only replica: 403, pointing the
            # client at the leader when the follower knows its URL
            return _Reply(
                403, {**error, "leader_url": exc.leader_url},
                {"Location": exc.leader_url} if exc.leader_url else {})
        if isinstance(exc, ServiceOverloadedError):
            return _Reply(503, error, {"Retry-After": "1"})
        if isinstance(exc, ServiceClosedError):
            return _Reply(503, error)
        if isinstance(exc, ReproError):
            return _Reply(409, error)
        if isinstance(exc, _MALFORMED):
            return _Reply(400, {"error": f"bad request: {exc}"})
        # not the client's doing: say so, keep the trace where the
        # stdlib would have put it, and do not reuse the connection
        traceback.print_exc()
        return _Reply(500, {"error": f"internal error: {exc!r}"},
                      {"Connection": "close"})

    def _send(self, status: int, data: bytes, headers: Mapping) -> None:
        """The one place a reply is written: headers and body into the
        write buffer, then one flush."""
        self.send_response(status)
        self.send_header("Content-Length", str(len(data)))
        for key, value in {"Content-Type": "application/json",
                           **headers}.items():
            # ``Connection: close`` also sets ``close_connection``
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(data)
        self.wfile.flush()

    def send_error(self, code, message=None, explain=None):
        """Replies the stdlib generates itself (unparseable request
        line, unsupported method, oversized header) in the shape of
        every other reply; like the stdlib's, they end the connection."""
        if message is None:
            message = self.responses.get(code, ("???",))[0]
        self._send(code, _encode({"error": message}),
                   {"Connection": "close"})

    # ------------------------------------------------------------------
    # routes: (path, query parameters, body) -> reply
    # ------------------------------------------------------------------
    def _route_get(self, path: str, params: dict, body: bytes) -> _Reply:
        client: LocalServiceClient = self.server.client
        if path == "/healthz":
            health = client.healthz()
            return _Reply(200 if health["status"] == "ok" else 503, health)
        if path == "/metrics":
            return _Reply(200, client.metrics().encode("utf-8"),
                          {"Content-Type": _EXPO_CONTENT_TYPE})
        if path == "/synopsis":
            return _Reply(200, client.synopsis(
                _param(params, "name"), _limit(params)))
        if path == "/stats":
            return _Reply(200, client.stats())
        if path == "/queries":
            return _Reply(200, client.queries())
        parts = path.strip("/").split("/")
        if len(parts) == 3 and parts[0] == "queries" and parts[2] == "audit":
            if parts[1] not in client.registry:
                return _no_such_query(parts[1])
            return _Reply(200, client.audit(parts[1], _limit(params)))
        if path == "/events":
            return _Reply(200, client.events(_param(params, "kind")))
        return _Reply(404, {"error": f"no such path {path}"})

    def _route_post(self, path: str, params: dict, body: bytes) -> _Reply:
        client: LocalServiceClient = self.server.client
        if not body:
            raise ValueError("missing request body")
        payload = json.loads(body)
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        if path == "/insert":
            return _Reply(200, client.insert(
                _field(payload, "table", str),
                [tuple(v) if isinstance(v, list) else v
                 for v in _field(payload, "row", list)]))
        if path == "/delete":
            return _Reply(200, client.delete(_field(payload, "table", str),
                                             _field(payload, "tid", int)))
        if path == "/query":
            # the registry checks every field before anything is logged
            return _Reply(200, client.register_query(
                _field(payload, "sql", str), payload.get("name"),
                **_options(payload, _REGISTER_OPTIONS)))
        parts = path.strip("/").split("/")
        if len(parts) == 3 and parts[0] == "query" and parts[2] == "estimate":
            if parts[1] not in client.registry:
                return _no_such_query(parts[1])
            return _Reply(200, client.estimate(
                parts[1], **_options(payload, _ESTIMATE_OPTIONS)))
        return _Reply(404, {"error": f"no such path {path}"})

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging goes through metrics, not stderr


class ServiceHTTPServer:
    """Own a :class:`ThreadingHTTPServer` bound to a service.

    ``port=0`` binds an ephemeral port (the bound address is available
    as :attr:`address` after construction) — handy for tests.  The
    server runs on a daemon thread via :meth:`start`; :meth:`stop`
    shuts the listener down without closing the service.
    """

    def __init__(self, service: ReadHalf,
                 host: str = "127.0.0.1", port: int = 8080):
        self.service = service
        self._httpd = ThreadingHTTPServer(
            (host, port), _ServiceHTTPHandler)
        self._httpd.daemon_threads = True
        # one client per server builds every 200 body; its registry
        # resolves the manager behind the service lazily, so this works
        # for leader services and follower replicas alike
        self._httpd.client = LocalServiceClient(service)
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
