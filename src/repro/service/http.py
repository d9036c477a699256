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

The stdlib's server keeps the socket loop (keep-alive, the 414 for a
request line over 64 KiB, ``do_<METHOD>`` dispatch and the 501); the
request head and the reply head are this module's own.
:meth:`_ServiceHTTPHandler.parse_request` reads the request line and
the RFC 7230 field lines into a plain dict keyed by lower-cased name,
with the stdlib's limits and answers (64 KiB a line and 100 lines, then
431; HTTP/0.9 gets a bare body; HTTP/2+ is refused 505) — the stdlib's
parser builds an ``email`` message per request, which cost more server
CPU than the estimate it fronts.  :meth:`_ServiceHTTPHandler._send`
formats the status line and the fields as one string (the ``Date``
value at most once a second).  Every reply leaves as one undelayed send
(buffered ``wfile`` + ``TCP_NODELAY``), and every request — whatever it
holds — gets exactly one reply.

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
body (``Content-Length`` missing, malformed, repeated, beside a
``Transfer-Encoding``, or over the limit), a 500, and the refusals of
the request head (a bad request line or field line → 400, unsupported
method → 501, oversized line or too many fields → 431) carry
``Connection: close`` and end the connection, so no byte behind them is
read as a request; all of them have the same JSON body shape,
``{"error": ...}``.
"""

from __future__ import annotations

import email.utils
import functools
import json
import re
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Tuple
from urllib.parse import parse_qs

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

#: the longest request or field line, and the most lines a request head
#: may take (the blank line that ends it counts) — the stdlib's limits
_MAX_LINE = 65536
_MAX_HEAD_LINES = 100
#: an RFC 7230 field name (``token``)
_FIELD_NAME = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
#: an HTTP version; RFC 2145: major and minor compare as numbers
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The ``Date`` header value, formatted once per second."""
    return email.utils.formatdate(second, usegmt=True)


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
    # the request head
    # ------------------------------------------------------------------
    def parse_request(self) -> bool:
        """Read the request line (``self.raw_requestline``) and the
        field lines behind it into ``self.headers``, a plain dict keyed
        by lower-cased field name; a repeated field's values are joined
        with ``", "`` (RFC 7230 §3.2.2).  False when the request was
        answered here (400, 431, 505) or the line was blank; the reply
        then ends the connection.

        The stdlib's rules, kept: a request line of two words is
        HTTP/0.9 (``GET`` only, the reply a bare body), a version from
        2.0 on is refused, a leading ``//`` collapses to ``/``,
        ``Connection`` and ``Expect: 100-continue`` are honoured.  A
        field line outside RFC 7230's grammar — whitespace before the
        colon, an obs-fold continuation, no colon — is a 400: the
        stdlib took it, and a line one side reads and the other drops
        is how two parsers come to frame a request differently."""
        self.command = None
        self.request_version = "HTTP/0.9"
        self.close_connection = True
        self.headers = {}
        line = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = line
        words = line.split()
        if not words:
            return False
        number = (0, 9)
        if len(words) >= 3:
            version = _VERSION.fullmatch(words[-1])
            if version is None:
                self.send_error(400, f"Bad request version ({words[-1]!r})")
                return False
            number = int(version[1]), int(version[2])
            if number >= (2, 0):
                self.send_error(
                    505, f"Invalid HTTP version ({words[-1][5:]})")
                return False
            self.close_connection = number < (1, 1)
            self.request_version = words[-1]
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({line!r})")
            return False
        self.command, self.path = words[0], words[1]
        if len(words) == 2 and self.command != "GET":
            self.send_error(
                400, f"Bad HTTP/0.9 request type ({self.command!r})")
            return False
        if self.path.startswith("//"):
            # an open-redirect guard: clients read //x as a host
            self.path = "/" + self.path.lstrip("/")
        fields = self._read_fields()
        if fields is None:
            return False
        self.headers = fields
        connection = fields.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive" and number >= (1, 0):
            self.close_connection = False
        if (number >= (1, 1)
                and fields.get("expect", "").lower() == "100-continue"):
            self.wfile.write(b"%s 100 Continue\r\n\r\n"
                             % self.protocol_version.encode("latin-1"))
            self.wfile.flush()      # the client waits for it
        return True

    def _read_fields(self) -> Optional[Dict[str, str]]:
        """The field lines up to the blank one, or None once refused."""
        fields: Dict[str, str] = {}
        for _ in range(_MAX_HEAD_LINES):
            raw = self.rfile.readline(_MAX_LINE + 1)
            if len(raw) > _MAX_LINE:
                self.send_error(431, "Line too long")
                return None
            if raw in (b"\r\n", b"\n", b""):
                return fields
            name, colon, value = str(raw, "iso-8859-1").partition(":")
            if not colon or _FIELD_NAME.fullmatch(name) is None:
                self.send_error(
                    400, f"bad request: malformed field line ({name[:64]!r})")
                return None
            key = name.lower()
            value = value.strip(" \t\r\n")
            fields[key] = (fields[key] + ", " + value if key in fields
                           else value)
        self.send_error(431, "Too many headers")
        return None

    # ------------------------------------------------------------------
    # the funnel
    # ------------------------------------------------------------------
    def _handle(self, route: Callable[[str, dict, bytes], _Reply],
                needs_body: bool) -> None:
        try:
            body = self._read_body(needs_body)
            path, _, query = self.path.partition("?")
            reply = route(path, parse_qs(query) if query else {}, body)
            data = _encode(reply.payload)
        except Exception as exc:  # the boundary: always answer
            reply = self._error_reply(exc)
            data = _encode(reply.payload)
        self._send(reply.status, data, reply.headers)

    def _read_body(self, needs_body: bool) -> bytes:
        """The declared body, consumed exactly — or a refusal that
        closes the connection, because what is left on the socket can
        no longer be told from the next request.  A repeated
        ``Content-Length`` arrives joined (``"29, 2"``) and is no byte
        count; ``Transfer-Encoding`` is refused whatever stands beside
        it, since a peer that honours it frames the body otherwise."""
        if "transfer-encoding" in self.headers:
            raise _Refused(
                400, "bad request: Transfer-Encoding is not supported; "
                "send the body with one Content-Length")
        declared = self.headers.get("content-length")
        if declared is None and not needs_body:
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
        """The one place a reply is written: the status line and the
        fields as one string, then the body, into the write buffer, then
        one flush.  An HTTP/0.9 reply is the bare body."""
        if self.request_version != "HTTP/0.9":
            head = "%s %d %s\r\nServer: %s\r\nDate: %s\r\n" \
                "Content-Length: %d\r\n" % (
                    self.protocol_version, status,
                    self.responses.get(status, ("",))[0],
                    self.version_string(), _http_date(int(time.time())),
                    len(data))
            for key, value in {"Content-Type": "application/json",
                               **headers}.items():
                head += f"{key}: {value}\r\n"
            self.wfile.write((head + "\r\n").encode("latin-1"))
        if headers.get("Connection") == "close":
            self.close_connection = True
        self.wfile.write(data)
        self.wfile.flush()

    def send_error(self, code, message=None, explain=None):
        """Refusals of the request head — this module's own (bad
        request line or field line, oversized field, too many fields,
        HTTP/2+) and the stdlib loop's (request line over 64 KiB → 414,
        unsupported method → 501) — in the shape of every other reply;
        they end the connection."""
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
