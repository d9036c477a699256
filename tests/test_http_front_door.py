"""The HTTP front door: no reply waits out a delayed ACK, and every
hostile request ends in a typed JSON reply.

Four parts.  (1) The stall: on one kept-alive ``TCP_NODELAY``
connection every route answers in well under the ~44 ms a reply used
to wait for the client's delayed ACK — leader and follower — and the
same probe against a handler with Nagle back on stalls again on the
reply that outgrows the write buffer, so the test can fail.  (2) The
funnel's invariant — exactly one reply per request, or a closed
connection after a reply, never a silent close — on the requests that
used to get no reply, and on a body the server did not consume.
(3) Registrations the front door refuses before a durable target logs
them.  (4) Hypothesis fuzz of the SQL parser and of every route of a
live server, judged on the ingest thread staying alive and the served
synopsis matching a twin fed only the accepted ops.
"""

import collections
import http.client
import json
import os
import random
import socket
import statistics
import sys
import tempfile
import time
from urllib.parse import urlencode

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Column,
    Database,
    DeleteOp,
    InsertOp,
    MaintainerConfig,
    SynopsisManager,
    SynopsisService,
    SynopsisSpec,
    TableSchema,
)
from repro.aqp import QueryRegistry
from repro.datagen.linear_road import LinearRoadConfig, setup_qb
from repro.datagen.tpcds import QY_SQL, TpcdsScale, setup_query
from repro.errors import InvalidArgumentError, QueryParseError, ReproError
from repro.persist import PersistentManager
from repro.query.parser import parse_query
from repro.replicate import FollowerService, WalShipper
from repro.service import LocalServiceClient, ServiceHTTPServer
from repro.service.http import MAX_BODY_BYTES, _ServiceHTTPHandler

SQL = "SELECT * FROM r, s WHERE r.a = s.a"
NAME = "qy"
ESTIMATE = {"agg": "count",
            "where": [{"column": "r.x", "op": "<=", "value": 1000}]}


def make_db():
    db = Database()
    db.create_table(TableSchema("r", [Column("a"), Column("x")]))
    db.create_table(TableSchema("s", [Column("a"), Column("y")]))
    return db


def make_manager(size):
    manager = SynopsisManager(make_db())
    manager.register(NAME, SQL, MaintainerConfig(
        spec=SynopsisSpec.fixed_size(size), seed=7))
    return manager


class Leader:
    """A durable leader behind a live server; ``handler`` swaps the
    request handler class (to turn one of its attributes back off)."""

    def __init__(self, directory, size=50, preload=0, handler=None):
        self.directory = os.path.join(directory, "leader")
        self.pm = PersistentManager(make_manager(size), self.directory)
        self.service = SynopsisService(self.pm)
        if preload:
            rng = random.Random(1)
            self.service.apply_batch([
                InsertOp(rng.choice("rs"), (rng.randrange(40), i))
                for i in range(preload)])
        self.server = ServiceHTTPServer(self.service, port=0)
        if handler is not None:
            self.server._httpd.RequestHandlerClass = handler
        self.server.start()
        self.address = self.server.address

    def close(self):
        self.server.stop()
        self.service.close()
        self.pm.close()


@pytest.fixture(scope="module")
def leader(tmp_path_factory):
    """Shared by the tests that only ever get refused: each reads the
    WAL position relative to where it found it and leaves the
    registration set as it was (stopping a server costs half a second
    of ``serve_forever`` polling, so one per test adds up)."""
    leader = Leader(str(tmp_path_factory.mktemp("front-door")))
    yield leader
    leader.close()


def connect(address):
    """One keep-alive connection whose own segments never wait: a
    stall seen through it is the server's."""
    conn = http.client.HTTPConnection(*address, timeout=30)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def call(conn, method, path, body=None):
    """``body``: a JSON-able object, or raw bytes sent as they are."""
    if body is not None and not isinstance(body, bytes):
        body = json.dumps(body).encode("utf-8")
    conn.request(method, path, body=body, headers=(
        {"Content-Type": "application/json"} if body is not None else {}))
    response = conn.getresponse()
    return response, response.read()


def exchange(address, request: bytes):
    """Send raw bytes on a fresh socket, half-close, and return every
    byte the server answers with until it closes its side (a server
    that closes on bytes it never read may end with a reset instead of
    a FIN; what arrived before it still counts)."""
    with socket.create_connection(address, timeout=30) as sock:
        try:
            sock.sendall(request)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass      # refused before all of it was sent: read the reply
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                chunk = b""
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def parse_reply(raw: bytes):
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    status = int(lines[0].split()[1])
    headers = dict(line.decode("latin-1").split(": ", 1)
                   for line in lines[1:])
    return status, headers, body


# ----------------------------------------------------------------------
# (1) the stall
# ----------------------------------------------------------------------
REQUESTS = 40
#: the stall was 44 ms on every route; unstalled routes read 0.1-1.2 ms
NO_STALL_MS = 10.0
#: a durable insert waits for an fsync, which a slow CI disk can
#: stretch — but not to the stall
NO_STALL_DURABLE_MS = 25.0
STALLED_MS = 30.0


def p50_ms(conn, method, path, body=None):
    """Median wall time of ``REQUESTS`` sequential calls on ``conn``,
    and the size of the last reply body."""
    times = []
    for _ in range(REQUESTS):
        started = time.perf_counter()
        response, raw = call(conn, method, path, body)
        times.append((time.perf_counter() - started) * 1e3)
        assert response.status == 200, raw
    return statistics.median(times), len(raw)


class TestNoStall:
    @pytest.fixture()
    def big(self, tmp_path):
        # m=500 over a few thousand join results: the unlimited
        # GET /synopsis body outgrows the 8 KiB write buffer
        leader = Leader(str(tmp_path), size=500, preload=2000)
        yield leader
        leader.close()

    def test_every_leader_route_answers_without_the_stall(self, big):
        conn = connect(big.address)
        try:
            for method, path, body, bound in (
                ("GET", "/healthz", None, NO_STALL_MS),
                ("POST", f"/query/{NAME}/estimate", ESTIMATE, NO_STALL_MS),
                ("POST", "/insert", {"table": "r", "row": [1, 2]},
                 NO_STALL_DURABLE_MS),
                ("GET", "/synopsis?limit=10", None, NO_STALL_MS),
                ("GET", "/synopsis", None, NO_STALL_MS),
            ):
                median, size = p50_ms(conn, method, path, body)
                assert median < bound, (path, median)
            assert size > 8192, "the last probe must outgrow the buffer"
        finally:
            conn.close()

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="the 40 ms delayed ACK is Linux's")
    def test_the_large_reply_stalls_again_with_nagle_on(self, tmp_path):
        """Buffered writes alone are not the fix: a body larger than
        the buffer is several sends again, and Nagle holds the last.
        This is the probe above failing."""
        class NagleOn(_ServiceHTTPHandler):
            disable_nagle_algorithm = False

        leader = Leader(str(tmp_path), size=500, preload=2000,
                        handler=NagleOn)
        conn = connect(leader.address)
        try:
            median, size = p50_ms(conn, "GET", "/synopsis")
            assert size > 8192
            assert median >= STALLED_MS, median
            # a reply that fits the buffer is one send either way
            median, _ = p50_ms(conn, "GET", "/synopsis?limit=10")
            assert median < NO_STALL_MS, median
        finally:
            conn.close()
            leader.close()

    def test_every_follower_route_answers_without_the_stall(
            self, big, tmp_path):
        big.pm.checkpoint()
        ship = str(tmp_path / "ship")
        WalShipper(big.directory, ship).ship_once()
        replica = FollowerService(ship)
        assert replica.bootstrapped
        server = ServiceHTTPServer(replica, port=0).start()
        conn = connect(server.address)
        try:
            for method, path, body in (
                ("GET", "/healthz", None),
                ("POST", f"/query/{NAME}/estimate", ESTIMATE),
                ("GET", "/synopsis?limit=10", None),
                ("GET", "/synopsis", None),
            ):
                median, size = p50_ms(conn, method, path, body)
                assert median < NO_STALL_MS, (path, median)
            assert size > 8192
        finally:
            conn.close()
            server.stop()
            replica.close()


# ----------------------------------------------------------------------
# (2) exactly one reply per request — never a silent close
# ----------------------------------------------------------------------
DEEP = b"[" * 100_000


class TestEveryRequestIsAnswered:
    @pytest.mark.parametrize("path, body, named", [
        ("/delete", b'{"table": "r", "tid": 1e400}', "tid"),
        ("/delete", b'{"table": "r", "tid": Infinity}', "tid"),
        ("/delete", b'{"table": "r", "tid": true}', "tid"),
        ("/delete", b'{"table": "r", "tid": 1.0}', "tid"),
        ("/delete", b'{"table": 5, "tid": 1}', "table"),
        ("/query", b'{"sql": "%s", "size": 1e400}' % SQL.encode(), "size"),
        ("/query", b'{"sql": "%s", "weight_column": 5}' % SQL.encode(),
         "weight_column"),
        ("/insert", DEEP, "recursion"),
        ("/query", DEEP, "recursion"),
        (f"/query/{NAME}/estimate", DEEP, "recursion"),
        ("/insert", b'{"table": ["r"], "row": [1, 2]}', "table"),
        ("/insert", b"\xff\xfe{}", "bad request"),
    ])
    def test_malformed_request_is_a_400_naming_the_offence(
            self, leader, path, body, named):
        lsn = leader.pm.wal.next_lsn
        conn = connect(leader.address)
        try:
            response, raw = call(conn, "POST", path, body)
            assert response.status == 400, raw
            assert named in json.loads(raw)["error"]
            # the body was consumed: the connection carries on
            response, raw = call(conn, "GET", "/healthz")
            assert response.status == 200
            assert json.loads(raw)["status"] == "ok"
        finally:
            conn.close()
        assert leader.pm.wal.next_lsn == lsn

    def test_an_unforeseen_exception_is_a_json_500_then_close(
            self, leader, capfd):
        def boom():
            raise RuntimeError("boom")

        leader.service.healthz = boom
        conn = connect(leader.address)
        try:
            response, raw = call(conn, "GET", "/healthz")
            assert response.status == 500
            assert response.getheader("Connection") == "close"
            assert response.getheader("Content-Type") == "application/json"
            assert "boom" in json.loads(raw)["error"]
            assert conn.sock is None      # http.client saw the close
            del leader.service.healthz
            response, raw = call(conn, "GET", "/healthz")   # reconnects
            assert response.status == 200
        finally:
            conn.close()
        # the trace stays where the stdlib would have printed it
        assert "RuntimeError: boom" in capfd.readouterr().err

    @pytest.mark.parametrize("request_bytes, status", [
        (b"GET /healthz extra HTTP/1.1\r\n\r\n", 400),
        (b"PUT /insert HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 501),
        (b"PATCH /insert HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 501),
        (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
         431),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
    ])
    def test_stdlib_generated_replies_are_json_too(
            self, leader, request_bytes, status):
        got, headers, body = parse_reply(
            exchange(leader.address, request_bytes))
        assert got == status
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"
        assert json.loads(body)["error"]

    @pytest.mark.parametrize("request_bytes", [
        b"GARBAGE\r\n\r\n", b"GET /healthz HTTP/9.9\r\n\r\n"])
    def test_a_request_line_without_a_version_gets_the_bare_body(
            self, leader, request_bytes):
        """The stdlib answers these in HTTP/0.9 style — no status line,
        no headers — so the JSON body is the whole reply."""
        assert json.loads(exchange(leader.address, request_bytes))["error"]


class TestUnreadBodyClosesTheConnection:
    """A reply sent without consuming exactly the declared body ends
    the connection: what follows on the socket is never parsed as the
    next request."""

    BODY = b'{"table": "r", "row": [1, 2]}'
    #: pipelined behind the bad request, on the same socket
    NEXT = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"

    @pytest.mark.parametrize("length, status", [
        (b"Content-Length: abc\r\n", 400),
        (b"Content-Length: -5\r\n", 400),
        (b"Content-Length: 1_0\r\n", 400),
        (b"", 400),                                   # none declared
        (b"Transfer-Encoding: chunked\r\n", 400),
        (b"Content-Length: %d\r\n" % (MAX_BODY_BYTES + 1), 413),
    ])
    def test_one_reply_then_close_never_a_misparse(
            self, leader, length, status):
        lsn = leader.pm.wal.next_lsn
        raw = exchange(
            leader.address,
            b"POST /insert HTTP/1.1\r\nHost: x\r\n" + length + b"\r\n"
            + self.BODY + self.NEXT)
        got, headers, body = parse_reply(raw)
        assert got == status
        assert headers["Connection"] == "close"
        assert headers["Content-Type"] == "application/json"
        # exactly one reply came back: the stale body and the request
        # behind it were dropped with the connection, not parsed
        assert len(body) == int(headers["Content-Length"])
        assert json.loads(body)["error"]
        assert raw.count(b"HTTP/1.") == 1
        assert leader.pm.wal.next_lsn == lsn

    def test_http_client_sees_the_close_and_a_fresh_connection_works(
            self, leader):
        conn = connect(leader.address)
        try:
            conn.putrequest("POST", "/insert")
            conn.putheader("Content-Length", "abc")
            conn.endheaders(self.BODY)
            response = conn.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            response.read()
            assert conn.sock is None
        finally:
            conn.close()
        fresh = connect(leader.address)
        try:
            response, raw = call(fresh, "POST", "/insert",
                                 {"table": "r", "row": [1, 2]})
            assert response.status == 200
            assert json.loads(raw)["tid"] >= 0
        finally:
            fresh.close()

    def test_a_declared_body_on_a_get_is_consumed(self, leader):
        raw = exchange(
            leader.address,
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n"
            % len(self.BODY) + self.BODY + self.NEXT)
        assert raw.count(b"HTTP/1.1 200") == 2

    def test_an_empty_declared_body_keeps_the_connection(self, leader):
        conn = connect(leader.address)
        try:
            response, raw = call(conn, "POST", "/insert", b"")
            assert response.status == 400
            assert "missing request body" in json.loads(raw)["error"]
            assert response.getheader("Connection") is None
            response, _ = call(conn, "GET", "/healthz")
            assert response.status == 200
        finally:
            conn.close()


# ----------------------------------------------------------------------
# (3) registrations refused before the log sees them
# ----------------------------------------------------------------------
REFUSED_REGISTRATIONS = [
    ({"name": 5}, "name"),
    ({"name": ""}, "name"),
    ({"name": "a/b"}, "name"),
    ({"name": ["x"]}, "name"),
    ({"size": 1.9}, "size"),
    ({"size": True}, "size"),
    ({"size": 0}, "size"),
    ({"size": 10 ** 12}, "size"),
    ({"size": "7"}, "size"),
    ({"seed": "x"}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"seed": False}, "seed"),
    ({"engine": 3}, "engine"),
    ({"weight_column": 5}, "weight_column"),
    ({"sql": 5}, "sql"),
]


class TestRefusedBeforeTheLog:
    @pytest.mark.parametrize("fields, named", REFUSED_REGISTRATIONS)
    def test_post_query_refuses_and_logs_nothing(self, leader, fields,
                                                 named):
        lsn = leader.pm.wal.next_lsn
        conn = connect(leader.address)
        try:
            response, raw = call(conn, "POST", "/query",
                                 {"sql": SQL, **fields})
            assert response.status == 400, raw
            assert named in json.loads(raw)["error"]
            response, raw = call(conn, "GET", "/queries")
            assert response.status == 200
            assert [q["name"] for q in json.loads(raw)["queries"]] \
                == [NAME]
        finally:
            conn.close()
        assert leader.pm.wal.next_lsn == lsn
        assert leader.pm.names() == [NAME]

    @pytest.mark.parametrize("fields, named", REFUSED_REGISTRATIONS)
    def test_in_process_callers_share_the_check(self, leader, fields,
                                                named):
        lsn = leader.pm.wal.next_lsn
        arguments = {"sql": SQL, **fields}
        with pytest.raises(InvalidArgumentError, match=named):
            LocalServiceClient(leader.service).register_query(**arguments)
        assert leader.pm.wal.next_lsn == lsn

    def test_refusals_leave_nothing_for_recovery_to_replay(self, tmp_path):
        leader = Leader(str(tmp_path), preload=300)
        conn = connect(leader.address)
        try:
            lsn = leader.pm.wal.next_lsn
            for fields, _ in REFUSED_REGISTRATIONS:
                response, _ = call(conn, "POST", "/query",
                                   {"sql": SQL, **fields})
                assert response.status == 400
            response, _ = call(conn, "POST", "/delete",
                               {"table": "r", "tid": True})
            assert response.status == 400
            assert leader.pm.wal.next_lsn == lsn
            response, raw = call(conn, "GET", "/synopsis")
            served = json.loads(raw)
        finally:
            conn.close()
            leader.close()
        recovered = PersistentManager.recover(leader.directory)
        try:
            assert recovered.names() == [NAME]
            assert recovered.replay_failures == 0
            assert [list(row) for row in recovered.synopsis(NAME)] \
                == served["synopsis"]
            assert recovered.total_results(NAME) == served["total_results"]
            # the names sort again, wherever they are listed
            assert QueryRegistry(recovered).names() == [NAME]
        finally:
            recovered.close()

    def test_a_well_typed_registration_still_goes_through(self, tmp_path):
        leader = Leader(str(tmp_path))
        conn = connect(leader.address)
        try:
            response, raw = call(conn, "POST", "/query", {
                "sql": SQL, "name": "second", "size": 7, "seed": -3,
                "engine": "sjoin", "weight_column": None})
            assert response.status == 200, raw
            assert json.loads(raw)["name"] == "second"
            assert leader.pm.names() == [NAME, "second"]
        finally:
            conn.close()
            leader.close()


# ----------------------------------------------------------------------
# (4a) fuzz: the SQL parser only ever fails typed
# ----------------------------------------------------------------------
#: deterministic and bounded: tier-1 wall time moves by seconds
FUZZ = dict(derandomize=True, database=None, deadline=None,
            suppress_health_check=list(HealthCheck))

_QY_DB = setup_query("QY", TpcdsScale.tiny()).db
_QB = setup_qb(200, LinearRoadConfig(cars_per_lane=2, ticks=2))
_SEEDS = [(QY_SQL, _QY_DB), (_QB.sql, _QB.db)]

_TOKENS = st.sampled_from([
    "SELECT", "select", "*", "FROM", "WHERE", "AND", "OR", "AS", "ss",
    "store_sales", "customer_c1", "c1", "lane1", "lane2", "pos", ".", ",",
    "=", "<", "<=", ">", ">=", "<>", "!=", "|", "-", "+", "(", ")", "0",
    "200", "1e400", "1.5", "'x'", "\"", "'", ";", "--", "/*", "\x00",
    "ss_customer_sk", "c_customer_sk", "é", "\n", "\t",
])
_SOUP = st.lists(_TOKENS, max_size=30).flatmap(
    lambda tokens: st.sampled_from([" ", ""]).map(
        lambda glue: glue.join(tokens)))
_CHARS = st.sampled_from(list(" .,=<>|()-*'\"0a_;\n") + ["é", "\x00"])


@st.composite
def _mutated(draw):
    sql, db = draw(st.sampled_from(_SEEDS))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(sql)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        if kind == "insert":
            sql = sql[:at] + draw(_CHARS) + sql[at:]
        elif kind == "delete":
            sql = sql[:at] + sql[at + 1:]
        else:
            sql = sql[:at] + draw(_CHARS) + sql[at + 1:]
    return sql, db


def _parse_fails_typed(sql, db):
    try:
        parse_query(sql, db)
    except QueryParseError as exc:
        assert exc.position is None or 0 <= exc.position <= len(sql), \
            (exc.position, sql)
    except ReproError:
        pass      # typed: unknown table/column, unsupported shape


class TestParserFuzz:
    @settings(max_examples=400, **FUZZ)
    @given(_SOUP, st.sampled_from([db for _, db in _SEEDS]))
    def test_token_soup(self, sql, db):
        _parse_fails_typed(sql, db)

    @settings(max_examples=600, **FUZZ)
    @given(_mutated())
    def test_mutations_of_the_paper_queries(self, case):
        _parse_fails_typed(*case)

    def test_the_unmutated_queries_parse(self):
        for sql, db in _SEEDS:
            assert parse_query(sql, db).range_tables

    def test_deep_nesting_ends_typed(self):
        for sql in ("SELECT * FROM " + "(" * 5000,
                    "SELECT * FROM lane1, lane2 WHERE " + "(" * 5000
                    + "lane1.pos = lane2.pos" + ")" * 5000):
            with pytest.raises(ReproError):
                parse_query(sql, _QB.db)


# ----------------------------------------------------------------------
# (4b) fuzz: every route of a live server
# ----------------------------------------------------------------------
ALLOWED = {200, 400, 403, 404, 409, 413, 503}

_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.just(10 ** 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.lists(st.integers(0, 3), max_size=3),
    st.lists(st.lists(st.integers(0, 3), max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)
_SMALL = st.integers(0, 5)
_ROW = st.one_of(st.tuples(_SMALL, _SMALL).map(list),
                 st.lists(_JUNK, max_size=3), _JUNK)


def _fields(**valid):
    """A JSON object whose every field is valid, junk, or missing."""
    return st.fixed_dictionaries({}, optional={
        key: st.one_of(strategy, _JUNK) for key, strategy in valid.items()})


#: no registration here may succeed with a weight column: a weighted
#: query refuses a schema-valid row whose weight is not positive
#: *after* the heap and the other queries took it (the error carries
#: ``ops_applied``), which a twin keyed on status codes cannot mirror
_POST_BODIES = {
    "/insert": _fields(table=st.sampled_from(["r", "s", "nope"]), row=_ROW),
    "/delete": _fields(table=st.sampled_from(["r", "s", "nope"]),
                       tid=st.integers(0, 40)),
    "/query": _fields(
        sql=st.sampled_from([SQL, "SELECT * FROM r WHERE", "SELECT"]),
        name=st.text(max_size=4), size=st.integers(1, 50),
        engine=st.sampled_from(["sjoin-opt", "sjoin", "sj", "x"]),
        weight_column=st.sampled_from(["r.nope", "nope", "t.x"]),
        seed=st.integers(-5, 5)),
    f"/query/{NAME}/estimate": _fields(
        agg=st.sampled_from(["count", "sum", "avg", "median"]),
        column=st.sampled_from(["r.x", "s.y", "r.nope", "x"]),
        where=st.lists(_fields(
            column=st.sampled_from(["r.x", "s.y", "r.nope"]),
            op=st.sampled_from(["=", "<=", ">", "~"]), value=_SMALL),
            max_size=2),
        group_by=st.sampled_from(["r.a", "s.a", "nope"]),
        confidence=st.sampled_from([0.5, 0.95, 0.0, 1.0, 2])),
    "/query/ghost/estimate": _fields(agg=st.just("count")),
    "/nope": _fields(table=st.just("r")),
}


#: well-formed writes, so that the twin has something to agree on
_TABLE = st.sampled_from(["r", "s"])
_WRITES = {
    "/insert": st.fixed_dictionaries({
        "table": _TABLE, "row": st.tuples(_SMALL, _SMALL).map(list)}),
    "/delete": st.fixed_dictionaries({
        "table": _TABLE, "tid": st.integers(0, 60)}),
    "/query": st.fixed_dictionaries({"sql": st.just(SQL)}, optional={
        "name": st.text("abc", min_size=1, max_size=2),
        "size": st.integers(1, 50), "seed": st.integers(-5, 5),
        "engine": st.sampled_from(["sjoin-opt", "sjoin"])}),
}


@st.composite
def _post(draw):
    shape = draw(st.sampled_from(
        ["write", "write", "object", "object", "object", "overflow",
         "other", "bytes"]))
    if shape == "write":
        path = draw(st.sampled_from(
            ["/insert"] * 4 + ["/delete"] * 2 + ["/query"]))
        return path, json.dumps(draw(_WRITES[path])).encode("utf-8")
    path = draw(st.sampled_from(sorted(_POST_BODIES)))
    if shape == "bytes":
        return path, draw(st.binary(max_size=24))
    if shape == "other":
        return path, json.dumps(draw(_JUNK)).encode("utf-8")
    body = json.dumps(draw(_POST_BODIES[path]))
    if shape == "overflow":
        # a literal no float holds, wherever a small integer stood
        body = body.replace(": 1", ": 1e400").replace("[1", "[1e400")
    return path, body.encode("utf-8")


_QUERY_VALUES = st.one_of(
    st.sampled_from([NAME, "ghost", "0", "5", "-1", "abc", "1e400",
                     "9" * 25, "١٢", "", "trace", "%zz"]),
    st.text(max_size=5))
_GET_PATHS = st.sampled_from([
    "/healthz", "/metrics", "/synopsis", "/stats", "/queries",
    f"/queries/{NAME}/audit", "/queries/ghost/audit", "/queries//audit",
    "/events", "/nope", "/", "//", "/synopsis/extra",
])


@st.composite
def _get(draw):
    params = draw(st.dictionaries(
        st.sampled_from(["name", "limit", "kind", "x"]), _QUERY_VALUES,
        max_size=3))
    query = urlencode(params)
    if draw(st.booleans()):
        query += draw(st.sampled_from(["&", "&&=", "&limit", "%", "=="]))
    return draw(_GET_PATHS) + ("?" + query if query else "")


class Twin:
    """A bare manager fed only the ops the server acknowledged."""

    def __init__(self):
        self.manager = make_manager(size=20)

    def accepted(self, path, payload, reply):
        if path == "/insert":
            row = tuple(tuple(v) if isinstance(v, list) else v
                        for v in payload["row"])
            result = self.manager.apply_batch(
                [InsertOp(payload["table"], row)])
            assert reply["tid"] == result.outcomes[0].tid
        elif path == "/delete":
            self.manager.apply_batch(
                [DeleteOp(payload["table"], payload["tid"])])


class TestLiveServerFuzz:
    def test_every_request_ends_in_a_typed_reply(self):
        with tempfile.TemporaryDirectory() as directory:
            leader = Leader(directory, size=20)
            try:
                self._fuzz(leader)
            finally:
                leader.close()

    def _fuzz(self, leader):
        twin = Twin()
        conn = connect(leader.address)
        sock = conn.sock
        statuses = collections.Counter()

        def one(method, path, body):
            response, raw = call(conn, method, path, body)
            assert response.status in ALLOWED, (path, body, raw)
            statuses[response.status] += 1
            if path.startswith("/metrics") and response.status == 200:
                assert response.getheader("Content-Type").startswith(
                    "text/plain")     # the one route that is not JSON
                reply = None
            else:
                assert response.getheader("Content-Type") \
                    == "application/json"
                reply = json.loads(raw)
                if response.status != 200:
                    assert reply["error"]
            # every request was consumed whole, so none of them cost
            # the connection
            assert response.getheader("Connection") is None
            assert conn.sock is sock
            return response.status, reply

        @settings(max_examples=500, **FUZZ)
        @given(_post())
        def posts(request):
            path, body = request
            status, reply = one("POST", path, body)
            if status == 200:
                twin.accepted(path, json.loads(body), reply)

        @settings(max_examples=200, **FUZZ)
        @given(_get())
        def gets(path):
            one("GET", path, None)

        try:
            posts()
            gets()
            status, health = one("GET", "/healthz", None)
            assert status == 200 and health["status"] == "ok"
            assert leader.service._thread.is_alive()
            status, ack = one("POST", "/insert",
                              json.dumps({"table": "r", "row": [1, 1]})
                              .encode())
            assert status == 200
            twin.accepted("/insert", {"table": "r", "row": [1, 1]}, ack)
            status, served = one("GET", f"/synopsis?name={NAME}", None)
            assert status == 200
            assert served["synopsis"] == [
                list(row) for row in twin.manager.synopsis(NAME)]
            assert served["total_results"] \
                == twin.manager.total_results(NAME)
            # the fuzz reached past the front door, both ways
            assert health["applied_ops"] >= 50
            assert {200, 400, 404, 409} <= set(statuses), statuses
        finally:
            conn.close()
