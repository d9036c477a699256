"""The HTTP load: one writer and one reader, writes beside reads.

Two closed loops on two keep-alive connections, for a fixed window: the
writer POSTs the seeded stream one op per request (``/insert``,
``/delete``) and waits for each durable ack; the reader loops the
filtered-COUNT ``POST /query/<name>/estimate`` and waits for each
answer.  Both connections set ``TCP_NODELAY``, so no request segment
waits on the client's side: a stall the benchmark sees is the server's.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.core.stats_api import InsertOp

from benchmarks.layers.stream import Stream


class Client:
    """One keep-alive JSON connection to the server under test."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def call(self, method: str, path: str,
             body: Optional[dict] = None) -> Tuple[int, bytes]:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def json(self, method: str, path: str,
             body: Optional[dict] = None) -> Tuple[int, dict]:
        status, raw = self.call(method, path, body)
        return status, json.loads(raw)

    def close(self) -> None:
        self.conn.close()


@dataclasses.dataclass
class LoadResult:
    window_s: float = 0.0
    acked: int = 0
    #: how many of the acknowledged ops went through ``/delete``
    deletes: int = 0
    #: per request, ``perf_counter_ns`` at send and at the full reply
    writes_ns: List[Tuple[int, int]] = dataclasses.field(
        default_factory=list)
    reads_ns: List[Tuple[int, int]] = dataclasses.field(
        default_factory=list)
    non200: int = 0
    tid_mismatches: int = 0
    bad_estimates: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)

    @property
    def write_ms(self) -> List[float]:
        return [(e - s) / 1e6 for s, e in self.writes_ns]

    @property
    def read_ms(self) -> List[float]:
        return [(e - s) / 1e6 for s, e in self.reads_ns]

    @property
    def requests(self) -> int:
        return len(self.writes_ns) + len(self.reads_ns)

    @property
    def failed(self) -> int:
        return (self.non200 + self.tid_mismatches + self.bad_estimates
                + len(self.errors))


def run_window(port: int, stream: Stream, seconds: float) -> LoadResult:
    """Drive the writer and the reader for ``seconds``; the writer
    starts at ``stream.http_start()`` (the server has applied the ops
    before it) and stops early only if the stream runs out."""
    spec = stream.spec
    start = stream.http_start()
    result = LoadResult()
    done = threading.Event()
    estimate_path = f"/query/{spec.query}/estimate"
    estimate_body = {"agg": "count", "where": list(spec.where)}

    def reader() -> None:
        clock = time.perf_counter_ns
        try:
            client = Client(port)
            try:
                while not done.is_set():
                    t0 = clock()
                    status, payload = client.json(
                        "POST", estimate_path, estimate_body)
                    result.reads_ns.append((t0, clock()))
                    if status != 200:
                        result.non200 += 1
                    elif not isinstance(payload.get("value"), float) \
                            or payload.get("ci") is None:
                        result.bad_estimates += 1
            finally:
                client.close()
        except (OSError, ValueError, http.client.HTTPException) as exc:
            result.errors.append(f"reader: {exc!r}")

    thread = threading.Thread(target=reader, name="bench-reader")
    thread.start()
    clock, clock_ns = time.perf_counter, time.perf_counter_ns
    begun = clock()
    try:
        client = Client(port)
        try:
            deadline = begun + seconds
            for op, expected in zip(stream.ops[start:],
                                    stream.expected_tids[start:]):
                if clock() >= deadline:
                    break
                if isinstance(op, InsertOp):
                    path = "/insert"
                    body = {"table": op.target, "row": list(op.row)}
                else:
                    path = "/delete"
                    body = {"table": op.target, "tid": op.tid}
                t0 = clock_ns()
                status, payload = client.json("POST", path, body)
                result.writes_ns.append((t0, clock_ns()))
                if status != 200:
                    result.non200 += 1
                    break      # later TIDs would all be off by one
                result.acked += 1
                result.deletes += path == "/delete"
                if payload.get("tid") != expected:
                    result.tid_mismatches += 1
        finally:
            client.close()
    except (OSError, ValueError, http.client.HTTPException) as exc:
        result.errors.append(f"writer: {exc!r}")
    finally:
        result.window_s = clock() - begun
        done.set()
        thread.join()
    return result


def parse_exposition(text: str) -> Dict[str, float]:
    """``GET /metrics`` text → ``{sample name (labels dropped): value}``,
    summing the children of a labeled family."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        name = name.split("{", 1)[0]
        try:
            out[name] = out.get(name, 0.0) + float(value)
        except ValueError:
            continue
    return out
