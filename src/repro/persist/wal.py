"""Append-only write-ahead log of typed update ops.

The log is the durability half of the write path: every batch handed to
:meth:`PersistentManager.apply_batch` is framed, CRC-protected and (per the
sync policy) fsynced *before* the in-memory engine sees it, so an
acknowledged op can always be replayed after a crash.

Layout
------
A log directory holds segment files named ``wal-<start_lsn:016x>.seg``.
A segment is a concatenation of records::

    <payload_len: u32 LE> <payload_crc32: u32 LE> <payload: plain bytes>

A payload is plain values (None, bool, int, float, str, bytes and
containers of them) in pickle's opcodes, through :func:`dump_plain` /
:func:`load_plain`, the one codec pair snapshots and followers share:
both refuse whatever names a class, so CRC-valid bytes never run code.

Record LSNs are implicit: the segment's start LSN (from its file name)
plus the record's position.  LSNs are assigned monotonically and never
reused; :meth:`truncate_through` only ever drops *whole* segments whose
records are all covered by a checkpoint.

Torn tails
----------
On open, the last segment is scanned record by record; the first short or
CRC-mismatching frame marks a torn tail (a crash mid-write) and the file
is truncated back to the last complete record.  Earlier segments were
sealed by rotation and are trusted as written (CRC still guards replay).
"""

from __future__ import annotations

import dataclasses
import io
import os
import pickle
import struct
import zlib
from typing import Callable, Iterator, List, Optional, Tuple

from repro.errors import InvalidArgumentError, PersistError

_FRAME = struct.Struct("<II")  # payload length, payload crc32

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".seg"

SYNC_POLICIES = ("batch", "never")

#: hook(phase, path, fileobj, synced_size) — called around every fsync;
#: the crash-point injector plugs in here (see repro.persist.crashpoints).
SyncHook = Callable[[str, str, object, Optional[int]], None]


def _segment_name(start_lsn: int) -> str:
    return f"{SEGMENT_PREFIX}{start_lsn:016x}{SEGMENT_SUFFIX}"


def _segment_start_lsn(filename: str) -> Optional[int]:
    if (not filename.startswith(SEGMENT_PREFIX)
            or not filename.endswith(SEGMENT_SUFFIX)):
        return None
    body = filename[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
    try:
        return int(body, 16)
    except ValueError:
        return None


def scan_frames(data: bytes, base: int = 0) -> Tuple[List[bytes], int]:
    """Parse complete CRC-valid record payloads out of raw segment bytes.

    ``data`` must start at a frame boundary (byte offset ``base`` of the
    segment).  Returns ``(payloads, valid)`` where ``valid`` is the
    *segment* offset after the last complete, CRC-valid record — a short
    or CRC-mismatching frame (a torn tail, or bytes still in flight on a
    shipped copy) stops the scan.
    """
    payloads: List[bytes] = []
    offset = 0
    valid = base
    while offset + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, offset)
        end = offset + _FRAME.size + length
        if end > len(data):
            break  # torn: header promises more bytes than exist
        payload = data[offset + _FRAME.size:end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            break  # torn or corrupted: stop at the last good record
        payloads.append(payload)
        offset = end
        valid = base + end
    return payloads, valid


class _PlainPickler(pickle.Pickler):
    def reducer_override(self, obj):  # reached only by what needs a class
        raise InvalidArgumentError(
            f"a {type(obj).__name__} value cannot be made durable: only "
            "None, bool, int, float, str, bytes and containers of them")


class _PlainUnpickler(pickle.Unpickler):
    def find_class(self, module, name):
        raise pickle.UnpicklingError(f"refusing class {module}.{name}")


def dump_plain(obj: object) -> bytes:
    """Encode plain values; a class raises InvalidArgumentError."""
    buf = io.BytesIO()
    _PlainPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buf.getvalue()


def load_plain(data: bytes) -> object:
    """Decode :func:`dump_plain` bytes; a class reference raises."""
    return _PlainUnpickler(io.BytesIO(data)).load()


def decode_record(payload: bytes, where: str, error=PersistError) -> object:
    """The entry one CRC-valid record payload holds — the only place the
    log's bytes are decoded, for recovery and followers alike.  Bytes
    that do not decode raise ``error`` naming ``where``."""
    try:
        return load_plain(payload)
    except Exception as exc:
        raise error(f"{where} failed to decode: {exc}") from exc


def _scan_segment(path: str) -> Tuple[List[bytes], int]:
    """Read every complete record of a segment (see :func:`scan_frames`)."""
    with open(path, "rb") as fh:
        data = fh.read()
    return scan_frames(data)


def list_segments(directory: str) -> List[Tuple[int, str]]:
    """``(start_lsn, path)`` of every segment file, ordered by start LSN.

    Shared by :class:`WriteAheadLog` and the replication shipper, which
    reads a (possibly live) log directory it does not own.
    """
    out = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        start = _segment_start_lsn(name)
        if start is not None:
            out.append((start, os.path.join(directory, name)))
    out.sort()
    return out


@dataclasses.dataclass(frozen=True)
class SegmentInfo:
    """One WAL segment as seen by shipping/replication tooling.

    ``sealed`` segments were finished by rotation and never grow again;
    the open tail keeps appending.  ``records``/``valid_size`` describe
    the complete CRC-valid prefix at scan time.
    """

    start_lsn: int
    path: str
    sealed: bool
    records: int
    valid_size: int

    @property
    def end_lsn(self) -> int:
        """LSN one past the segment's last complete record."""
        return self.start_lsn + self.records


class WriteAheadLog:
    """An append-only, CRC-framed, segmented log of plain-value entries.

    Parameters
    ----------
    directory:
        Where segments live; created if missing.
    segment_max_bytes:
        Rotation threshold — a new segment starts once the current one
        exceeds this size.
    sync:
        ``"batch"`` (one fsync per appended record, the default) or
        ``"never"``.
    sync_hook:
        Optional callable invoked around every fsync (crash injection).
    """

    def __init__(self, directory: str,
                 segment_max_bytes: int = 4 * 1024 * 1024,
                 sync: str = "batch",
                 sync_hook: Optional[SyncHook] = None):
        if sync not in SYNC_POLICIES:
            raise PersistError(
                f"unknown sync policy {sync!r}; pick one of {SYNC_POLICIES}"
            )
        self.directory = directory
        self.segment_max_bytes = segment_max_bytes
        self.sync = sync
        self.sync_hook = sync_hook
        os.makedirs(directory, exist_ok=True)
        # work counters, published by the persistence runtime
        self.appends = 0
        self.bytes_written = 0
        self.syncs = 0
        self.rotations = 0
        self._fh = None
        self._open_tail()

    # ------------------------------------------------------------------
    # opening / recovery of the on-disk state
    # ------------------------------------------------------------------
    def _segments(self) -> List[Tuple[int, str]]:
        """Existing ``(start_lsn, path)`` pairs, ordered by start LSN."""
        return list_segments(self.directory)

    def segments(self) -> List["SegmentInfo"]:
        """Scan every segment into :class:`SegmentInfo` (shipping hook).

        The log writes unbuffered, so ``valid_size`` covers everything
        appended so far; whether those bytes are *durable* on the leader
        still follows the sync policy.
        """
        out = []
        for start, path in self._segments():
            payloads, valid = _scan_segment(path)
            out.append(SegmentInfo(
                start_lsn=start, path=path,
                sealed=(path != self._tail_path),
                records=len(payloads), valid_size=valid,
            ))
        return out

    def _open_tail(self) -> None:
        segments = self._segments()
        if not segments:
            self._start_lsn = 0          # first LSN of the open segment
            self._tail_count = 0         # records in the open segment
            self._tail_path = os.path.join(self.directory, _segment_name(0))
            # unbuffered: an injected crash must not leave bytes in a
            # Python-level buffer that a later GC close would still write
            self._fh = open(self._tail_path, "ab", buffering=0)
            self._size = self._synced_size = 0
            return
        start, path = segments[-1]
        payloads, valid = _scan_segment(path)
        if valid < os.path.getsize(path):
            with open(path, "r+b") as fh:
                fh.truncate(valid)
        self._start_lsn = start
        self._tail_count = len(payloads)
        self._tail_path = path
        self._fh = open(path, "ab", buffering=0)
        self._size = self._synced_size = valid

    # ------------------------------------------------------------------
    @property
    def next_lsn(self) -> int:
        """LSN the next appended record will get."""
        return self._start_lsn + self._tail_count

    def append(self, entry: object) -> int:
        """Frame, write and (per policy) fsync one entry; returns its
        LSN.  A value the codec refuses writes nothing."""
        if self._fh is None:
            raise PersistError("write-ahead log is closed")
        payload = dump_plain(entry)
        data = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        lsn = self.next_lsn
        self._fh.write(data)
        self._size += len(data)
        self._tail_count += 1
        self.appends += 1
        self.bytes_written += len(data)
        if self.sync != "never":
            self._fsync()
        if self._size >= self.segment_max_bytes:
            self.rotate()
        return lsn

    def _fsync(self) -> None:
        hook = self.sync_hook
        if hook is not None:
            hook("before", self._tail_path, self._fh, self._synced_size)
        os.fsync(self._fh.fileno())
        self.syncs += 1
        self._synced_size = self._size
        if hook is not None:
            hook("after", self._tail_path, self._fh, self._synced_size)

    def rotate(self) -> None:
        """Seal the open segment and start a new one at ``next_lsn``."""
        if self._fh is None:
            raise PersistError("write-ahead log is closed")
        if self._tail_count == 0:
            return  # still empty: nothing to seal
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._start_lsn = self.next_lsn
        self._tail_count = 0
        self._tail_path = os.path.join(
            self.directory, _segment_name(self._start_lsn))
        self._fh = open(self._tail_path, "ab", buffering=0)
        self._size = self._synced_size = 0
        self.rotations += 1

    def truncate_through(self, lsn: int) -> int:
        """Drop sealed segments whose records all have LSN <= ``lsn``.

        Called after a checkpoint: the snapshot covers everything up to
        its recorded LSN, so earlier segments are dead weight.  Returns
        the number of segments removed.  The open tail is never removed.
        """
        segments = self._segments()
        removed = 0
        for i, (start, path) in enumerate(segments):
            if path == self._tail_path:
                continue
            next_start = (segments[i + 1][0] if i + 1 < len(segments)
                          else self._start_lsn)
            if next_start - 1 <= lsn:
                os.remove(path)
                removed += 1
        return removed

    def replay(self, from_lsn: int = 0) -> Iterator[Tuple[int, object]]:
        """Yield ``(lsn, entry)`` for every record with LSN >= ``from_lsn``.

        Safe on a live log (reads the files, not the write handle); used
        by recovery after the snapshot restore.
        """
        for start, path in self._segments():
            payloads, _ = _scan_segment(path)
            for i, payload in enumerate(payloads):
                lsn = start + i
                if lsn >= from_lsn:
                    yield lsn, decode_record(
                        payload, f"WAL record {lsn} of {path}")

    def close(self) -> None:
        if self._fh is not None:
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    def abandon(self) -> None:
        """Release the write handle *without* a final fsync.

        Used after an injected crash: whatever the simulated machine had
        durable is exactly what the injector left on disk, and a clean
        :meth:`close` here would retroactively make the lost tail
        durable again."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"WriteAheadLog(dir={self.directory!r}, "
                f"next_lsn={self.next_lsn})")
