"""Versioned, CRC-verified snapshots of the full logical state.

A snapshot file is::

    <header JSON>\\n
    <payload: plain bytes, the WAL's codec (repro.persist.wal.dump_plain)>

where the header records the format magic/version, the WAL LSN the
snapshot covers (every record with a smaller LSN is folded in), and the
payload's length and CRC32.  Files are written to a temporary name,
fsynced, atomically renamed, and the directory is fsynced — a crash at
any point leaves either the previous snapshot set or the new one, never
a half-visible file that parses.

``load_latest`` walks snapshots newest-first and returns the first one
that passes header + CRC validation, so a snapshot torn by a crash (or
rotted on disk) is skipped rather than trusted.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zlib
from typing import List, Optional, Tuple

from repro.errors import PersistError
from repro.persist.wal import SyncHook, dump_plain, load_plain

SNAPSHOT_MAGIC = "repro-snapshot"
FORMAT_VERSION = 1

SNAPSHOT_PREFIX = "snapshot-"
SNAPSHOT_SUFFIX = ".snap"

#: header fields that must be JSON integers for the header to parse: a
#: flipped byte outside the payload's CRC must not reach a reader as a
#: missing key or a wrong type
_HEADER_INTS = ("wal_lsn", "payload_len", "payload_crc")


def _snapshot_name(seq: int) -> str:
    return f"{SNAPSHOT_PREFIX}{seq:08x}{SNAPSHOT_SUFFIX}"


def _snapshot_seq(filename: str) -> Optional[int]:
    if (not filename.startswith(SNAPSHOT_PREFIX)
            or not filename.endswith(SNAPSHOT_SUFFIX)):
        return None
    body = filename[len(SNAPSHOT_PREFIX):-len(SNAPSHOT_SUFFIX)]
    try:
        return int(body, 16)
    except ValueError:
        return None


def _parse_header(header_line: bytes) -> Optional[dict]:
    try:
        header = json.loads(header_line.decode("ascii"))
    except (ValueError, UnicodeDecodeError):
        return None
    if (not isinstance(header, dict)
            or header.get("magic") != SNAPSHOT_MAGIC
            or header.get("version") != FORMAT_VERSION
            or not all(type(header.get(field)) is int
                       for field in _HEADER_INTS)):
        return None
    return header


def decode_snapshot_bytes(data: bytes) -> Optional[Tuple[object, dict]]:
    """Fully validate and decode one snapshot file's raw bytes.

    Returns ``(payload_obj, header)``, or None when the header, length,
    CRC, or decode fails — the same skip-don't-trust contract as
    :meth:`SnapshotStore.load_latest`, shared with the replication
    follower (which receives snapshot bytes through a transport rather
    than from a local store).
    """
    newline = data.find(b"\n")
    if newline < 0:
        return None
    header = _parse_header(data[:newline + 1])
    if header is None:
        return None
    payload = data[newline + 1:]
    if len(payload) != header.get("payload_len"):
        return None
    if zlib.crc32(payload) & 0xFFFFFFFF != header.get("payload_crc"):
        return None
    try:
        return load_plain(payload), header
    except Exception:
        return None


@dataclasses.dataclass(frozen=True)
class SnapshotInfo:
    """The newest snapshot's identity, from its header alone.

    ``wal_lsn`` is the first WAL record NOT covered by the snapshot —
    replay (or follower tailing) starts there.  Header-only validation:
    a caller that will actually *load* the payload still goes through
    the CRC-checking readers.
    """

    seq: int
    path: str
    wal_lsn: int
    header: dict

    @property
    def name(self) -> str:
        """The snapshot's file name (the cross-transport identity)."""
        return os.path.basename(self.path)


class SnapshotStore:
    """Atomic snapshot files in one directory.

    Parameters
    ----------
    directory:
        Where snapshots live; created if missing.
    retain:
        How many most-recent snapshots to keep after a successful write
        (older ones are pruned; at least 1).
    sync_hook:
        Optional callable invoked around every fsync (crash injection);
        same signature as the WAL's hook.
    """

    def __init__(self, directory: str, retain: int = 2,
                 sync_hook: Optional[SyncHook] = None):
        if retain < 1:
            raise PersistError("snapshot retention must keep at least 1")
        self.directory = directory
        self.retain = retain
        self.sync_hook = sync_hook
        os.makedirs(directory, exist_ok=True)
        # work counters, published by the persistence runtime
        self.writes = 0
        self.bytes_written = 0

    # ------------------------------------------------------------------
    def _snapshots(self) -> List[Tuple[int, str]]:
        out = []
        for name in os.listdir(self.directory):
            seq = _snapshot_seq(name)
            if seq is not None:
                out.append((seq, os.path.join(self.directory, name)))
        out.sort()
        return out

    def _next_seq(self) -> int:
        snapshots = self._snapshots()
        return snapshots[-1][0] + 1 if snapshots else 0

    # ------------------------------------------------------------------
    def write(self, payload_obj: object, wal_lsn: int) -> str:
        """Durably write a snapshot covering WAL records < ``wal_lsn``.

        Returns the final path.  The write is atomic: tmp file → fsync →
        rename → directory fsync.
        """
        payload = dump_plain(payload_obj)
        header = {
            "magic": SNAPSHOT_MAGIC,
            "version": FORMAT_VERSION,
            "wal_lsn": int(wal_lsn),
            "payload_len": len(payload),
            "payload_crc": zlib.crc32(payload) & 0xFFFFFFFF,
        }
        seq = self._next_seq()
        final_path = os.path.join(self.directory, _snapshot_name(seq))
        tmp_path = final_path + ".tmp"
        hook = self.sync_hook
        fh = open(tmp_path, "wb", buffering=0)
        try:
            header_bytes = (json.dumps(header, sort_keys=True)
                            + "\n").encode("ascii")
            fh.write(header_bytes)
            fh.write(payload)
            if hook is not None:
                hook("before", tmp_path, fh, 0)
            os.fsync(fh.fileno())
            if hook is not None:
                hook("after", tmp_path, fh, fh.tell())
        finally:
            fh.close()
        os.rename(tmp_path, final_path)
        self._sync_directory()
        self.writes += 1
        self.bytes_written += len(header_bytes) + len(payload)
        self._prune()
        return final_path

    def _sync_directory(self) -> None:
        hook = self.sync_hook
        dir_fd = os.open(self.directory, os.O_RDONLY)
        try:
            if hook is not None:
                hook("before", self.directory, None, None)
            os.fsync(dir_fd)
            if hook is not None:
                hook("after", self.directory, None, None)
        finally:
            os.close(dir_fd)

    def _prune(self) -> None:
        snapshots = self._snapshots()
        for _, path in snapshots[:-self.retain]:
            os.remove(path)
        # leftover tmp files from crashed writes are dead weight
        for name in os.listdir(self.directory):
            if name.endswith(".tmp"):
                os.remove(os.path.join(self.directory, name))

    # ------------------------------------------------------------------
    def _read_one(self, path: str) -> Optional[Tuple[object, dict]]:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        return decode_snapshot_bytes(data)

    def newest(self) -> Optional[SnapshotInfo]:
        """The newest snapshot whose *header* parses, as metadata only.

        The cheap existence/identity accessor: recovery discriminators
        (:func:`repro.persist.runtime.has_state`) and the replication
        shipper ask "which snapshot is current?" without paying for a
        payload CRC pass.  Returns None when the directory holds no
        header-valid snapshot.
        """
        for seq, path in reversed(self._snapshots()):
            try:
                with open(path, "rb") as fh:
                    header = _parse_header(fh.readline())
            except OSError:
                continue
            if header is not None:
                return SnapshotInfo(seq=seq, path=path,
                                    wal_lsn=int(header["wal_lsn"]),
                                    header=header)
        return None

    def load_latest(self) -> Optional[Tuple[object, dict]]:
        """Newest snapshot passing validation, as ``(payload, header)``.

        Corrupt or torn snapshots are skipped (newest-first); returns
        None when no valid snapshot exists.
        """
        for _, path in reversed(self._snapshots()):
            loaded = self._read_one(path)
            if loaded is not None:
                return loaded
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SnapshotStore(dir={self.directory!r}, "
                f"count={len(self._snapshots())})")
