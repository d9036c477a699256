"""The transport carrying shipped replication artifacts.

A transport moves three kinds of artifact from a leader to its
followers:

* **WAL segments** — append-only byte streams, shipped incrementally
  (only new CRC-valid bytes move on each round);
* **snapshots** — whole immutable files, shipped atomically;
* **the manifest** — one small JSON document, republished atomically on
  every ship round, that tells followers exactly which bytes are
  trustworthy.

The manifest is the replication protocol's acknowledgement boundary:
followers replay *only* records the manifest advertises, so a shipper
crash mid-copy (torn bytes beyond the advertised size, a snapshot
half-written, a manifest that never flipped) can never make a follower
apply an unacked record.  Publication ordering is therefore fixed:
artifact bytes first, manifest last.

:class:`DirectoryTransport` ships them through a shared/filesystem
directory (NFS mount, bind-mounted volume, plain local directory in
tests)::

    <root>/wal/<segment files>       grow-only shipped copies
    <root>/snapshots/<snap files>    atomic whole-file copies
    <root>/MANIFEST.json             atomic rename publication
"""

from __future__ import annotations

import json
import os
from typing import List, Optional

from repro.errors import ReplicationError

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_VERSION = 1

WAL_SUBDIR = "wal"
SNAPSHOT_SUBDIR = "snapshots"

_NUMBER = (int, float)
#: what a shipper publishes beside ``version``: a field's shape is its
#: JSON type(s), a ``{field: shape}`` object or ``[shape]``, a list of
#: such entries; the snapshot entry alone may be null
_MANIFEST = {
    "ship_seq": int, "shipped_at": _NUMBER, "acked_lsn": int,
    "snapshot": {"name": str, "wal_lsn": int},
    "segments": [{"name": str, "start_lsn": int, "records": int,
                  "size": int}],
    "watermarks": [{"lsn": int, "shipped_at": _NUMBER,
                    "appended_at": _NUMBER}],
}


def _check_shape(value, shape, where: str) -> None:
    """``value`` has ``shape`` (a boolean is not a number), or a
    :class:`~repro.errors.ReplicationError` names what is wrong."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise ReplicationError(f"{where} is not a JSON object: "
                                   f"{value!r}")
        for field, inner in shape.items():
            if field not in value:
                raise ReplicationError(f"{where} has no {field!r} field")
            if field != "snapshot" or value[field] is not None:
                _check_shape(value[field], inner,
                             f"{where} field {field!r}")
    elif isinstance(shape, list):
        if not isinstance(value, list):
            raise ReplicationError(f"{where} is not a list: {value!r}")
        for entry in value:
            _check_shape(entry, shape[0], f"{where} entry")
    elif isinstance(value, bool) or not isinstance(value, shape):
        raise ReplicationError(f"{where} is {value!r}, of the wrong type")


class DirectoryTransport:
    """Replication over a shared directory (the filesystem transport).

    Both ends open the same ``root``: the shipper typically mounts it
    read-write, followers read-only.  The shipper calls the
    ``put_*``/``remove_*`` methods and finishes every round with
    :meth:`publish_manifest`; followers call ``read_*``/``fetch_*``.
    Two conditions carry the protocol: :meth:`publish_manifest` is
    atomic — a reader sees the previous manifest or the new one, never
    a torn mix — and artifact bytes are visible no later than the
    manifest advertising them.  Here both reduce to POSIX rename
    atomicity for the manifest and ordinary append ordering for
    segments.
    """

    def __init__(self, root: str, create: bool = True):
        self.root = root
        self.wal_dir = os.path.join(root, WAL_SUBDIR)
        self.snapshot_dir = os.path.join(root, SNAPSHOT_SUBDIR)
        self.manifest_path = os.path.join(root, MANIFEST_NAME)
        if create:
            os.makedirs(self.wal_dir, exist_ok=True)
            os.makedirs(self.snapshot_dir, exist_ok=True)

    # -- leader side ---------------------------------------------------
    def put_segment_bytes(self, name: str, offset: int,
                          data: bytes) -> None:
        """Append ``data`` to segment ``name`` at byte ``offset``, the
        size last acknowledged for it."""
        path = os.path.join(self.wal_dir, name)
        with open(path, "ab") as fh:
            if fh.tell() > offset:
                # a crashed earlier copy left unadvertised bytes behind;
                # rewind so the shipped file matches the manifest again
                fh.truncate(offset)
            elif fh.tell() < offset:
                raise ReplicationError(
                    f"shipped segment {name} is {fh.tell()} bytes but "
                    f"the shipper expected {offset}; the replica "
                    "directory was modified behind the shipper's back"
                )
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())

    def put_snapshot(self, name: str, data: bytes) -> None:
        final = os.path.join(self.snapshot_dir, name)
        tmp = final + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.rename(tmp, final)
        self._sync_dir(self.snapshot_dir)

    def remove_segment(self, name: str) -> None:
        try:
            os.remove(os.path.join(self.wal_dir, name))
        except FileNotFoundError:
            pass

    def remove_snapshot(self, name: str) -> None:
        try:
            os.remove(os.path.join(self.snapshot_dir, name))
        except FileNotFoundError:
            pass

    def publish_manifest(self, manifest: dict) -> None:
        tmp = self.manifest_path + ".tmp"
        body = json.dumps(manifest, sort_keys=True).encode("ascii")
        with open(tmp, "wb") as fh:
            fh.write(body)
            fh.flush()
            os.fsync(fh.fileno())
        os.rename(tmp, self.manifest_path)
        self._sync_dir(self.root)

    @staticmethod
    def _sync_dir(directory: str) -> None:
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- follower side -------------------------------------------------
    def read_manifest(self) -> Optional[dict]:
        try:
            with open(self.manifest_path, "rb") as fh:
                body = fh.read()
        except FileNotFoundError:
            return None
        try:
            manifest = json.loads(body.decode("ascii"))
        except (ValueError, UnicodeDecodeError) as exc:
            # rename publication makes this unreachable on a POSIX
            # filesystem; a transport that lost atomicity must surface
            # loudly rather than feed the follower garbage
            raise ReplicationError(
                f"shipped manifest {self.manifest_path} does not parse: "
                f"{exc}"
            ) from exc
        # every field and type, once: the follower, the shipper and
        # ``repro lag`` index the manifest freely
        where = f"shipped manifest {self.manifest_path}"
        _check_shape(manifest, {}, where)
        if manifest.get("version") != MANIFEST_VERSION:
            raise ReplicationError(
                f"shipped manifest version {manifest.get('version')!r} "
                f"is not supported (expected {MANIFEST_VERSION})"
            )
        _check_shape(manifest, _MANIFEST, where)
        return manifest

    def read_segment_bytes(self, name: str, offset: int,
                           length: int) -> bytes:
        """Up to ``length`` bytes of segment ``name`` from ``offset``;
        short (``b""`` when the file is gone) while the artifact is
        still propagating or was pruned since the manifest was read."""
        path = os.path.join(self.wal_dir, name)
        try:
            with open(path, "rb") as fh:
                fh.seek(offset)
                return fh.read(length)
        except FileNotFoundError:
            return b""

    def fetch_snapshot(self, name: str) -> bytes:
        path = os.path.join(self.snapshot_dir, name)
        try:
            with open(path, "rb") as fh:
                return fh.read()
        except FileNotFoundError as exc:
            raise ReplicationError(
                f"shipped snapshot {name} is missing from "
                f"{self.snapshot_dir}"
            ) from exc

    def segment_names(self) -> List[str]:
        try:
            return sorted(os.listdir(self.wal_dir))
        except FileNotFoundError:
            return []

    def snapshot_names(self) -> List[str]:
        try:
            return sorted(os.listdir(self.snapshot_dir))
        except FileNotFoundError:
            return []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DirectoryTransport(root={self.root!r})"


def as_transport(source) -> DirectoryTransport:
    """Coerce a path or transport into a :class:`DirectoryTransport`."""
    if isinstance(source, DirectoryTransport):
        return source
    if isinstance(source, (str, os.PathLike)):
        return DirectoryTransport(os.fspath(source))
    raise ReplicationError(
        f"cannot build a replication transport from {source!r}; pass a "
        "directory path or a DirectoryTransport"
    )
