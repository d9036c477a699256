"""repro.replicate — read scale-out via WAL shipping.

The paper's maintenance algorithms are deterministic given the update
stream and the RNG seed, and the durability layer
(:mod:`repro.persist`) already reifies both into an on-disk log +
snapshot pair whose logical replay is bit-identical — including the
sample RNG stream.  This package turns that property into read
scale-out:

* :class:`WalShipper` (leader side) publishes the newest snapshot and
  every WAL segment's CRC-valid bytes through a
  :class:`DirectoryTransport`, finishing each round by atomically
  publishing a manifest that *acknowledges* exactly what shipped;
* :class:`FollowerService` (replica side) bootstraps from the shipped
  snapshot, tails the shipped segments up to the acked LSN, replays
  records through the same logical-replay decoders crash recovery uses,
  and serves epoch-stamped read views — the epoch *is* the applied WAL
  LSN, so leader and follower states at equal positions are
  bit-identical, synopsis and RNG stream alike.

:class:`DirectoryTransport` ships through a shared filesystem
directory.  See ``docs/persistence.md`` (Replication) and
``docs/service.md`` (follower mode) for topology and semantics.
"""

from repro.replicate.follower import FollowerService
from repro.replicate.shipper import WalShipper
from repro.replicate.transport import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    DirectoryTransport,
    as_transport,
)

__all__ = [
    "DirectoryTransport",
    "FollowerService",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "WalShipper",
    "as_transport",
]
