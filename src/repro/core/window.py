"""Sliding-window synopsis maintenance for streaming sources (§7.1, QB).

The Linear Road experiment "delete[s] any tuple that is more than 60
seconds older than the newest tuple in the system" — a time-based sliding
window realised through SJoin's ordinary deletions.
:class:`SlidingWindowMaintainer` packages that pattern: every inserted row
carries a timestamp (one designated column per range table), and
advancing the watermark expires everything older than ``window``
automatically.

This is a convenience layer, not a new algorithm: expiry is implemented
as plain deletes — one batch of them per alias per watermark advance,
which the engine takes as one delete run — so every §5.3 guarantee
(purge, replenish, uniformity) applies to the live window's join results.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Sequence, Tuple, Union

from repro.catalog.database import Database
from repro.core.config import MaintainerConfig, coerce_config
from repro.core.maintainer import JoinSynopsisMaintainer
from repro.core.stats_api import DeleteOp
from repro.errors import SynopsisError
from repro.query.query import JoinQuery


class SlidingWindowMaintainer:
    """Maintain a join synopsis over the last ``window`` time units.

    Parameters
    ----------
    db, query, config:
        As for :class:`JoinSynopsisMaintainer`.
    window:
        Width of the time window; a tuple with timestamp ``ts`` is live
        while ``ts > watermark - window``.
    ts_columns:
        Timestamp column name per range-table alias.  Aliases missing
        from the mapping are treated as non-expiring dimension tables.
    """

    def __init__(
        self,
        db: Database,
        query: Union[str, JoinQuery],
        window: float,
        ts_columns: Dict[str, str],
        config: Optional[MaintainerConfig] = None,
    ):
        config = coerce_config(config, owner="SlidingWindowMaintainer")
        if window <= 0:
            raise SynopsisError("window width must be positive")
        self._inner = JoinSynopsisMaintainer(db, query, config)
        self.window = window
        self.watermark: Optional[float] = None
        self._ts_position: Dict[str, int] = {}
        for alias, column in ts_columns.items():
            table_name = self._inner.query.range_table(alias).table_name
            schema = db.table(table_name).schema
            self._ts_position[alias] = schema.index_of(column)
        # per alias: FIFO of (timestamp, tid); timestamps must be
        # non-decreasing per alias (stream order), which we verify
        self._pending: Dict[str, Deque[Tuple[float, int]]] = {
            alias: deque() for alias in self._ts_position
        }
        self._last_ts: Dict[str, float] = {}

    @property
    def maintainer(self) -> JoinSynopsisMaintainer:
        return self._inner

    # ------------------------------------------------------------------
    def insert(self, alias: str, row: Sequence[object]) -> int:
        """Insert a row; its timestamp advances the watermark and expires
        every tuple that fell out of the window."""
        tid = self._inner.insert(alias, row)
        if alias not in self._ts_position:
            return tid
        ts = row[self._ts_position[alias]]
        last = self._last_ts.get(alias)
        if last is not None and ts < last:
            raise SynopsisError(
                f"out-of-order timestamp on {alias}: {ts} after {last}"
            )
        self._last_ts[alias] = ts
        if tid >= 0:
            self._pending[alias].append((ts, tid))
        if self.watermark is None or ts > self.watermark:
            self.advance_to(ts)
        return tid

    def advance_to(self, watermark: float) -> int:
        """Move the watermark forward, expiring old tuples; returns the
        number of tuples expired."""
        if self.watermark is not None and watermark < self.watermark:
            raise SynopsisError("watermark cannot move backwards")
        self.watermark = watermark
        horizon = watermark - self.window
        expired = 0
        for alias, fifo in self._pending.items():
            ops = []
            while fifo and fifo[0][0] <= horizon:
                ops.append(DeleteOp(alias, fifo.popleft()[1]))
            if ops:
                self._inner.apply_batch(ops)
                expired += len(ops)
        return expired

    # ------------------------------------------------------------------
    def synopsis(self, limit: Optional[int] = None):
        return self._inner.synopsis(limit)

    def synopsis_rows(self, limit: Optional[int] = None):
        return self._inner.synopsis_rows(limit)

    def total_results(self) -> int:
        return self._inner.total_results()

    def live_count(self, alias: str) -> int:
        """Tuples of ``alias`` currently inside the window."""
        return len(self._pending.get(alias, ()))
