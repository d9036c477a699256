"""Runtime machinery of the foreign-key subjoin optimisation (§6).

The planner collapses FK equi-join edges into combined plan nodes (see
:mod:`repro.query.planner`); this module provides the runtime side: one
hash table per PK-side member mapping its key to the stored tuple, the
assembly (and rebuilding) of combined tuples from anchor tuples, and
referential-integrity accounting so that deleting a still-referenced PK
tuple raises :class:`IntegrityError` instead of corrupting the graph.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.catalog.database import Database
from repro.catalog.table import Table
from repro.errors import IntegrityError, InvalidArgumentError, RecoveryError
from repro.query.planner import CollapsedMember, PlanNode, key_projection


class MemberHash:
    """The PK-side hash table of one collapsed member."""

    def __init__(self, member: CollapsedMember, filtered: bool):
        self.member = member
        self.filtered = filtered  # silent-miss allowed when pre-filtered
        self._rows: Dict[tuple, Tuple[int, tuple]] = {}
        # live combined tuples holding each key; no entry at zero
        self._refcount: Dict[tuple, int] = defaultdict(int)

    def register(self, key: tuple, tid: int, row: tuple) -> None:
        if key in self._rows:
            raise IntegrityError(
                f"duplicate primary key {key!r} in {self.member.alias}"
            )
        self._rows[key] = (tid, row)

    def unregister(self, key: tuple) -> None:
        if self._refcount.get(key, 0) > 0:
            raise IntegrityError(
                f"primary key {key!r} of {self.member.alias} is still "
                "referenced by live combined tuples"
            )
        if key not in self._rows:
            raise IntegrityError(
                f"no tuple with key {key!r} in {self.member.alias}"
            )
        del self._rows[key]

    def lookup(self, key: tuple) -> Optional[Tuple[int, tuple]]:
        return self._rows.get(key)

    # -- persistence (repro.persist) ------------------------------------
    def state_dict(self) -> dict:
        return {
            "rows": [(key, tid, row)
                     for key, (tid, row) in self._rows.items()],
            "refcounts": [(key, count)
                          for key, count in self._refcount.items()],
        }

    def load_state(self, state: dict, heap: Table) -> None:
        """Restore from :meth:`state_dict` over the member's restored
        ``heap``: each entry holds the heap's own row at its TID, so a
        restored process keeps a member row once, as a live one does.  An
        entry that is not the live heap row at its TID is a
        :class:`~repro.errors.RecoveryError`."""
        entries = state["rows"]
        tids = [int(tid) for _, tid, _ in entries]
        heap_rows = heap.live_rows(tids)
        if heap_rows != [row for _, _, row in entries]:
            (key, tid, row), heap_row = next(
                (entry, heap_row)
                for entry, heap_row in zip(entries, heap_rows)
                if heap_row != entry[2])
            raise RecoveryError(
                f"{self.member.alias} hash entry {key!r} holds {row!r} at "
                f"tid {tid}, and the restored {heap.schema.name} heap "
                f"holds {heap_row!r} there")
        self._rows = {
            tuple(key): (tid, heap_row)
            for (key, _, _), tid, heap_row in zip(entries, tids, heap_rows)
        }
        self._refcount = defaultdict(int, {
            tuple(key): int(count) for key, count in state["refcounts"]
        })

    def drop_reference(self, key: tuple) -> None:
        count = self._refcount.get(key, 0)
        if count <= 0:
            raise IntegrityError(f"reference underflow for key {key!r}")
        if count == 1:
            del self._refcount[key]
        else:
            self._refcount[key] = count - 1

    def __len__(self) -> int:
        return len(self._rows)


class CombinedNodeRuntime:
    """Assembly and bookkeeping for one combined plan node.

    A combined tuple is its anchor: it has the anchor's TID, and its row
    (the members' TIDs, then their base rows, in member order) is stored
    nowhere — ``_chain`` finds each member from its parent's row: per
    member its range-table position, its parent's, the parent row's FK
    projection, its hash table.  The join graph reads only the tuple's
    vertex key, which ``_key_of`` picks straight out of the member rows
    (each vertex attribute's member position and column, compiled once),
    so the combined row is built only where it is read: a tuple weight,
    :meth:`row_of`.  An anchor references its members exactly while the
    join graph holds its tuple; nothing is kept per anchor.
    """

    def __init__(self, node: PlanNode, db: Database,
                 filtered_aliases: frozenset,
                 weigh: Optional[Callable[[int, tuple], int]] = None):
        if not node.is_combined:
            raise InvalidArgumentError(
                "runtime only applies to combined nodes")
        # plain-int work counters, published to the registry at snapshot
        # time only (keeps the assembly hot path free when metrics are off)
        self.assembles = 0
        self.assembly_drops = 0
        self.lookups = 0
        self.member_registrations = 0
        self.hashes: Dict[str, MemberHash] = {}
        self._pk_of: Dict[str, Callable[[tuple], tuple]] = {}
        # the graph's tuple-weight check, run before any reference is taken
        self._node_idx = node.idx
        self._weigh = weigh
        members = node.members
        schema_of = {m.alias: db.table(m.base_table).schema for m in members}
        pos_of = {m.alias: m.orig_index for m in members}
        chain = []
        for member in members[1:]:
            alias, parent = member.alias, member.parent_alias
            member_hash = self.hashes[alias] = MemberHash(
                member, alias in filtered_aliases)
            self._pk_of[alias] = key_projection(
                [schema_of[alias].index_of(col) for col in member.pk_columns])
            chain.append((member.orig_index, pos_of[parent], key_projection(
                [schema_of[parent].index_of(col)
                 for col in member.fk_columns]), member_hash))
        self._chain = tuple(chain)
        # lists by range-table position; a row picks members in order
        self._width = max(pos_of.values()) + 1
        self._layout = itemgetter(*[m.orig_index for m in members])
        # each vertex attribute's (range-table position, base column)
        where = {node.node_attr(m.alias, column): (m.orig_index, col)
                 for m in members
                 for col, column in enumerate(schema_of[m.alias].column_names)}
        key_at = tuple(where[attr] for attr in node.vertex_attrs)
        if len(key_at) == 1:
            ((pos, col),) = key_at
            self._key_of = lambda rows: (rows[pos][col],)
        else:
            self._key_of = lambda rows: tuple(
                [rows[pos][col] for pos, col in key_at])

    # ------------------------------------------------------------------
    # persistence (repro.persist)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """What the base heaps cannot rebuild: the member hash tables with
        their reference counts, and the counters."""
        return {
            "assembles": self.assembles,
            "assembly_drops": self.assembly_drops,
            "lookups": self.lookups,
            "member_registrations": self.member_registrations,
            "hashes": {alias: h.state_dict()
                       for alias, h in self.hashes.items()},
        }

    def load_state(self, state: dict, db: Database) -> None:
        for alias, member_state in state["hashes"].items():
            member_hash = self.hashes[alias]
            member_hash.load_state(
                member_state, db.table(member_hash.member.base_table))
        self.assembles = int(state["assembles"])
        self.assembly_drops = int(state["assembly_drops"])
        self.lookups = int(state["lookups"])
        self.member_registrations = int(state["member_registrations"])

    # ------------------------------------------------------------------
    # PK-side member updates
    # ------------------------------------------------------------------
    def register_member(self, alias: str, tid: int, row: tuple) -> None:
        self.member_registrations += 1
        self.hashes[alias].register(self._pk_of[alias](row), tid, row)

    def unregister_member(self, alias: str, row: tuple) -> None:
        self.hashes[alias].unregister(self._pk_of[alias](row))

    # ------------------------------------------------------------------
    # anchor-side updates
    # ------------------------------------------------------------------
    def assemble(self, anchor_tid: int, anchor_row: tuple
                 ) -> Optional[Tuple[int, tuple, Optional[int]]]:
        """Widen an anchor tuple into its join-graph entry ``(anchor_tid,
        vertex_key, weight)`` (weight None when unweighted), referencing
        its members — or None when a pre-filtered member is missing (a
        silent drop: it can never join).  Raises IntegrityError for an
        unexplained miss and the graph's error for a bad weight, neither
        taking a reference."""
        chain, width = self._chain, self._width
        tids, rows = [anchor_tid] * width, [anchor_row] * width
        keys: List[Optional[tuple]] = [None] * width
        for pos, parent, fk_of, member_hash in chain:
            key = fk_of(rows[parent])
            try:
                tids[pos], rows[pos] = member_hash._rows[key]
            except KeyError:
                # this miss after the hits
                self.lookups += width - keys.count(None) + 1
                if member_hash.filtered:
                    self.assembly_drops += 1
                    return None
                member = member_hash.member
                raise IntegrityError(
                    f"foreign key {key!r} of {member.parent_alias} has no "
                    f"match in {member.alias}"
                ) from None
            keys[pos] = key
        self.lookups += len(chain)
        self.assembles += 1
        weigh = self._weigh
        if weigh is None:
            weight = None
        else:
            layout = self._layout
            weight = weigh(self._node_idx, sum(layout(rows), layout(tids)))
        for pos, _, _, member_hash in chain:
            member_hash._refcount[keys[pos]] += 1
        return anchor_tid, self._key_of(rows), weight

    def expand_into(self, tids: List[int], rows: List[tuple]) -> None:
        """Set an anchor's members beside it: ``tids`` / ``rows`` are
        indexed by range-table position and hold the anchor at its own;
        the members come from the hashes (no heap is read)."""
        for pos, parent, fk_of, member_hash in self._chain:
            key = fk_of(rows[parent])
            try:
                tids[pos], rows[pos] = member_hash._rows[key]
            except KeyError:
                raise IntegrityError(f"no live {member_hash.member.alias} "
                                     f"tuple with key {key!r}") from None

    def row_of(self, anchor_tid: int, anchor_row: tuple) -> tuple:
        """The combined row of an assembled anchor: the members' TIDs,
        then their base rows, in member order."""
        width = self._width
        tids, rows = [anchor_tid] * width, [anchor_row] * width
        self.expand_into(tids, rows)
        layout = self._layout
        return sum(layout(rows), layout(tids))

    def key_of(self, anchor_tid: int, anchor_row: tuple) -> tuple:
        """:meth:`assemble`'s vertex key for an assembled anchor."""
        width = self._width
        rows = [anchor_row] * width
        self.expand_into([anchor_tid] * width, rows)
        return self._key_of(rows)

    def disassemble(self, anchor_tid: int, anchor_row: tuple,
                    delete: Callable[[int, tuple], Optional[int]]
                    ) -> Optional[int]:
        """Reverse :meth:`assemble` for a deleted anchor: hand its vertex
        key to ``delete`` (the graph's) and, when it reports the tuple
        removed, release the member references and return its report.
        None, releasing nothing, when ``delete`` returns None (the graph
        does not hold the tuple) or a member is missing: the anchor was
        never assembled (a miss, a refused weight, another query's
        refusal), member since arrived or not."""
        width = self._width
        rows = [anchor_row] * width
        try:
            self.expand_into([anchor_tid] * width, rows)
        except IntegrityError:
            return None
        removed = delete(anchor_tid, self._key_of(rows))
        if removed is not None:
            for _, parent, fk_of, member_hash in self._chain:
                member_hash.drop_reference(fk_of(rows[parent]))
        return removed
