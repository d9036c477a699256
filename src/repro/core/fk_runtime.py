"""Runtime machinery of the foreign-key subjoin optimisation (§6).

The planner collapses FK equi-join edges into combined plan nodes (see
:mod:`repro.query.planner`); this module provides the runtime side: one
hash table per PK-side member mapping its key to the stored tuple, the
assembly of combined tuples when an anchor tuple arrives, and referential-
integrity accounting so that deleting a still-referenced PK tuple raises
:class:`IntegrityError` instead of silently corrupting the graph.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.catalog.database import Database
from repro.errors import IntegrityError, InvalidArgumentError
from repro.query.planner import CollapsedMember, PlanNode


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

    def load_state(self, state: dict) -> None:
        self._rows = {
            tuple(key): (int(tid), tuple(row))
            for key, tid, row in state["rows"]
        }
        self._refcount = defaultdict(int, {
            tuple(key): int(count) for key, count in state["refcounts"]
        })

    def add_reference(self, key: tuple) -> None:
        self._refcount[key] += 1

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


def _projection(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """Compile ``row -> tuple(row[i] for i in positions)`` for tuple
    rows (a one-column key is the one-element slice, itself a tuple)."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


class CombinedNodeRuntime:
    """Assembly and bookkeeping for one combined plan node.

    A combined row is the members' TIDs followed by their base rows, in
    member order (anchor first, every parent before its children).  What
    that takes per member is compiled once into ``_chain``: the member's
    slot, its parent's slot, the projection of the parent's base row —
    and of the combined row — onto the FK columns, and the member's
    hash table.
    """

    def __init__(self, node: PlanNode, db: Database,
                 filtered_aliases: frozenset, obs=None):
        if not node.is_combined:
            raise InvalidArgumentError("runtime only applies to combined nodes")
        self.node = node
        # plain-int work counters, published to the registry at snapshot
        # time only (keeps the assembly hot path free when metrics are off)
        self.assembles = 0
        self.assembly_drops = 0
        self.lookups = 0
        self.member_registrations = 0
        self.hashes: Dict[str, MemberHash] = {}
        self._pk_of: Dict[str, Callable[[tuple], tuple]] = {}
        self._anchor_to_combined: Dict[int, int] = {}
        members = node.members
        schemas = [db.table(m.base_table).schema for m in members]
        slot_of = {m.alias: slot for slot, m in enumerate(members)}
        # where each member's base row starts inside the combined row
        offsets = [len(members)]
        for schema in schemas[:-1]:
            offsets.append(offsets[-1] + len(schema.columns))
        chain = []
        for slot, member in enumerate(members[1:], 1):
            alias = member.alias
            member_hash = self.hashes[alias] = MemberHash(
                member, alias in filtered_aliases)
            self._pk_of[alias] = _projection(
                [schemas[slot].index_of(col) for col in member.pk_columns])
            parent = slot_of[member.parent_alias]
            fk_pos = [schemas[parent].index_of(col)
                      for col in member.fk_columns]
            chain.append((
                slot, parent, _projection(fk_pos),
                _projection([offsets[parent] + i for i in fk_pos]),
                member_hash))
        self._chain = tuple(chain)

    # ------------------------------------------------------------------
    # persistence (repro.persist)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Combined-node state that cannot be rebuilt from the base heaps:
        the combined heap itself (its TIDs were assigned in anchor-arrival
        order), the anchor→combined mapping, the member hash tables with
        their reference counts, and the work counters."""
        return {
            "assembles": self.assembles,
            "assembly_drops": self.assembly_drops,
            "lookups": self.lookups,
            "member_registrations": self.member_registrations,
            "hashes": {alias: h.state_dict()
                       for alias, h in self.hashes.items()},
            "anchor_to_combined": list(self._anchor_to_combined.items()),
            "table": self.node.table.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        for alias, member_state in state["hashes"].items():
            self.hashes[alias].load_state(member_state)
        self._anchor_to_combined = {
            int(anchor): int(combined)
            for anchor, combined in state["anchor_to_combined"]
        }
        self.node.table.load_state(state["table"])
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
                 ) -> Optional[Tuple[int, tuple]]:
        """Widen an anchor tuple into a combined tuple.

        Returns ``(combined_tid, combined_row)`` — or None when a looked-up
        member was filtered out by its pre-filter (a silent drop: the tuple
        can never contribute join results).  Raises IntegrityError when a
        lookup misses with no filter to explain it.  Nothing has changed
        when either happens.
        """
        chain = self._chain
        size = len(chain) + 1
        tids = [anchor_tid] * size
        rows = [anchor_row] * size
        keys: List[Optional[tuple]] = [None] * size
        for slot, parent, fk_of, _, member_hash in chain:
            key = keys[slot] = fk_of(rows[parent])
            try:
                tids[slot], rows[slot] = member_hash._rows[key]
            except KeyError:
                self.lookups += slot    # this miss after slot - 1 hits
                if member_hash.filtered:
                    self.assembly_drops += 1
                    return None
                member = member_hash.member
                raise IntegrityError(
                    f"foreign key {key!r} of {member.parent_alias} has no "
                    f"match in {member.alias}"
                ) from None
        self.lookups += size - 1
        self.assembles += 1
        combined_row = tuple(tids)
        for row in rows:
            combined_row += row
        combined_tid = self.node.table.insert(combined_row)
        self._anchor_to_combined[anchor_tid] = combined_tid
        for slot, _, _, _, member_hash in chain:
            member_hash._refcount[keys[slot]] += 1
        return combined_tid, combined_row

    def has_combined(self, anchor_tid: int) -> bool:
        """False when the anchor tuple was dropped at assembly time
        (a pre-filtered member lookup missed)."""
        return anchor_tid in self._anchor_to_combined

    def disassemble(self, anchor_tid: int) -> Tuple[int, tuple]:
        """Reverse :meth:`assemble` for a deleted anchor tuple.

        Returns the ``(combined_tid, combined_row)`` that must be removed
        from the join graph; the combined heap row is tombstoned here and
        member reference counts are released.
        """
        combined_tid = self._anchor_to_combined.pop(anchor_tid, None)
        if combined_tid is None:
            raise IntegrityError(
                f"anchor tuple {anchor_tid} has no combined counterpart"
            )
        combined_row = self.node.table.get(combined_tid)
        # member rows are embedded in the combined row
        for _, _, _, fk_of_combined, member_hash in self._chain:
            member_hash.drop_reference(fk_of_combined(combined_row))
        self.node.table.delete(combined_tid)
        return combined_tid, combined_row
