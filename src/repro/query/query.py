"""Join query specification: range tables + predicates.

A :class:`JoinQuery` is the *pre-specified* query for which a synopsis is
maintained.  Range tables reference base tables by name; the same base table
may appear several times under different aliases (e.g. ``date_dim d1`` and
``date_dim d2`` in the paper's QX), in which case each occurrence is an
independent range table (§5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.catalog.database import Database
from repro.errors import QueryError
from repro.query.predicates import (
    FilterPredicate,
    MultiTableFilter,
    ThetaPredicate,
)


@dataclass(frozen=True)
class RangeTable:
    """One entry of the FROM clause: a base table under an alias."""

    alias: str
    table_name: str

    def __post_init__(self) -> None:
        if not self.alias.isidentifier():
            raise QueryError(f"invalid alias {self.alias!r}")


@dataclass
class JoinQuery:
    """``SELECT * FROM <range tables> WHERE <predicates>``.

    Attributes
    ----------
    range_tables:
        The FROM-clause entries, in declaration order.
    join_predicates:
        Theta predicates between pairs of range tables (§2 forms).
    filters:
        Single-table pre-filter predicates.
    multi_filters:
        Residual multi-table filters applied on top of the synopsis.
    """

    range_tables: Sequence[RangeTable]
    join_predicates: Sequence[ThetaPredicate] = ()
    filters: Sequence[FilterPredicate] = ()
    multi_filters: Sequence[MultiTableFilter] = ()
    _alias_index: Dict[str, int] = field(
        init=False, repr=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self.range_tables = tuple(self.range_tables)
        self.join_predicates = tuple(self.join_predicates)
        self.filters = tuple(self.filters)
        self.multi_filters = tuple(self.multi_filters)
        if not self.range_tables:
            raise QueryError("query needs at least one range table")
        for i, rt in enumerate(self.range_tables):
            if rt.alias in self._alias_index:
                raise QueryError(f"duplicate alias {rt.alias}")
            self._alias_index[rt.alias] = i
        for pred in self.join_predicates:
            for alias in pred.sides():
                if alias not in self._alias_index:
                    raise QueryError(
                        f"predicate {pred} references unknown alias {alias}"
                    )
        for flt in self.filters:
            if flt.alias not in self._alias_index:
                raise QueryError(
                    f"filter {flt} references unknown alias {flt.alias}"
                )
        for mflt in self.multi_filters:
            for alias in mflt.aliases:
                if alias not in self._alias_index:
                    raise QueryError(
                        f"filter {mflt} references unknown alias {alias}"
                    )

    # ------------------------------------------------------------------
    @property
    def num_tables(self) -> int:
        return len(self.range_tables)

    @property
    def aliases(self) -> Tuple[str, ...]:
        return tuple(rt.alias for rt in self.range_tables)

    def index_of(self, alias: str) -> int:
        try:
            return self._alias_index[alias]
        except KeyError:
            raise QueryError(f"unknown alias {alias}") from None

    def range_table(self, alias: str) -> RangeTable:
        return self.range_tables[self.index_of(alias)]

    def filters_on(self, alias: str) -> List[FilterPredicate]:
        return [f for f in self.filters if f.alias == alias]

    def validate_against(self, db: Database) -> None:
        """Check tables and columns exist; raise :class:`QueryError` if not."""
        for rt in self.range_tables:
            if not db.has_table(rt.table_name):
                raise QueryError(f"unknown table {rt.table_name}")
        for pred in self.join_predicates:
            for alias in pred.sides():
                schema = db.table(self.range_table(alias).table_name).schema
                attr = pred.attr_of(alias)
                if not schema.has_column(attr):
                    raise QueryError(
                        f"{alias}.{attr} does not exist in {schema.name}"
                    )
        for flt in self.filters:
            schema = db.table(self.range_table(flt.alias).table_name).schema
            if not schema.has_column(flt.attr):
                raise QueryError(
                    f"{flt.alias}.{flt.attr} does not exist in {schema.name}"
                )

    def __str__(self) -> str:
        froms = ", ".join(
            rt.table_name if rt.table_name == rt.alias
            else f"{rt.table_name} {rt.alias}"
            for rt in self.range_tables
        )
        conds = [str(p) for p in self.join_predicates]
        conds += [str(f) for f in self.filters]
        conds += [str(m) for m in self.multi_filters]
        where = " WHERE " + " AND ".join(conds) if conds else ""
        return f"SELECT * FROM {froms}{where}"
