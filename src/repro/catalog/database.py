"""The in-memory database: a named collection of heap tables."""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from repro.catalog.schema import TableSchema
from repro.catalog.table import Table
from repro.errors import CatalogError


class Database:
    """A catalog of named :class:`~repro.catalog.Table` objects.

    The database is the substrate shared by all engines (SJoin, SJoin-opt,
    SJ baseline, and the exact executor used in tests).
    """

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}

    def create_table(self, schema: TableSchema, validate: bool = True) -> Table:
        """Create an empty table from ``schema`` and register it."""
        if schema.name in self._tables:
            raise CatalogError(f"table {schema.name} already exists")
        table = Table(schema, validate=validate)
        self._tables[schema.name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> Iterable[str]:
        return self._tables.keys()

    # convenience pass-throughs -----------------------------------------
    def insert(self, table_name: str, row: Sequence[object]) -> int:
        return self.table(table_name).insert(row)

    def delete(self, table_name: str, tid: int):
        return self.table(table_name).delete(tid)

    def load(self, table_name: str, rows: Iterable[Sequence[object]]) -> list:
        """Bulk-insert ``rows``; returns the assigned TIDs."""
        table = self.table(table_name)
        return [table.insert(row) for row in rows]

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(
            f"{name}[{len(tbl)}]" for name, tbl in self._tables.items()
        )
        return f"Database({parts})"
