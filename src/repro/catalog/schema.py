"""Table schemas: columns, data types, and key constraints.

Schemas are deliberately lightweight — just enough structure for the query
planner to resolve column references, verify predicate typing, and detect
foreign-key subjoins for the SJoin-opt rewrite (paper §6).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence, Tuple

from repro.errors import SchemaError


class DataType(enum.Enum):
    """Supported column data types.

    ``INT`` and ``FLOAT`` columns may appear in arithmetic join predicates;
    ``STR`` and ``BOOL`` columns may only appear in plain equality join
    predicates and filter predicates.
    """

    INT = "int"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT, DataType.FLOAT)

    def validate(self, value: object) -> bool:
        """Return True when ``value`` is acceptable for this type."""
        if value is None:
            return True
        if self is DataType.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is DataType.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is DataType.STR:
            return isinstance(value, str)
        return isinstance(value, bool)


@dataclass(frozen=True)
class Column:
    """A single column: a name and a data type."""

    name: str
    dtype: DataType = DataType.INT
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name: {self.name!r}")


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key constraint: ``columns`` reference ``ref_table.ref_columns``.

    The referenced columns must form a unique key (the primary key) of the
    referenced table.  The SJoin-opt planner uses these declarations to find
    foreign-key subjoins that can be collapsed out of the query tree.
    """

    columns: Tuple[str, ...]
    ref_table: str
    ref_columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.ref_columns):
            raise SchemaError(
                "foreign key column count mismatch: "
                f"{self.columns} -> {self.ref_table}{self.ref_columns}"
            )
        if not self.columns:
            raise SchemaError("foreign key must reference at least one column")


@dataclass
class TableSchema:
    """Schema of a base table.

    Parameters
    ----------
    name:
        Table name, unique within a :class:`~repro.catalog.Database`.
    columns:
        Ordered column definitions.
    primary_key:
        Names of the columns forming the primary key (may be composite or
        empty when the table has no declared key).
    foreign_keys:
        Declared outbound foreign-key constraints.
    """

    name: str
    columns: Sequence[Column]
    primary_key: Tuple[str, ...] = ()
    foreign_keys: Tuple[ForeignKey, ...] = ()
    _index_of: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid table name: {self.name!r}")
        if not self.columns:
            raise SchemaError(f"table {self.name} has no columns")
        self.columns = tuple(self.columns)
        self.primary_key = tuple(self.primary_key)
        self.foreign_keys = tuple(self.foreign_keys)
        for i, col in enumerate(self.columns):
            if col.name in self._index_of:
                raise SchemaError(f"duplicate column {col.name} in {self.name}")
            self._index_of[col.name] = i
        for key_col in self.primary_key:
            if key_col not in self._index_of:
                raise SchemaError(
                    f"primary key column {key_col} not in table {self.name}"
                )
        for fk in self.foreign_keys:
            for col in fk.columns:
                if col not in self._index_of:
                    raise SchemaError(
                        f"foreign key column {col} not in table {self.name}"
                    )
        # exact-type fast path for validate_row; a row with a value of
        # any other type (None, numeric widening, bool-vs-int) or of the
        # wrong arity takes the per-column checks
        fast_types = {DataType.INT: int, DataType.FLOAT: float,
                      DataType.STR: str, DataType.BOOL: bool}
        self._exact_types = tuple(
            fast_types[col.dtype] for col in self.columns)

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(col.name for col in self.columns)

    def has_column(self, name: str) -> bool:
        return name in self._index_of

    def index_of(self, name: str) -> int:
        """Return the position of column ``name`` within a row tuple."""
        try:
            return self._index_of[name]
        except KeyError:
            raise SchemaError(f"no column {name} in table {self.name}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def validate_row(self, row: Sequence[object]) -> None:
        """Raise :class:`SchemaError` when ``row`` does not fit this schema."""
        exact = self._exact_types
        if tuple(map(type, row)) == exact:
            return
        if len(row) != len(exact):
            raise SchemaError(
                f"row arity {len(row)} != {len(self.columns)} for {self.name}"
            )
        for col, fast_type, value in zip(self.columns, exact, row):
            if type(value) is fast_type:
                continue
            if value is None and not col.nullable:
                raise SchemaError(
                    f"column {self.name}.{col.name} is not nullable"
                )
            if not col.dtype.validate(value):
                raise SchemaError(
                    f"value {value!r} is not a {col.dtype.value} "
                    f"for {self.name}.{col.name}"
                )
