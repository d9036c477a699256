"""Unit tests for schemas, heap tables and the database catalog."""

import pytest

from repro import (
    CatalogError,
    Column,
    Database,
    DataType,
    ForeignKey,
    SchemaError,
    TableSchema,
    TupleNotFoundError,
)


def simple_schema(name="t"):
    return TableSchema(name, [Column("a"), Column("b", DataType.STR)])


class TestDataType:
    def test_int_accepts_ints_only(self):
        assert DataType.INT.validate(3)
        assert not DataType.INT.validate(3.5)
        assert not DataType.INT.validate(True)
        assert not DataType.INT.validate("3")

    def test_float_accepts_ints_and_floats(self):
        assert DataType.FLOAT.validate(3)
        assert DataType.FLOAT.validate(3.5)
        assert not DataType.FLOAT.validate(True)

    def test_str_and_bool(self):
        assert DataType.STR.validate("x")
        assert not DataType.STR.validate(1)
        assert DataType.BOOL.validate(False)
        assert not DataType.BOOL.validate(0)

    def test_none_is_always_type_valid(self):
        assert DataType.INT.validate(None)

    def test_numeric_flags(self):
        assert DataType.INT.is_numeric
        assert DataType.FLOAT.is_numeric
        assert not DataType.STR.is_numeric


class TestSchema:
    def test_column_positions(self):
        schema = simple_schema()
        assert schema.index_of("a") == 0
        assert schema.index_of("b") == 1
        assert schema.column_names == ("a", "b")

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            simple_schema().index_of("zzz")

    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a"), Column("a")])

    def test_bad_names_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("1bad", [Column("a")])
        with pytest.raises(SchemaError):
            Column("not a name")

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a")], primary_key=("nope",))

    def test_foreign_key_arity_checked(self):
        with pytest.raises(SchemaError):
            ForeignKey(("a", "b"), "other", ("x",))
        with pytest.raises(SchemaError):
            ForeignKey((), "other", ())

    def test_foreign_key_columns_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "t", [Column("a")],
                foreign_keys=(ForeignKey(("zzz",), "other", ("x",)),),
            )

    def test_row_validation(self):
        schema = simple_schema()
        schema.validate_row((1, "x"))
        with pytest.raises(SchemaError):
            schema.validate_row((1,))
        with pytest.raises(SchemaError):
            schema.validate_row(("x", "x"))
        with pytest.raises(SchemaError):
            schema.validate_row((None, "x"))  # not nullable

    def test_nullable_column(self):
        schema = TableSchema("t", [Column("a", nullable=True)])
        schema.validate_row((None,))



class TestTable:
    def test_insert_assigns_sequential_tids(self):
        db = Database()
        table = db.create_table(simple_schema())
        assert table.insert((1, "x")) == 0
        assert table.insert((2, "y")) == 1
        assert len(table) == 2

    def test_delete_tombstones_and_never_reuses_tids(self):
        db = Database()
        table = db.create_table(simple_schema())
        tid = table.insert((1, "x"))
        table.delete(tid)
        assert not table.is_live(tid)
        assert table.insert((2, "y")) == 1  # tid 0 not reused
        assert len(table) == 1

    def test_get_deleted_raises(self):
        db = Database()
        table = db.create_table(simple_schema())
        tid = table.insert((1, "x"))
        table.delete(tid)
        with pytest.raises(TupleNotFoundError):
            table.get(tid)
        with pytest.raises(TupleNotFoundError):
            table.delete(tid)

    def test_get_out_of_range_raises(self):
        db = Database()
        table = db.create_table(simple_schema())
        with pytest.raises(TupleNotFoundError):
            table.get(0)

    def test_peek_sees_tombstones(self):
        db = Database()
        table = db.create_table(simple_schema())
        tid = table.insert((1, "x"))
        table.delete(tid)
        assert table.peek(tid) == (1, "x")
        assert table.peek(99) is None

    def test_scan_skips_tombstones(self):
        db = Database()
        table = db.create_table(simple_schema())
        t0 = table.insert((1, "x"))
        t1 = table.insert((2, "y"))
        table.delete(t0)
        assert list(table.scan()) == [(t1, (2, "y"))]
        assert list(table.live_tids()) == [t1]

    def test_value_accessor(self):
        db = Database()
        table = db.create_table(simple_schema())
        tid = table.insert((7, "hi"))
        assert table.value(tid, "b") == "hi"

    def test_validation_can_be_disabled(self):
        from repro.catalog.table import Table
        table = Table(simple_schema(), validate=False)
        table.insert(("wrong", 3))  # no error

    def test_high_water_mark(self):
        db = Database()
        table = db.create_table(simple_schema())
        table.insert((1, "x"))
        table.delete(0)
        assert table.high_water_mark == 1


class TestDatabase:
    def test_create_and_lookup(self):
        db = Database()
        db.create_table(simple_schema("x"))
        assert db.has_table("x")
        assert "x" in db
        assert db.table("x").schema.name == "x"

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table(simple_schema("x"))
        with pytest.raises(CatalogError):
            db.create_table(simple_schema("x"))

    def test_missing_table_raises(self):
        with pytest.raises(CatalogError):
            Database().table("nope")

    def test_bulk_load(self):
        db = Database()
        db.create_table(simple_schema("x"))
        tids = db.load("x", [(1, "a"), (2, "b")])
        assert tids == [0, 1]
        assert db.table("x").get(1) == (2, "b")

    def test_insert_delete_passthrough(self):
        db = Database()
        db.create_table(simple_schema("x"))
        tid = db.insert("x", (1, "a"))
        assert db.delete("x", tid) == (1, "a")
